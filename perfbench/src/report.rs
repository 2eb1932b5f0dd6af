//! A run's outcome: correctness, metrics and the printed result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stages::Ladder;
use crate::stats;
use crate::trace::{self, Span};

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("llm.calls", "count"),
    ("llm.complete_us", "us"),
    ("llm.busy_share", "ratio"),
    ("codemodel.extract_us", "us"),
    ("codemodel.compare_us", "us"),
    ("codemodel.busy_share", "ratio"),
    ("metrics.bleu_us", "us"),
    ("metrics.chrf_us", "us"),
    ("metrics.prepare_us", "us"),
    ("metrics.busy_share", "ratio"),
    ("core.parallel_speedup", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.exec_ref_runs", "count"),
    ("core.exec_parsed", "count"),
    ("core.exec_validated", "count"),
    ("core.exec_ran", "count"),
    ("core.exec_completed", "count"),
    ("wyaml.parse_us", "us"),
    ("systems.spec_us", "us"),
    ("systems.validate_us", "us"),
    ("systems.normalize_us", "us"),
    ("systems.busy_share", "ratio"),
    ("runtime.run_us", "us"),
    ("runtime.procs_per_run", "count"),
    ("runtime.fidelity_us", "us"),
    ("runtime.completed_ratio", "ratio"),
    ("runtime.busy_share", "ratio"),
    ("service.req_bytes", "B"),
    ("service.resp_bytes", "B"),
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("service.handle_us", "us"),
    ("service.server_p50_us", "us"),
    ("service.server_p99_us", "us"),
    ("service.unaccounted_us", "us"),
    ("service.requests", "count"),
    ("service.hypotheses", "count"),
    ("service.shed", "count"),
    ("service.deadline", "count"),
    ("service.internal", "count"),
    ("service.worker_restarts", "count"),
    ("bench.lag_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.replay_wall_s", "s"),
    ("bench.self_share", "ratio"),
];

/// Per-call medians taken from span durations: (metric, span name).
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("codemodel.extract_us", "codemodel.extract"),
    ("codemodel.compare_us", "codemodel.compare"),
    ("metrics.bleu_us", "metrics.bleu"),
    ("metrics.chrf_us", "metrics.chrf"),
    ("metrics.prepare_us", "metrics.prepare"),
    ("wyaml.parse_us", "wyaml.parse"),
    ("systems.spec_us", "systems.spec"),
    ("systems.validate_us", "systems.validate"),
    ("systems.normalize_us", "systems.normalize"),
    ("runtime.run_us", "runtime.run"),
    ("runtime.fidelity_us", "runtime.fidelity"),
    ("service.decode_us", "service.decode"),
    ("service.encode_us", "service.encode"),
    ("service.handle_us", "service.handle"),
];

/// Program layers whose self time is reported as a share of the replay.
const BUSY_LAYERS: &[&str] = &["llm", "codemodel", "metrics", "systems", "runtime"];

/// The largest share of the traced replay's wall time that may fall outside
/// every program layer (the replay's own loop) before the run is refused.
pub const MAX_BENCH_SELF_SHARE: f64 = 0.10;

/// Per-layer metrics of a traced run. Layers a workload does not exercise
/// report 0.
#[derive(Debug, Clone)]
pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
}

impl LayerReport {
    pub fn from_spans(spans: &[Span], replay_wall_s: f64) -> LayerReport {
        let mut values: BTreeMap<&'static str, f64> =
            LAYER_METRICS.iter().map(|(name, _)| (*name, 0.0)).collect();
        let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut own: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
            durations
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64 / 1e3);
            *own.entry(span.layer()).or_default() += self_ns;
        }
        for (metric, span) in SPAN_MEDIANS {
            if let Some(samples) = durations.get(span) {
                values.insert(metric, stats::median(samples));
            }
        }
        let wall_ns = replay_wall_s * 1e9;
        for layer in BUSY_LAYERS {
            let share = own.get(layer).copied().unwrap_or(0) as f64 / wall_ns;
            let name = LAYER_METRICS
                .iter()
                .find(|(n, _)| n.strip_suffix(".busy_share") == Some(layer))
                .map(|(n, _)| *n);
            if let Some(name) = name {
                values.insert(name, share);
            }
        }
        values.insert("bench.replay_wall_s", replay_wall_s);
        let bench_own = own.get("bench").copied().unwrap_or(0) as f64;
        values.insert("bench.self_share", bench_own / wall_ns);
        LayerReport { values }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.contains_key(name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Execution-ladder counts, engine threads per run and completions per
    /// run, over one pass of the workload's executions.
    pub fn ladder(&mut self, ladders: &[Ladder]) {
        let count = |f: fn(&Ladder) -> bool| ladders.iter().filter(|l| f(l)).count() as f64;
        let ran = count(|l| l.ran);
        self.set("core.exec_parsed", count(|l| l.parsed));
        self.set("core.exec_validated", count(|l| l.validated));
        self.set("core.exec_ran", ran);
        self.set("core.exec_completed", count(|l| l.completed));
        let procs: usize = ladders.iter().map(|l| l.procs).sum();
        self.set("runtime.procs_per_run", procs as f64 / ran.max(1.0));
        self.set(
            "runtime.completed_ratio",
            count(|l| l.completed) / ran.max(1.0),
        );
    }

    /// Refuse the run when the replay's own loop, outside every layer's
    /// span, takes more than [`MAX_BENCH_SELF_SHARE`] of its wall time:
    /// the layer self times must account for the replay.
    pub fn check_sum(&self, outcome: &mut Outcome) {
        let share = self.get("bench.self_share");
        if !(0.0..=MAX_BENCH_SELF_SHARE).contains(&share) {
            outcome.fail(format!(
                "layer self times leave {share:.3} of the replay unaccounted (limit {MAX_BENCH_SELF_SHARE})"
            ));
        }
    }
}

/// Everything one run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    details: Vec<(String, String)>,
    pub layers: Option<LayerReport>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new(attempted: usize) -> Outcome {
        Outcome {
            attempted,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            details: Vec::new(),
            layers: None,
            spans: Vec::new(),
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// `lat_p50_ms.<phase>` and `lat_p99_ms.<phase>`: the medians over
    /// `windows` of each window's p50 and p99, in milliseconds. Refuses a
    /// window whose p99 has fewer than ten samples beyond it.
    pub fn latency(&mut self, phase: &str, windows: &[Vec<f64>]) -> Result<(), String> {
        let (p50_name, p99_name) = match phase {
            "low" => ("lat_p50_ms.low", "lat_p99_ms.low"),
            _ => ("lat_p50_ms.high", "lat_p99_ms.high"),
        };
        let p50 = stats::windowed(windows, 50.0).map_err(|e| format!("{phase}: {e}"))?;
        let p99 = stats::windowed(windows, 99.0).map_err(|e| format!("{phase}: {e}"))?;
        self.metric(p50_name, "ms", p50);
        self.metric(p99_name, "ms", p99);
        let all: Vec<f64> = windows.iter().flatten().copied().collect();
        let all = stats::sorted(&all);
        let shown: Vec<String> = [50.0, 90.0, 99.0]
            .iter()
            .filter_map(|&p| {
                let v = stats::tail(&all, p).ok()?;
                Some(format!("\"p{p}\":{}", finite(v)))
            })
            .collect();
        self.detail(
            &format!("latency_ms.{phase}"),
            format!(
                "{{\"n\":{},\"windows\":{},{}}}",
                all.len(),
                windows.len(),
                shown.join(",")
            ),
        );
        Ok(())
    }

    /// A named value (already JSON) printed on the detail line.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_owned(), json));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The detail line: every detail plus any problems found.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{");
        for (key, json) in &self.details {
            let _ = write!(out, "{}:{},", quote(key), json);
        }
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        let _ = write!(out, "\"problems\":[{}]}}", problems.join(","));
        out
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<(String, &str, f64)> = match (&self.layers, traced) {
            (Some(layers), true) => LAYER_METRICS
                .iter()
                .map(|(name, unit)| (name.to_string(), *unit, layers.get(name)))
                .collect(),
            _ => self
                .metrics
                .iter()
                .map(|(name, unit, value)| (name.to_string(), *unit, *value))
                .collect(),
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = finite(*value);
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }
}

/// Latencies of refused or unanswered requests are infinite; JSON has no
/// infinity, so they print as 1e9 (ms or s: never met).
pub fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        1e9
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
