//! The `grid` workload: the paper grid, in-process, as `repro` runs it.
//!
//! One pass runs every experiment at score depth (`run_experiment`) and at
//! evaluate depth (`run_evaluation`), and the execution grid
//! (`run_execution`), for each of the five prompt variants: about 2,700
//! per-trial results. After timing, a single-threaded replay sends every
//! response of a pass through the public stage functions; its results must
//! be bit-identical to the grid's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wfspeak_core::{
    Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant, SystemProfile, WorkflowSystemId,
};
use wfspeak_llm::{CompletionRequest, CompletionResponse, LlmClient, ModelId, SimulatedLlm};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};

use crate::inputs::{self, Depth, TRIALS};
use crate::report::{LayerReport, Outcome};
use crate::stages::{self, Ladder, Stages};
use crate::stats;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Timed passes whose model calls are logged for the in-grid latency; a
/// fixed number, so memory does not grow with the run.
const LOGGED_PASSES: usize = 9;
/// Untraced single-threaded replays; each is one window of the low-load
/// latency.
const REPLAYS: usize = 5;

/// One `complete` call as the grid made it: worker thread, start and end
/// (nanoseconds since the run's origin).
type Call = (std::thread::ThreadId, u64, u64);

/// Where a timed model logs its calls while logging is on.
#[derive(Default)]
struct CallLog {
    on: AtomicBool,
    calls: Mutex<Vec<Call>>,
}

/// A simulated model whose calls are timed while its log is on.
struct TimedLlm {
    inner: SimulatedLlm,
    origin: Instant,
    log: Arc<CallLog>,
}

impl LlmClient for TimedLlm {
    fn model(&self) -> ModelId {
        self.inner.model()
    }

    fn complete(&self, request: &CompletionRequest) -> CompletionResponse {
        if !self.log.on.load(Ordering::Relaxed) {
            return self.inner.complete(request);
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let response = self.inner.complete(request);
        let end = self.origin.elapsed().as_nanos() as u64;
        let thread = std::thread::current().id();
        self.log
            .calls
            .lock()
            .expect("call log poisoned")
            .push((thread, start, end));
        response
    }
}

/// Every reference a pass scores against (BLEU/ChrF) or runs (execution).
fn references() -> (Vec<&'static str>, Vec<(WorkflowSystemId, &'static str)>) {
    let mut scored = Vec::new();
    for kind in ExperimentKind::ALL {
        for row in inputs::experiment_rows(kind, PromptVariant::Original) {
            if !scored.contains(&row.reference) {
                scored.push(row.reference);
            }
        }
    }
    let executed = inputs::execution_rows(PromptVariant::Original)
        .into_iter()
        .map(|row| (row.system, row.reference))
        .collect();
    (scored, executed)
}

/// Build the benchmark and bring every reference into its caches.
fn set_up(seed: u64, origin: Instant, log: &Arc<CallLog>) -> Benchmark {
    let clients: Vec<Box<dyn LlmClient>> = SimulatedLlm::all()
        .into_iter()
        .map(|inner| {
            Box::new(TimedLlm {
                inner,
                origin,
                log: Arc::clone(log),
            }) as Box<dyn LlmClient>
        })
        .collect();
    let config = BenchmarkConfig {
        trials: TRIALS as usize,
        base_seed: seed,
        ..BenchmarkConfig::default()
    };
    let benchmark = Benchmark::new(clients, config);
    let (scored, executed) = references();
    let (bleu, chrf) = (BleuScorer::default(), ChrfScorer::default());
    for reference in scored {
        benchmark
            .reference_cache()
            .get_or_prepare(&bleu, &chrf, reference);
    }
    for (system, reference) in executed {
        benchmark
            .execution_pipeline()
            .reference_summary(system, reference)
            .expect("reference artifacts run");
    }
    benchmark
}

/// One pass through the grid, as canonical per-trial records in the order
/// the grid reports them.
fn pass(benchmark: &Benchmark) -> Vec<String> {
    let models = benchmark.model_names();
    let mut records = Vec::with_capacity(2800);
    for variant in PromptVariant::ALL {
        for kind in ExperimentKind::ALL {
            let result = benchmark.run_experiment(kind, variant);
            for row in kind.row_labels() {
                for model in &models {
                    let bleu = result.bleu.samples(&row, model);
                    let chrf = result.chrf.samples(&row, model);
                    for (b, c) in bleu.iter().zip(chrf) {
                        records.push(stages::score_record(*b, *c));
                    }
                }
            }
        }
        for kind in ExperimentKind::ALL {
            for cell in benchmark.run_evaluation(kind, variant).cells {
                records.extend(cell.trials.iter().map(stages::evaluation_record));
            }
        }
        for cell in benchmark.run_execution(variant).cells {
            records.extend(cell.trials.iter().map(|s| Ladder::of(s).record()));
        }
    }
    records
}

/// What the replay of one pass produced.
struct Replay {
    records: Vec<String>,
    latency_ms: Vec<f64>,
    ladders: Vec<Ladder>,
    wall_s: f64,
}

/// Take every response of one pass through the stage functions, one at a
/// time. Each response's index is its trace id.
fn replay(benchmark: &Benchmark, seed: u64, tr: &mut Tracer) -> Replay {
    let clients = SimulatedLlm::all();
    let (rows, jobs) = inputs::pass_jobs(seed, clients.len());
    let stages = Stages::default();
    let mut profiles: HashMap<WorkflowSystemId, SystemProfile> = HashMap::new();
    for row in &rows {
        profiles
            .entry(row.system)
            .or_insert_with(|| SystemProfile::for_system(row.system));
    }
    let mut out = Replay {
        records: Vec::with_capacity(jobs.len()),
        latency_ms: Vec::with_capacity(jobs.len()),
        ladders: Vec::new(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    tr.open("bench.replay");
    let (scored, _) = references();
    for reference in scored {
        tr.leaf("metrics.prepare", || {
            (
                stages.bleu.prepare(reference),
                stages.chrf.prepare(reference),
            )
        });
    }
    for (index, job) in jobs.iter().enumerate() {
        let row = &rows[job.row];
        let began = Instant::now();
        tr.set_trace(index as u64);
        tr.open("bench.response");
        let response = tr.leaf("llm.complete", || {
            inputs::respond(&clients[job.model], &row.prompt, job.seed)
        });
        let record = match job.depth {
            Depth::Score | Depth::Evaluate => {
                let prepared = tr.leaf("core.cache_lookup", || {
                    benchmark.reference_cache().get_or_prepare(
                        &stages.bleu,
                        &stages.chrf,
                        row.reference,
                    )
                });
                if job.depth == Depth::Score {
                    let (bleu, chrf) = stages.score(tr, &prepared, &response);
                    stages::score_record(bleu, chrf)
                } else {
                    let profile = &profiles[&row.system];
                    stages::evaluation_record(&stages.evaluate(tr, &prepared, profile, &response))
                }
            }
            Depth::Execute => {
                let summary = tr.leaf("core.exec_reference", || {
                    benchmark
                        .execution_pipeline()
                        .reference_summary(row.system, row.reference)
                        .expect("reference artifacts run")
                });
                let ladder = stages.execute(tr, row.system, &response, &summary);
                let record = ladder.record();
                out.ladders.push(ladder);
                record
            }
        };
        tr.close();
        out.latency_ms.push(began.elapsed().as_secs_f64() * 1e3);
        out.records.push(record);
    }
    tr.close();
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Per-response latency inside the parallel grid, in ms: on each worker
/// thread, a trial's response has been taken through its stages when the
/// thread asks the model for the next one. The last call of each worker has
/// no successor and is not counted.
fn in_grid_latency_ms(calls: &[Call]) -> Vec<f64> {
    let mut by_thread: HashMap<std::thread::ThreadId, Vec<u64>> = HashMap::new();
    for (thread, start, _) in calls {
        by_thread.entry(*thread).or_default().push(*start);
    }
    let mut latency = Vec::with_capacity(calls.len());
    for starts in by_thread.values_mut() {
        starts.sort_unstable();
        latency.extend(starts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6));
    }
    latency
}

/// Run the workload for `seconds` of timed passes.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let origin = Instant::now();
    let log = Arc::new(CallLog::default());
    let mut setups = Vec::with_capacity(SETUPS);
    let mut benchmark = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = set_up(seed, origin, &log);
        setups.push(started.elapsed().as_secs_f64());
        benchmark = Some(built);
    }
    let benchmark = benchmark.expect("at least one set-up");

    // An untimed first pass fills lazily built state and fixes the
    // expected records; every timed pass must reproduce them.
    let expected = pass(&benchmark);
    let cache_before = benchmark.reference_cache().stats();
    log.on.store(true, Ordering::Relaxed);
    let mut pass_walls = Vec::new();
    let mut grid_windows = Vec::new();
    let mut llm_us = Vec::new();
    let mut mismatched_passes = 0;
    let timing = Instant::now();
    while pass_walls.is_empty() || timing.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        let records = pass(&benchmark);
        pass_walls.push(started.elapsed().as_secs_f64());
        if pass_walls.len() <= LOGGED_PASSES {
            let calls = std::mem::take(&mut *log.calls.lock().expect("call log poisoned"));
            llm_us.extend(calls.iter().map(|c| (c.2 - c.1) as f64 / 1e3));
            grid_windows.push(in_grid_latency_ms(&calls));
            if pass_walls.len() == LOGGED_PASSES {
                log.on.store(false, Ordering::Relaxed);
            }
        }
        if records != expected {
            mismatched_passes += 1;
        }
    }
    log.on.store(false, Ordering::Relaxed);
    let cache_after = benchmark.reference_cache().stats();

    let mut quiet = Tracer::new(false);
    let plain: Vec<Replay> = (0..REPLAYS)
        .map(|_| replay(&benchmark, seed, &mut quiet))
        .collect();
    let per_pass = expected.len();
    let mut outcome = Outcome::new(per_pass * pass_walls.len());
    let first_mismatch = plain.iter().find_map(|r| {
        (r.records.len() != per_pass)
            .then_some(r.records.len().min(per_pass))
            .or_else(|| r.records.iter().zip(&expected).position(|(a, b)| a != b))
    });
    if first_mismatch.is_some() {
        outcome.fail(format!(
            "grid and stage replay disagree at result {:?} of {per_pass}",
            first_mismatch
        ));
        outcome.failed = per_pass * pass_walls.len();
    }
    if mismatched_passes > 0 {
        outcome.fail(format!(
            "{mismatched_passes} timed passes changed their results"
        ));
        outcome.failed = outcome.failed.max(mismatched_passes * per_pass);
    }
    outcome.detail(
        "checksum",
        format!("\"{:016x}\"", stages::checksum(&expected)),
    );
    outcome.detail("results_per_pass", per_pass.to_string());
    outcome.detail("passes", pass_walls.len().to_string());
    outcome.detail("trials", TRIALS.to_string());

    let low: Vec<Vec<f64>> = plain.iter().map(|r| r.latency_ms.clone()).collect();
    let per_pass_rates: Vec<f64> = pass_walls.iter().map(|w| per_pass as f64 / w).collect();
    outcome.metric("setup_s", "s", stats::median(&setups));
    outcome.metric("results_per_s", "1/s", stats::median(&per_pass_rates));
    outcome.latency("low", &low)?;
    outcome.latency("high", &grid_windows)?;
    outcome.metric(
        "ok_ratio",
        "ratio",
        1.0 - outcome.failed as f64 / outcome.attempted as f64,
    );
    outcome.metric("peak_rss_mb", "MB", crate::host::peak_rss_mb("self")?);

    if traced {
        let mut tracer = Tracer::new(true);
        let traced_replay = replay(&benchmark, seed, &mut tracer);
        if traced_replay.records != expected {
            outcome.fail("traced replay changed the results".to_owned());
        }
        let llm_calls = llm_us.len() / grid_windows.len();
        let mut layers = LayerReport::from_spans(tracer.spans(), traced_replay.wall_s);
        layers.set("llm.calls", llm_calls as f64);
        layers.set("llm.complete_us", stats::median(&llm_us));
        let replay_wall = stats::median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        layers.set(
            "core.parallel_speedup",
            replay_wall / stats::median(&pass_walls),
        );
        let hits = cache_after.hits - cache_before.hits;
        let lookups = cache_after.lookups() - cache_before.lookups();
        layers.set("core.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
        layers.set(
            "core.exec_ref_runs",
            benchmark.execution_pipeline().cached_references() as f64,
        );
        layers.ladder(&traced_replay.ladders);
        layers.set("bench.lag_p99_ms", 0.0);
        layers.set(
            "bench.trace_overhead",
            traced_replay.wall_s / replay_wall - 1.0,
        );
        layers.check_sum(&mut outcome);
        outcome.layers = Some(layers);
        outcome.spans = tracer.spans().to_vec();
    }
    Ok(outcome)
}
