//! Shared helpers for the criterion benches and the `repro` binary.
//!
//! # The `BENCH_N.json` artifacts
//!
//! Seven machine-readable performance snapshots live at the repository
//! root. Each is written by one `repro` subcommand (listed in
//! [`ARTIFACTS`]) into the current directory, and every one is a
//! [`BenchReport`]:
//!
//! ```text
//! { bench_id, host: {cpus, profile}, config: {…}, counters: {…},
//!   timings: {…}, tiers: [{label, counters, timings}] }
//! ```
//!
//! * `bench_id` names the file (`"BENCH_3"` for `BENCH_3.json`).
//! * `host` is the machine it ran on: logical CPUs and the build profile.
//!   Timings from different hosts are not comparable.
//! * `config` holds the inputs of the measurement (trials, passes, seeds,
//!   client counts, bounds).
//! * `counters` holds only values that are a pure function of `config`:
//!   workload counts, cache hits and misses, outcome counts, mean scores
//!   and FNV-1a checksums. Two runs with equal `config` must produce equal
//!   `counters` on any host; CI fails when a regenerated file's counters
//!   differ from the committed file's.
//! * `timings` holds everything read off a clock: `wall_time_secs`, every
//!   `*_per_sec` rate, latency percentiles and speedups. Timings are
//!   evidence, not gates.
//! * `tiers` breaks a sweep into its points, each with its own counters
//!   and timings; it is empty for single-point measurements.
//!
//! | File | Subcommand | Workload | Counters |
//! |---|---|---|---|
//! | `BENCH_1.json` | `bench` | the three table experiments, scored | `grid_cells`, `scored_hypotheses`, `metric_evaluations`, `prepared_references` |
//! | `BENCH_2.json` | `bench-service` | score requests over loopback TCP | `requests`, `scored_hypotheses`, `cache_hits`, `cache_misses`, `cache_hit_rate` |
//! | `BENCH_3.json` | `bench-evaluate` | the three experiment grids through extraction, call comparison and BLEU/ChrF | `grid_cells`, `evaluations`, `hallucinated_calls`, `cache_hits`, `cache_misses`, `cache_hit_rate` |
//! | `BENCH_4.json` | `bench-execute` | the five-system execution grid, parsed and run | `grid_cells`, `executions`, `completed`, `unparsed`, `mean_runnability`, `mean_fidelity` |
//! | `BENCH_5.json` | `bench-scaling` | synthetic topologies on the runtime engine, one tier per shape and size | `total_tasks`, `total_messages`, `deterministic`, `checksum`; per tier `tasks`, `edges`, `published`, `received`, `checksum` |
//! | `BENCH_6.json` | `bench-connections` | closed-loop clients against the event-driven server, one tier per client count | `total_requests`, `total_hypotheses`, `summary_checksum`; per tier `clients`, `requests`, `hypotheses` |
//! | `BENCH_7.json` | `bench-parse` | wyaml over the 180-artifact configuration corpus: pre-rewrite baseline, owned and zero-copy parsers | `artifacts`, `total_bytes`, `parsed_ok`, `failure_categories` |
//!
//! `WFSPEAK_CONNECTIONS_MAX` bounds the client count of `bench-connections`
//! (it is recorded as `config.max_clients`). The files are regenerated only
//! on explicit request, because they hold run-dependent timings.

pub mod chaos;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use serde_json::Value;
use wfspeak_core::{Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant};
use wfspeak_service::{ScoreRequest, ScoringClient, ScoringServer, ServiceConfig, TaskKind};

/// The paper's full benchmark configuration (5 trials).
pub fn paper_benchmark() -> Benchmark {
    Benchmark::with_simulated_models(BenchmarkConfig::default())
}

/// A reduced configuration for criterion iterations (1 trial) so a bench
/// sample stays fast while still exercising the full pipeline.
pub fn bench_benchmark() -> Benchmark {
    Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 1,
        ..BenchmarkConfig::default()
    })
}

/// Named report values, serialised as a JSON object in key order.
pub type Fields = BTreeMap<String, Value>;

/// Build [`Fields`] from `"name": value` pairs of serialisable values.
macro_rules! fields {
    ($($name:literal: $value:expr),* $(,)?) => {
        Fields::from([$(($name.to_owned(), Serialize::serialize(&$value))),*])
    };
}

/// The machine a report was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Logical CPUs available to the measuring process.
    pub cpus: usize,
    /// Build profile of the measuring binary (`release` or `debug`).
    pub profile: String,
}

impl Host {
    /// The host this process runs on.
    fn current() -> Host {
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        }
    }
}

/// One point of a swept measurement (a topology, a client count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tier {
    /// What distinguishes this point from the others in the sweep.
    pub label: String,
    /// The point's deterministic values.
    pub counters: Fields,
    /// The point's clock readings.
    pub timings: Fields,
}

/// One `BENCH_N.json` artifact; see the crate docs for the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// The artifact's file stem (`BENCH_1` … `BENCH_7`).
    pub bench_id: String,
    /// The machine the report was measured on.
    pub host: Host,
    /// Inputs of the measurement.
    pub config: Fields,
    /// Values that are a pure function of `config`.
    pub counters: Fields,
    /// Values read off a clock.
    pub timings: Fields,
    /// Points of a sweep, in sweep order; empty otherwise.
    pub tiers: Vec<Tier>,
}

impl BenchReport {
    fn new(bench_id: &str, config: Fields, counters: Fields, timings: Fields) -> Self {
        BenchReport {
            bench_id: bench_id.to_owned(),
            host: Host::current(),
            config,
            counters,
            timings,
            tiers: Vec::new(),
        }
    }

    /// Pretty JSON for the artifact file.
    fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }

    /// One line of counters and timings, then one line per tier.
    fn summary(&self) -> String {
        let line = |counters: &Fields, timings: &Fields| {
            format!("{} | {}", render(counters), render(timings))
        };
        let mut summary = format!("{}: {}", self.bench_id, line(&self.counters, &self.timings));
        for tier in &self.tiers {
            summary += &format!(
                "\n  {}: {}",
                tier.label,
                line(&tier.counters, &tier.timings)
            );
        }
        summary
    }
}

/// `name=value` pairs, floats to four decimals.
fn render(fields: &Fields) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(name, value)| match value {
            Value::Float(f) => format!("{name}={f:.4}"),
            other => format!(
                "{name}={}",
                serde_json::to_string(other).unwrap_or_default()
            ),
        })
        .collect();
    pairs.join(" ")
}

/// An integer field of a report, `0` when absent.
fn count(fields: &Fields, name: &str) -> u64 {
    fields.get(name).and_then(Value::as_i64).unwrap_or(0) as u64
}

/// Print the report's summary and write its pretty JSON to `path`.
pub fn write_report(path: impl AsRef<Path>, report: &BenchReport) -> std::io::Result<()> {
    let path = path.as_ref();
    println!("{}", report.summary());
    std::fs::write(path, report.to_json() + "\n")?;
    println!("Wrote {}\n", path.display());
    Ok(())
}

/// An artifact as `(repro subcommand, file name, measurement at its
/// standard scale)`.
pub type Artifact = (&'static str, &'static str, fn() -> BenchReport);

/// Every artifact, in file order.
pub const ARTIFACTS: [Artifact; 7] = [
    ("bench", "BENCH_1.json", measure_grid_throughput),
    ("bench-service", "BENCH_2.json", || {
        measure_service_throughput(4, 64, 8)
    }),
    ("bench-evaluate", "BENCH_3.json", || {
        measure_evaluation_throughput(3)
    }),
    ("bench-execute", "BENCH_4.json", || {
        measure_execution_throughput(3)
    }),
    ("bench-scaling", "BENCH_5.json", || {
        measure_runtime_scaling(usize::MAX, 42)
    }),
    ("bench-connections", "BENCH_6.json", || {
        measure_connection_scaling(connections_max(), 4096, 4, Duration::from_millis(2))
    }),
    ("bench-parse", "BENCH_7.json", || {
        measure_parse_throughput(400)
    }),
];

/// Cells across the three table experiments.
fn experiment_cells(benchmark: &Benchmark) -> usize {
    ExperimentKind::ALL
        .iter()
        .map(|&kind| benchmark.grid_cells(kind))
        .sum()
}

/// Run the three table experiments end-to-end (prompt assembly → simulated
/// models → extraction → scoring → aggregation) on a fresh benchmark and
/// measure grid throughput (`BENCH_1`).
pub fn measure_grid_throughput() -> BenchReport {
    let benchmark = paper_benchmark();
    let trials = benchmark.config().trials;
    let grid_cells = experiment_cells(&benchmark);

    let start = Instant::now();
    for kind in ExperimentKind::ALL {
        let result = benchmark.run_experiment(kind, PromptVariant::Original);
        std::hint::black_box(&result);
    }
    let wall = start.elapsed().as_secs_f64();

    let scored_hypotheses = grid_cells * trials;
    let metric_evaluations = scored_hypotheses * 2;
    BenchReport::new(
        "BENCH_1",
        fields! { "trials": trials },
        fields! {
            "grid_cells": grid_cells,
            "scored_hypotheses": scored_hypotheses,
            "metric_evaluations": metric_evaluations,
            "prepared_references": benchmark.reference_cache().len(),
        },
        fields! {
            "wall_time_secs": wall,
            "cells_per_sec": grid_cells as f64 / wall,
            "metric_evals_per_sec": metric_evaluations as f64 / wall,
        },
    )
}

/// Run `passes` full passes of the three experiment grids through the
/// evaluation pipeline (extraction → API-call comparison → BLEU/ChrF) on a
/// fresh benchmark and measure end-to-end evaluation throughput
/// (`BENCH_3`).
///
/// Every pass shares one [`wfspeak_core::ReferenceCache`]; the first pass
/// prepares each distinct reference once, later passes only hit.
pub fn measure_evaluation_throughput(passes: usize) -> BenchReport {
    let benchmark = paper_benchmark();
    let trials = benchmark.config().trials;
    let cells_per_pass = experiment_cells(&benchmark);

    let start = Instant::now();
    let mut hallucinated_calls = 0usize;
    let mut evaluations = 0usize;
    for _ in 0..passes {
        for kind in ExperimentKind::ALL {
            let grid = benchmark.run_evaluation(kind, PromptVariant::Original);
            evaluations += grid.total_evaluations();
            hallucinated_calls += grid.hallucinated_calls();
            std::hint::black_box(&grid);
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let cache = benchmark.reference_cache().stats();
    BenchReport::new(
        "BENCH_3",
        fields! { "trials": trials, "passes": passes },
        fields! {
            "grid_cells": cells_per_pass * passes,
            "evaluations": evaluations,
            "hallucinated_calls": hallucinated_calls,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_hit_rate": cache.hit_rate(),
        },
        fields! {
            "wall_time_secs": wall,
            "evaluations_per_sec": evaluations as f64 / wall,
        },
    )
}

/// Run `passes` full passes of the five-system execution grid through
/// dynamic execution (every generated artifact parsed and run on the
/// runtime engine) on a fresh benchmark and measure end-to-end execution
/// throughput (`BENCH_4`).
///
/// Every pass shares the benchmark's [`wfspeak_core::ExecutionPipeline`],
/// so each system's reference run happens exactly once.
pub fn measure_execution_throughput(passes: usize) -> BenchReport {
    let benchmark = paper_benchmark();
    let trials = benchmark.config().trials;

    let start = Instant::now();
    let mut executions = 0usize;
    let mut completed = 0usize;
    let mut unparsed = 0usize;
    let mut runnability_sum = 0.0f64;
    let mut fidelity_sum = 0.0f64;
    let mut grid_cells = 0usize;
    for _ in 0..passes {
        let grid = benchmark.run_execution(PromptVariant::Original);
        grid_cells += grid.cells.len();
        executions += grid.total_executions();
        completed += grid.completed_executions();
        unparsed += grid
            .cells
            .iter()
            .map(|c| c.unparsed_trials())
            .sum::<usize>();
        runnability_sum += grid.mean_runnability() * grid.total_executions() as f64;
        fidelity_sum += grid.mean_fidelity() * grid.total_executions() as f64;
        std::hint::black_box(&grid);
    }
    let wall = start.elapsed().as_secs_f64();

    BenchReport::new(
        "BENCH_4",
        fields! { "trials": trials, "passes": passes },
        fields! {
            "grid_cells": grid_cells,
            "executions": executions,
            "completed": completed,
            "unparsed": unparsed,
            "mean_runnability": runnability_sum / executions.max(1) as f64,
            "mean_fidelity": fidelity_sum / executions.max(1) as f64,
        },
        fields! {
            "wall_time_secs": wall,
            "executions_per_sec": executions as f64 / wall,
        },
    )
}

/// Measure wyaml parse throughput over the generated configuration corpus
/// ([`wfspeak_core::Benchmark::configuration_corpus`]): `passes` timed
/// passes each for the pre-rewrite baseline parser, the rewritten owned
/// entry point and the borrowed zero-copy entry point, plus one untimed
/// pass that counts accepted artifacts and rejections per `ErrorKind` code
/// (`BENCH_7`).
pub fn measure_parse_throughput(passes: usize) -> BenchReport {
    use wfspeak_wyaml::{baseline, parse, parse_document};

    let corpus = paper_benchmark().configuration_corpus();
    let artifacts = corpus.len();
    let total_bytes: usize = corpus.iter().map(String::len).sum();

    // Checksum pass: outcome of the rewritten parser over the corpus.
    let mut parsed_ok = 0usize;
    let mut failure_categories: BTreeMap<String, usize> = BTreeMap::new();
    for doc in &corpus {
        match parse(doc) {
            Ok(_) => parsed_ok += 1,
            Err(e) => {
                *failure_categories
                    .entry(e.kind.code().to_owned())
                    .or_default() += 1
            }
        }
    }

    // The three parsers are timed in interleaved passes (baseline, owned,
    // zero-copy, repeat) so clock-frequency drift over the measurement
    // cannot systematically favour one of them.
    let time_pass = |parse_one: &dyn Fn(&str)| {
        let start = Instant::now();
        for doc in &corpus {
            parse_one(doc);
        }
        start.elapsed().as_secs_f64()
    };
    let mut baseline_wall = 0.0f64;
    let mut owned_wall = 0.0f64;
    let mut zero_copy_wall = 0.0f64;
    for _ in 0..passes {
        baseline_wall += time_pass(&|doc| {
            std::hint::black_box(baseline::parse(doc).is_ok());
        });
        owned_wall += time_pass(&|doc| {
            std::hint::black_box(parse(doc).is_ok());
        });
        zero_copy_wall += time_pass(&|doc| {
            std::hint::black_box(parse_document(doc).is_ok());
        });
    }

    let parses = (artifacts * passes) as f64;
    BenchReport::new(
        "BENCH_7",
        fields! { "passes": passes },
        fields! {
            "artifacts": artifacts,
            "total_bytes": total_bytes,
            "parsed_ok": parsed_ok,
            "failure_categories": failure_categories,
        },
        fields! {
            "baseline_wall_time_secs": baseline_wall,
            "baseline_parses_per_sec": parses / baseline_wall,
            "owned_wall_time_secs": owned_wall,
            "owned_parses_per_sec": parses / owned_wall,
            "zero_copy_wall_time_secs": zero_copy_wall,
            "zero_copy_parses_per_sec": parses / zero_copy_wall,
            "zero_copy_mb_per_sec": (total_bytes * passes) as f64 / zero_copy_wall / 1e6,
            "speedup_owned_vs_baseline": baseline_wall / owned_wall,
            "speedup_zero_copy_vs_baseline": baseline_wall / zero_copy_wall,
        },
    )
}

/// FNV-1a offset basis: the starting state of every checksum fold.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte slice, seeded with `hash` (chainable).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Fold a [`wfspeak_runtime::TraceSummary`] into a stable u64: every map is
/// ordered (`BTreeMap`), so the fold is a pure function of the counts.
fn summary_checksum(summary: &wfspeak_runtime::TraceSummary) -> u64 {
    let mut hash = FNV_OFFSET;
    for (label, count) in &summary.events {
        hash = fnv1a(hash, label.as_bytes());
        hash = fnv1a(hash, &(*count as u64).to_le_bytes());
    }
    for map in [&summary.published, &summary.received] {
        for (dataset, count) in map {
            hash = fnv1a(hash, dataset.as_bytes());
            hash = fnv1a(hash, &(*count as u64).to_le_bytes());
        }
    }
    for map in [
        &summary.tasks_started,
        &summary.tasks_finished,
        &summary.tasks_failed,
    ] {
        for (task, count) in map {
            hash = fnv1a(hash, task.as_bytes());
            hash = fnv1a(hash, &(*count as u64).to_le_bytes());
        }
    }
    hash
}

/// Run the synthetic-topology suite (every acyclic shape at every
/// [`wfspeak_systems::topo::BENCH_SIZES`] tier up to `max_tasks`) through
/// validate → normalize → engine → [`wfspeak_runtime::TraceSummary`], each
/// tier twice, and report per-tier throughput plus determinism checksums
/// (`BENCH_5`). A tier's `checksum` is an FNV-1a fold of its summary as a
/// `0x`-prefixed hex string (JSON numbers would lose the top bit); the
/// report's `checksum` folds the tier checksums in order, and
/// `deterministic` says both runs of every tier summarised identically.
///
/// Panics if a generated spec fails validation or an engine run errors —
/// the suite is the engine's own test corpus, so either is a bug, not a
/// measurement.
pub fn measure_runtime_scaling(max_tasks: usize, seed: u64) -> BenchReport {
    use wfspeak_runtime::{Engine, EngineConfig};
    use wfspeak_systems::topo::bench_suite;

    let engine_config = EngineConfig {
        elements: 16,
        seed,
        ..EngineConfig::default()
    };
    let config = fields! {
        "seed": seed,
        "timesteps": engine_config.timesteps,
        "elements": engine_config.elements,
        "max_tasks": (max_tasks != usize::MAX).then_some(max_tasks),
    };
    let engine = Engine::new(engine_config);

    let start = Instant::now();
    let mut tiers = Vec::new();
    let mut deterministic = true;
    let mut checksum = FNV_OFFSET;
    let mut total_tasks = 0usize;
    let mut total_messages = 0usize;
    let mut measured_wall = 0.0f64;

    for topo in bench_suite(seed) {
        if topo.tasks > max_tasks {
            continue;
        }
        let spec = topo.generate();
        assert!(
            spec.is_structurally_valid(),
            "{}: generated spec failed validation",
            topo.name()
        );
        let spec = spec.normalized();

        let tier_start = Instant::now();
        let outcome = engine
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e}", topo.name()));
        let tier_wall = tier_start.elapsed().as_secs_f64();
        assert!(outcome.completed, "{}: run did not complete", topo.name());
        let summary = outcome.summary();

        // Determinism recheck: a second run must summarise bit-identically.
        let recheck = engine
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: recheck run failed: {e}", topo.name()))
            .summary();
        deterministic &= summary == recheck && (summary.fidelity(&recheck) - 1.0).abs() < 1e-12;

        let published = summary.total_published();
        let received = summary.total_received();
        let messages = published + received;
        let tier_checksum = summary_checksum(&summary);
        checksum = fnv1a(checksum, &tier_checksum.to_le_bytes());
        total_tasks += spec.tasks.len();
        total_messages += messages;
        measured_wall += tier_wall;
        tiers.push(Tier {
            label: topo.name(),
            counters: fields! {
                "tasks": spec.tasks.len(),
                "edges": spec.edges().len(),
                "published": published,
                "received": received,
                "checksum": format!("{tier_checksum:#018x}"),
            },
            timings: fields! {
                "wall_time_secs": tier_wall,
                "tasks_per_sec": spec.tasks.len() as f64 / tier_wall,
                "messages_per_sec": messages as f64 / tier_wall,
            },
        });
    }

    BenchReport {
        tiers,
        ..BenchReport::new(
            "BENCH_5",
            config,
            fields! {
                "total_tasks": total_tasks,
                "total_messages": total_messages,
                "deterministic": deterministic,
                "checksum": format!("{checksum:#018x}"),
            },
            fields! {
                "wall_time_secs": start.elapsed().as_secs_f64(),
                "tasks_per_sec": total_tasks as f64 / measured_wall.max(f64::MIN_POSITIVE),
            },
        )
    }
}

/// The built-in references the service bench cycles through: every
/// task/system address the corpus can resolve (3 configuration, 4
/// annotation, 4 translation targets), with the reference text alongside
/// for client-side hypothesis generation.
fn service_workload_addresses() -> Vec<(TaskKind, &'static str, &'static str)> {
    use wfspeak_corpus::references::{annotation_reference, configuration_reference};
    use wfspeak_corpus::WorkflowSystemId;
    let mut addresses = Vec::new();
    for system in WorkflowSystemId::configuration_systems() {
        let reference = configuration_reference(system).expect("configuration reference");
        addresses.push((TaskKind::Configuration, system.name(), reference));
    }
    for system in WorkflowSystemId::annotation_systems() {
        let reference = annotation_reference(system).expect("annotation reference");
        addresses.push((TaskKind::Annotation, system.name(), reference));
        // Translation targets share the annotation references.
        addresses.push((TaskKind::Translation, system.name(), reference));
    }
    addresses
}

/// Deterministic hypothesis batch for one request: mutations of the
/// reference with varied quality, stamped with the request index so
/// repeated requests are not byte-identical.
fn service_hypotheses(reference: &str, request_index: usize, batch_size: usize) -> Vec<String> {
    (0..batch_size)
        .map(|i| match i % 4 {
            0 => reference.to_owned(),
            1 => reference.chars().take(reference.len() / 2).collect(),
            2 => format!("{reference}\nextra_line_{request_index}"),
            _ => format!("unrelated hypothesis {request_index} {i}"),
        })
        .collect()
}

/// Boot a scoring server on an ephemeral loopback port, drive it from
/// `clients` concurrent connections sending `requests_per_client` pipelined
/// batches of `batch_size` hypotheses each, and report throughput plus the
/// shared cache's hit rate (`BENCH_2`).
pub fn measure_service_throughput(
    clients: usize,
    requests_per_client: usize,
    batch_size: usize,
) -> BenchReport {
    // Pipelining window per client: enough to keep the worker pool busy
    // without the client-side send path outrunning its own reads.
    const WINDOW: usize = 16;

    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default())
        .expect("loopback bind cannot fail");
    let addr = server.addr();
    let addresses = service_workload_addresses();

    let start = Instant::now();
    std::thread::scope(|scope| {
        let addresses = &addresses;
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client =
                        ScoringClient::connect(addr).expect("loopback connect cannot fail");
                    let mut in_flight = 0usize;
                    for request_index in 0..requests_per_client {
                        let (task, system, reference) =
                            addresses[(client_index + request_index) % addresses.len()];
                        let request = ScoreRequest::by_id(
                            client.fresh_id(),
                            task,
                            system,
                            service_hypotheses(reference, request_index, batch_size),
                        );
                        client.send(&request).expect("send over loopback");
                        in_flight += 1;
                        if in_flight >= WINDOW {
                            let response = client.recv().expect("recv over loopback");
                            assert!(response.ok, "bench request failed: {:?}", response.error);
                            in_flight -= 1;
                        }
                    }
                    for response in client.collect(in_flight).expect("drain responses") {
                        assert!(response.ok, "bench request failed: {:?}", response.error);
                    }
                    client.close();
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("bench client panicked");
        }
    });
    let wall = start.elapsed().as_secs_f64();

    let stats = server.stats();
    server.shutdown();

    let requests = clients * requests_per_client;
    assert_eq!(
        stats.requests, requests as u64,
        "server counted every batch"
    );
    BenchReport::new(
        "BENCH_2",
        fields! {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "batch_size": batch_size,
        },
        fields! {
            "requests": requests,
            "scored_hypotheses": stats.hypotheses,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_hit_rate": stats.cache_hit_rate(),
        },
        fields! {
            "wall_time_secs": wall,
            "requests_per_sec": requests as f64 / wall,
            "hypotheses_per_sec": stats.hypotheses as f64 / wall,
        },
    )
}

/// The full-sweep client tiers for the connection bench.
pub const CONNECTION_TIERS: [usize; 3] = [4, 256, 1024];

/// The client-count bound the connection bench honours:
/// `WFSPEAK_CONNECTIONS_MAX` (used by the CI smoke to stop at 64 clients),
/// unbounded by default.
pub fn connections_max() -> usize {
    std::env::var("WFSPEAK_CONNECTIONS_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Drive one server with `clients` concurrent closed-loop connections
/// (connect, barrier, then send→recv→think loops) until `total_requests`
/// complete, and return the tier's counters, rates and server-side latency
/// percentiles. One fresh server per tier keeps the latency histogram
/// scoped to the tier.
fn measure_connection_tier(
    clients: usize,
    total_requests: usize,
    batch_size: usize,
    think_time: Duration,
) -> Tier {
    use std::sync::Barrier;

    // The bench measures the event loop and worker pool, not admission
    // shedding: size the queue to the client count so a closed-loop
    // request never parks, and keep the admission timeout generous in
    // case it ever does.
    let config = ServiceConfig {
        queue_depth: clients.max(256),
        admission_timeout: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let server = ScoringServer::spawn("127.0.0.1:0", config).expect("loopback bind cannot fail");
    let addr = server.addr();
    let reference = wfspeak_corpus::references::configuration_reference(
        wfspeak_corpus::WorkflowSystemId::Wilkins,
    )
    .expect("configuration reference");
    let requests_per_client = (total_requests / clients).max(1);
    let requests = requests_per_client * clients;

    // All clients connect before any sends: the measured window is pure
    // request traffic, not connection setup.
    let barrier = Barrier::new(clients + 1);
    let start = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client =
                        ScoringClient::connect(addr).expect("loopback connect cannot fail");
                    barrier.wait();
                    for request_index in 0..requests_per_client {
                        let hypotheses = (0..batch_size)
                            .map(|i| {
                                format!("workflow step {i} of request {request_index} from client {client_index}")
                            })
                            .collect();
                        let request =
                            ScoreRequest::by_text(client.fresh_id(), reference, hypotheses);
                        client.send(&request).expect("send over loopback");
                        let response = client.recv().expect("recv over loopback");
                        assert!(response.ok, "bench request failed: {:?}", response.error);
                        // Closed-loop think time: the connection sits idle
                        // (but open) between requests, so aggregate
                        // throughput scales with the number of connections
                        // the event loop can hold until the worker pool
                        // saturates.
                        if !think_time.is_zero() && request_index + 1 < requests_per_client {
                            std::thread::sleep(think_time);
                        }
                    }
                    client.close();
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            handle.join().expect("bench client panicked");
        }
        start
    });
    let wall = start.elapsed().as_secs_f64();

    let stats = server.stats();
    server.shutdown();
    assert_eq!(
        stats.requests, requests as u64,
        "server counted every request"
    );
    assert_eq!(
        stats.latency_samples, requests as u64,
        "every request recorded a latency sample"
    );
    Tier {
        label: format!("{clients} clients"),
        counters: fields! {
            "clients": clients,
            "requests": requests,
            "hypotheses": stats.hypotheses,
        },
        // Server-side admission→reply percentiles, in microseconds (the
        // upper bound of a power-of-two histogram bucket).
        timings: fields! {
            "wall_time_secs": wall,
            "requests_per_sec": requests as f64 / wall,
            "hypotheses_per_sec": stats.hypotheses as f64 / wall,
            "latency_p50_us": stats.latency_p50_us,
            "latency_p95_us": stats.latency_p95_us,
            "latency_p99_us": stats.latency_p99_us,
        },
    }
}

/// The client tiers a sweep bounded at `max_clients` actually runs: the
/// sweep points of [`CONNECTION_TIERS`] up to the bound, with the bound
/// itself appended as a final tier when it falls between sweep points (so
/// a CI cap of 64 still measures a >4-client tier), and the bound alone
/// when it sits below the smallest sweep point.
pub fn connection_tiers_for(max_clients: usize) -> Vec<usize> {
    let mut tiers: Vec<usize> = CONNECTION_TIERS
        .iter()
        .copied()
        .filter(|&clients| clients <= max_clients)
        .collect();
    if tiers.last() != Some(&max_clients)
        && max_clients > CONNECTION_TIERS[0]
        && max_clients < *CONNECTION_TIERS.last().expect("tiers nonempty")
    {
        tiers.push(max_clients);
    }
    if tiers.is_empty() {
        tiers.push(max_clients.max(1));
    }
    tiers
}

/// Run the connection-scaling sweep (`BENCH_6`): the tiers of
/// [`connection_tiers_for`], each pushing `total_requests` requests of
/// `batch_size` hypotheses through a fresh event-driven server, with
/// `think_time` between a client's requests. `summary_checksum` folds the
/// tiers' counters (never the timings), so two runs of the same
/// configuration match.
pub fn measure_connection_scaling(
    max_clients: usize,
    total_requests: usize,
    batch_size: usize,
    think_time: Duration,
) -> BenchReport {
    let start = Instant::now();
    let tiers: Vec<Tier> = connection_tiers_for(max_clients)
        .into_iter()
        .map(|clients| measure_connection_tier(clients, total_requests, batch_size, think_time))
        .collect();

    let mut checksum = FNV_OFFSET;
    for tier in &tiers {
        for name in ["clients", "requests", "hypotheses"] {
            checksum = fnv1a(checksum, &count(&tier.counters, name).to_le_bytes());
        }
    }
    let total = |name| tiers.iter().map(|t| count(&t.counters, name)).sum::<u64>();
    let counters = fields! {
        "total_requests": total("requests"),
        "total_hypotheses": total("hypotheses"),
        "summary_checksum": format!("{checksum:#018x}"),
    };
    BenchReport {
        tiers,
        ..BenchReport::new(
            "BENCH_6",
            fields! {
                "max_clients": (max_clients != usize::MAX).then_some(max_clients),
                "requests_per_tier": total_requests,
                "batch_size": batch_size,
                "think_time_ms": think_time.as_millis() as u64,
            },
            counters,
            fields! { "wall_time_secs": start.elapsed().as_secs_f64() },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An integer counter of `report`, panicking when it is missing.
    fn counter(report: &BenchReport, name: &str) -> u64 {
        report.counters[name]
            .as_i64()
            .unwrap_or_else(|| panic!("{}: no integer counter {name}", report.bench_id))
            as u64
    }

    /// A float field, panicking when it is missing.
    fn float(fields: &Fields, name: &str) -> f64 {
        fields[name].as_f64().expect(name)
    }

    #[test]
    fn helpers_build_benchmarks_with_expected_trial_counts() {
        assert_eq!(paper_benchmark().config().trials, 5);
        assert_eq!(bench_benchmark().config().trials, 1);
    }

    #[test]
    fn service_throughput_report_is_consistent() {
        // Small scale so the test stays fast; the real bench uses more.
        let report = measure_service_throughput(2, 12, 4);
        assert_eq!(counter(&report, "requests"), 24);
        assert_eq!(counter(&report, "scored_hypotheses"), 24 * 4);
        // 11 addresses resolve to 7 distinct reference texts (translation
        // targets share the annotation references), and the cache is keyed
        // by text; every later lookup hits.
        assert_eq!(counter(&report, "cache_misses"), 7);
        assert_eq!(counter(&report, "cache_hits"), 24 - 7);
        assert!(float(&report.counters, "cache_hit_rate") > 0.5);
        assert!(float(&report.timings, "wall_time_secs") > 0.0);
        assert!(float(&report.timings, "hypotheses_per_sec") > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_2\""));
        assert!(json.contains("hypotheses_per_sec"));
    }

    #[test]
    fn connection_scaling_report_is_consistent() {
        // Tiny sweep: a 2-client cap falls below every sweep point, so the
        // bench runs a single 2-client tier.
        let report = measure_connection_scaling(2, 8, 2, Duration::ZERO);
        assert_eq!(report.bench_id, "BENCH_6");
        assert_eq!(report.config["max_clients"], Value::Int(2));
        assert_eq!(report.tiers.len(), 1);
        let tier = &report.tiers[0];
        assert_eq!(count(&tier.counters, "clients"), 2);
        assert_eq!(count(&tier.counters, "requests"), 8);
        assert_eq!(count(&tier.counters, "hypotheses"), 16);
        assert_eq!(counter(&report, "total_requests"), 8);
        assert_eq!(counter(&report, "total_hypotheses"), 16);
        // Latency percentiles come from the power-of-two histogram: with
        // samples recorded they are nonzero bucket bounds and monotone.
        let [p50, p95, p99] =
            ["latency_p50_us", "latency_p95_us", "latency_p99_us"].map(|p| count(&tier.timings, p));
        assert!(p50 >= 1);
        assert!(p50 <= p95);
        assert!(p95 <= p99);
        assert!(float(&tier.timings, "wall_time_secs") > 0.0);
        assert!(float(&tier.timings, "requests_per_sec") > 0.0);
        // The checksum folds only workload counters, so a re-run of the
        // same configuration matches bit for bit.
        let rerun = measure_connection_scaling(2, 8, 2, Duration::ZERO);
        assert_eq!(
            report.counters["summary_checksum"],
            rerun.counters["summary_checksum"]
        );
        assert_eq!(report.counters, rerun.counters);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_6\""));
        assert!(json.contains("latency_p99_us"));
        assert!(json.contains("summary_checksum"));
    }

    #[test]
    fn connection_tier_selection_honours_the_cap() {
        // Full sweep when unbounded; cut-and-append when capped between
        // sweep points; smallest tier only when capped below it.
        assert_eq!(connection_tiers_for(usize::MAX), vec![4, 256, 1024]);
        assert_eq!(connection_tiers_for(1024), vec![4, 256, 1024]);
        assert_eq!(connection_tiers_for(512), vec![4, 256, 512]);
        assert_eq!(connection_tiers_for(64), vec![4, 64]);
        assert_eq!(connection_tiers_for(4), vec![4]);
        assert_eq!(connection_tiers_for(2), vec![2]);
    }

    #[test]
    fn evaluation_throughput_report_is_consistent() {
        let report = measure_evaluation_throughput(2);
        assert_eq!(report.config["passes"], Value::Int(2));
        let trials = count(&report.config, "trials");
        // 3 config systems + 4 annotation systems + 4 translation pairs,
        // each × 4 models, per pass.
        assert_eq!(counter(&report, "grid_cells"), (3 + 4 + 4) * 4 * 2);
        assert_eq!(
            counter(&report, "evaluations"),
            counter(&report, "grid_cells") * trials
        );
        // 11 grid rows per pass resolve to 7 distinct reference texts
        // (translation targets share the annotation references); the first
        // pass prepares each once, everything later hits.
        assert_eq!(counter(&report, "cache_misses"), 7);
        assert_eq!(counter(&report, "cache_hits"), 4 + 11);
        assert!(float(&report.counters, "cache_hit_rate") > 0.5);
        assert!(float(&report.timings, "evaluations_per_sec") > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_3\""));
        assert!(json.contains("evaluations_per_sec"));
    }

    #[test]
    fn execution_throughput_report_is_consistent() {
        let report = measure_execution_throughput(2);
        assert_eq!(report.config["passes"], Value::Int(2));
        let trials = count(&report.config, "trials");
        // 5 execution systems × 4 models, per pass.
        assert_eq!(counter(&report, "grid_cells"), 5 * 4 * 2);
        let executions = counter(&report, "executions");
        assert_eq!(executions, counter(&report, "grid_cells") * trials);
        let completed = counter(&report, "completed");
        let unparsed = counter(&report, "unparsed");
        assert!(completed > 0, "exact-tier artifacts must complete");
        assert!(unparsed > 0, "wrong-tier artifacts must fail parse");
        assert!(completed + unparsed <= executions);
        let runnability = float(&report.counters, "mean_runnability");
        let fidelity = float(&report.counters, "mean_fidelity");
        assert!(runnability > 0.0 && runnability < 100.0);
        assert!(fidelity > 0.0 && fidelity < 100.0);
        assert!(float(&report.timings, "executions_per_sec") > 0.0);
        // The checksums are deterministic for a fixed seed.
        let again = measure_execution_throughput(2);
        assert_eq!(report.counters, again.counters);
        assert_eq!(
            runnability.to_bits(),
            float(&again.counters, "mean_runnability").to_bits()
        );
        assert_eq!(
            fidelity.to_bits(),
            float(&again.counters, "mean_fidelity").to_bits()
        );
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_4\""));
        assert!(json.contains("executions_per_sec"));
    }

    #[test]
    fn parse_throughput_report_is_consistent() {
        let report = measure_parse_throughput(2);
        assert_eq!(report.config["passes"], Value::Int(2));
        // 3 configuration systems × 4 models × 5 trials × 3 prompt
        // variants: the corpus the acceptance criterion pins.
        assert_eq!(counter(&report, "artifacts"), 180);
        assert!(counter(&report, "total_bytes") > 0);
        // Exact-tier Wilkins/ADIOS2 output parses; Henson scripts and
        // degraded tiers populate the failure categories.
        let parsed_ok = counter(&report, "parsed_ok");
        assert!(parsed_ok > 0, "well-formed artifacts must parse");
        let categories = report.counters["failure_categories"]
            .as_object_view()
            .expect("failure categories are an object");
        assert!(
            !categories.is_empty(),
            "degraded artifacts must populate failure categories"
        );
        let failed: u64 = categories
            .iter()
            .map(|(_, n)| n.as_i64().unwrap() as u64)
            .sum();
        assert_eq!(parsed_ok + failed, counter(&report, "artifacts"));
        for parser in ["baseline", "owned", "zero_copy"] {
            assert!(float(&report.timings, &format!("{parser}_parses_per_sec")) > 0.0);
        }
        // The outcome checksums are deterministic for a fixed seed.
        let again = measure_parse_throughput(2);
        assert_eq!(report.counters, again.counters);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_7\""));
        assert!(json.contains("speedup_zero_copy_vs_baseline"));
        assert!(json.contains("failure_categories"));
    }

    #[test]
    fn grid_throughput_report_is_consistent() {
        let report = measure_grid_throughput();
        // 3 config systems + 4 annotation systems + 4 translation pairs,
        // each × 4 models.
        assert_eq!(counter(&report, "grid_cells"), (3 + 4 + 4) * 4);
        assert_eq!(
            counter(&report, "scored_hypotheses"),
            counter(&report, "grid_cells") * count(&report.config, "trials")
        );
        assert_eq!(
            counter(&report, "metric_evaluations"),
            counter(&report, "scored_hypotheses") * 2
        );
        assert!(counter(&report, "prepared_references") >= 3);
        assert!(float(&report.timings, "wall_time_secs") > 0.0);
        assert!(float(&report.timings, "cells_per_sec") > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_1\""));
        assert!(json.contains("cells_per_sec"));
    }

    #[test]
    fn runtime_scaling_report_is_deterministic_at_the_smoke_tier() {
        let report = measure_runtime_scaling(100, 42);
        // 2 sizes (10, 100) × 4 acyclic shapes.
        assert_eq!(report.tiers.len(), 8);
        assert_eq!(report.config["max_tasks"], Value::Int(100));
        assert_eq!(
            report.counters["deterministic"],
            Value::Bool(true),
            "summaries must match across repeat runs"
        );
        assert!(counter(&report, "total_tasks") > 0 && counter(&report, "total_messages") > 0);
        assert!(float(&report.timings, "wall_time_secs") > 0.0);
        assert!(float(&report.timings, "tasks_per_sec") > 0.0);
        for tier in &report.tiers {
            assert!(count(&tier.counters, "tasks") <= 100);
            assert!(count(&tier.counters, "published") > 0);
            assert!(count(&tier.counters, "received") > 0);
            assert!(float(&tier.timings, "messages_per_sec") > 0.0);
        }
        // The checksum is a pure fold over trace summaries, so a rerun with
        // the same seed reproduces it (and every tier counter) bit for bit.
        let again = measure_runtime_scaling(100, 42);
        assert_eq!(report.counters["checksum"], again.counters["checksum"]);
        let tier_counters = |r: &BenchReport| -> Vec<Fields> {
            r.tiers.iter().map(|t| t.counters.clone()).collect()
        };
        assert_eq!(tier_counters(&report), tier_counters(&again));
        assert!(report.counters["checksum"]
            .as_str()
            .is_some_and(|c| c.starts_with("0x")));
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_5\""));
        assert!(json.contains("messages_per_sec"));
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = measure_connection_scaling(2, 4, 1, Duration::ZERO);
        let parsed: BenchReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert!(report.host.cpus >= 1);
        let summary = report.summary();
        assert!(summary.starts_with("BENCH_6: summary_checksum=\"0x"));
        assert!(summary.contains("\n  2 clients: clients=2 hypotheses=4 requests=4 | "));
    }

    #[test]
    fn writing_into_a_missing_directory_fails() {
        let report = BenchReport::new("BENCH_0", Fields::new(), Fields::new(), Fields::new());
        let dir = std::env::temp_dir().join(format!("wfspeak-missing-{}", std::process::id()));
        assert!(!dir.exists());
        assert!(write_report(dir.join("BENCH_6.json"), &report).is_err());
    }

    #[test]
    fn committed_artifacts_follow_the_schema() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(stem) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
            else {
                continue;
            };
            let text = std::fs::read_to_string(root.join(&name)).unwrap();
            let report: BenchReport = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} does not parse as a BenchReport: {e}"));
            assert_eq!(report.bench_id, format!("BENCH_{stem}"), "{name}");
            assert!(report.host.cpus >= 1, "{name}: host.cpus");
            assert!(!report.counters.is_empty(), "{name}: no counters");
            seen.push(name);
        }
        seen.sort();
        let expected: Vec<&str> = ARTIFACTS.iter().map(|(_, file, _)| *file).collect();
        assert_eq!(seen, expected, "one committed file per artifact");
    }
}
