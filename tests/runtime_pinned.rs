//! Pins the runtime engine's exact outputs: the [`TraceSummary`] and the
//! per-consumer sums (as `f64` bit patterns) of fixed workflows, of two
//! injected-failure runs, and of every synthetic topology tier the scaling
//! bench runs.  The tier summaries fold to the checksums committed in
//! `BENCH_5.json`.
//!
//! Any engine rewrite must leave every line here unchanged: a run's
//! results are a function of the spec and the configuration only, never of
//! how the engine schedules its tasks.

use std::collections::BTreeMap;

use wfspeak_runtime::{Engine, EngineConfig, RunOutcome, TraceSummary};
use wfspeak_systems::topo::bench_suite;
use wfspeak_systems::{TaskSpec, WorkflowSpec};

/// Everything a run's score can depend on, as comparable text: completion,
/// failed tasks, the trace summary and every consumer sum's bits.
fn fingerprint(outcome: &RunOutcome) -> String {
    let mut failed = outcome.failed_tasks.clone();
    failed.sort();
    let sums: BTreeMap<&String, Vec<String>> = outcome
        .consumer_sums
        .iter()
        .map(|(task, sums)| {
            let bits = sums.iter().map(|s| format!("{:016x}", s.to_bits()));
            (task, bits.collect())
        })
        .collect();
    format!(
        "completed={} failed={failed:?}\n{:?}\n{sums:?}",
        outcome.completed,
        outcome.summary()
    )
}

fn run(spec: &WorkflowSpec, config: EngineConfig) -> RunOutcome {
    Engine::new(config).run(spec).expect("spec is valid")
}

fn failing(task: &str) -> EngineConfig {
    EngineConfig {
        fail_task: Some(task.to_owned()),
        ..EngineConfig::default()
    }
}

fn chain3() -> WorkflowSpec {
    WorkflowSpec::new("chain3")
        .with_task(TaskSpec::new("producer", 1).produces("raw"))
        .with_task(TaskSpec::new("relay", 1).consumes("raw").produces("cooked"))
        .with_task(TaskSpec::new("sink", 1).consumes("cooked"))
}

const PAPER_3NODE: &str = r#"completed=true failed=[]
TraceSummary { events: {"data-published": 6, "data-received": 6, "task-finished": 3, "task-started": 3}, published: {"grid": 3, "particles": 3}, received: {"grid": 3, "particles": 3}, tasks_started: {"consumer1": 1, "consumer2": 1, "producer": 1}, tasks_finished: {"consumer1": 1, "consumer2": 1, "producer": 1}, tasks_failed: {} }
{"consumer1": ["4038e0d6e6000000", "4036d44b75000000", "40383ef150000000"], "consumer2": ["4038e0d6e6000000", "4036d44b75000000", "40383ef150000000"]}"#;

const FEWSHOT_2NODE: &str = r#"completed=true failed=[]
TraceSummary { events: {"data-published": 3, "data-received": 3, "task-finished": 2, "task-started": 2}, published: {"particles": 3}, received: {"particles": 3}, tasks_started: {"consumer": 1, "producer": 1}, tasks_finished: {"consumer": 1, "producer": 1}, tasks_failed: {} }
{"consumer": ["4038e0d6e6000000", "4036d44b75000000", "40383ef150000000"]}"#;

const CHAIN3: &str = r#"completed=true failed=[]
TraceSummary { events: {"data-published": 6, "data-received": 6, "task-finished": 3, "task-started": 3}, published: {"cooked": 3, "raw": 3}, received: {"cooked": 3, "raw": 3}, tasks_started: {"producer": 1, "relay": 1, "sink": 1}, tasks_finished: {"producer": 1, "relay": 1, "sink": 1}, tasks_failed: {} }
{"relay": ["4038e0d6e6000000", "4036d44b75000000", "40383ef150000000"], "sink": ["40396e9c9c000000", "40370efc30000000", "403ab964c7000000"]}"#;

const FEWSHOT_PRODUCER_FAILS: &str = r#"completed=false failed=["consumer", "producer"]
TraceSummary { events: {"data-published": 1, "data-received": 1, "task-failed": 2, "task-started": 2}, published: {"particles": 1}, received: {"particles": 1}, tasks_started: {"consumer": 1, "producer": 1}, tasks_finished: {}, tasks_failed: {"consumer": 1, "producer": 1} }
{}"#;

const FEWSHOT_CONSUMER_FAILS: &str = r#"completed=false failed=["consumer"]
TraceSummary { events: {"data-published": 3, "data-received": 1, "task-failed": 1, "task-finished": 1, "task-started": 2}, published: {"particles": 3}, received: {"particles": 1}, tasks_started: {"consumer": 1, "producer": 1}, tasks_finished: {"producer": 1}, tasks_failed: {"consumer": 1} }
{}"#;

#[test]
fn fixed_workflows_match_the_pinned_outputs() {
    let cases = [
        (
            "paper_3node",
            WorkflowSpec::paper_3node(),
            EngineConfig::default(),
            PAPER_3NODE,
        ),
        (
            "fewshot_2node",
            WorkflowSpec::fewshot_2node(),
            EngineConfig::default(),
            FEWSHOT_2NODE,
        ),
        ("chain3", chain3(), EngineConfig::default(), CHAIN3),
        (
            "producer fails",
            WorkflowSpec::fewshot_2node(),
            failing("producer"),
            FEWSHOT_PRODUCER_FAILS,
        ),
        (
            "consumer fails",
            WorkflowSpec::fewshot_2node(),
            failing("consumer"),
            FEWSHOT_CONSUMER_FAILS,
        ),
    ];
    for (name, spec, config, expected) in cases {
        let actual = fingerprint(&run(&spec, config));
        assert_eq!(actual, expected, "{name}");
    }
}

/// FNV-1a over a byte slice, seeded with `hash` (chainable).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The scaling bench's tier checksum: an FNV-1a fold of every count in the
/// summary, maps in key order.
fn summary_checksum(summary: &TraceSummary) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut fold = |key: &str, count: usize| {
        hash = fnv1a(hash, key.as_bytes());
        hash = fnv1a(hash, &(count as u64).to_le_bytes());
    };
    for (label, &count) in &summary.events {
        fold(label, count);
    }
    for map in [
        &summary.published,
        &summary.received,
        &summary.tasks_started,
        &summary.tasks_finished,
        &summary.tasks_failed,
    ] {
        for (key, &count) in map {
            fold(key, count);
        }
    }
    hash
}

/// An FNV-1a fold of every consumer's name and sum bits, consumers in name
/// order.
fn sums_checksum(outcome: &RunOutcome) -> u64 {
    let sorted: BTreeMap<&String, &Vec<f64>> = outcome.consumer_sums.iter().collect();
    let mut hash = FNV_OFFSET;
    for (task, sums) in sorted {
        hash = fnv1a(hash, task.as_bytes());
        for sum in sums {
            hash = fnv1a(hash, &sum.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Per tier, in `bench_suite` order: (name, summary checksum as committed
/// in `BENCH_5.json`, consumer-sums checksum).
const TIERS: [(&str, u64, u64); 12] = [
    ("topo-fan-out-10", 0xa47ab88fad406781, 0x114c413f1bcd87b5),
    ("topo-chain-10", 0xa47ab88fad406781, 0xa18b9e8cef6c24c0),
    ("topo-diamond-10", 0xad624c856a9b9afd, 0xd3fb90edf755860d),
    ("topo-random-10", 0x96fe63a4adadde7c, 0xf01eebccecd89cb8),
    ("topo-fan-out-100", 0x88675cc3a856519b, 0xae02154297e0f7ba),
    ("topo-chain-100", 0x88675cc3a856519b, 0xf58e2fcafd7d11df),
    ("topo-diamond-100", 0xefca182b4bb90a5f, 0xf496dc10311b155a),
    ("topo-random-100", 0x16f6dd28c82b18be, 0x3b8d46173a298de6),
    ("topo-fan-out-1000", 0x93f8c7298787ce05, 0x064948fd8aa0fa10),
    ("topo-chain-1000", 0x93f8c7298787ce05, 0xd338c608b8cb19b9),
    ("topo-diamond-1000", 0x77b8c77c02cb07da, 0x573f912eeb4795fa),
    ("topo-random-1000", 0xcc5eac95526db911, 0x8e3e669e1a8f8d63),
];

#[test]
fn bench_suite_tiers_match_the_bench_5_checksums() {
    // The scaling bench's engine configuration at its seed.
    let config = EngineConfig {
        elements: 16,
        seed: 42,
        ..EngineConfig::default()
    };
    let suite = bench_suite(42);
    assert_eq!(suite.len(), TIERS.len());
    for (topo, (name, summary_sum, consumer_sum)) in suite.iter().zip(TIERS) {
        assert_eq!(topo.name(), name);
        let outcome = run(&topo.generate().normalized(), config.clone());
        assert!(outcome.completed, "{name} did not complete");
        let actual = (
            summary_checksum(&outcome.summary()),
            sums_checksum(&outcome),
        );
        assert_eq!(actual, (summary_sum, consumer_sum), "{name}");
    }
}
