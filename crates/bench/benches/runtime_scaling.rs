//! Criterion bench for the in situ runtime substrate: executing the paper's
//! 3-node workflow, wider fan-out variants, and the synthetic topology tiers
//! behind `BENCH_5.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wfspeak_runtime::{Engine, EngineConfig};
use wfspeak_systems::topo::bench_suite;
use wfspeak_systems::{TaskSpec, WorkflowSpec};

fn fan_out_spec(consumers: usize) -> WorkflowSpec {
    let mut producer = TaskSpec::new("producer", 2);
    let mut spec = WorkflowSpec::new("fanout");
    for i in 0..consumers {
        producer = producer.produces(&format!("ds{i}"));
    }
    spec.tasks.push(producer);
    for i in 0..consumers {
        spec.tasks
            .push(TaskSpec::new(&format!("consumer{i}"), 1).consumes(&format!("ds{i}")));
    }
    spec
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scaling");
    group.sample_size(10);
    let config = EngineConfig {
        timesteps: 3,
        elements: 64,
        ..EngineConfig::default()
    };

    group.bench_function("paper_3node_workflow", |b| {
        let engine = Engine::new(config.clone());
        let spec = WorkflowSpec::paper_3node();
        b.iter(|| black_box(engine.run(&spec).unwrap()))
    });

    for consumers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("fan_out_consumers", consumers),
            &consumers,
            |b, &consumers| {
                let engine = Engine::new(config.clone());
                let spec = fan_out_spec(consumers);
                b.iter(|| black_box(engine.run(&spec).unwrap()))
            },
        );
    }

    let topo_config = EngineConfig {
        timesteps: 3,
        elements: 16,
        ..EngineConfig::default()
    };
    for topo in bench_suite(42) {
        group.bench_with_input(BenchmarkId::new("topo", topo.name()), &topo, |b, topo| {
            let engine = Engine::new(topo_config.clone());
            let spec = topo.generate().normalized();
            b.iter(|| black_box(engine.run(&spec).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
