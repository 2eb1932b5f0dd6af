//! `service_throughput` — time the request codec, then measure the batch
//! scoring service over loopback TCP and write the `BENCH_2.json` artifact.
//!
//! The codec benches time `decode_line` and `encode_line` on an evaluate
//! request (5 responses, about 5 KB) and an execute request (16 responses,
//! about 10 KB) built from simulated model responses, the sizes the service
//! decodes on its I/O loop under the paper grid.
//!
//! The service measurement is a one-shot run (`harness = false`): it boots a
//! server on an ephemeral port, drives it from several concurrent pipelined
//! clients, prints the headline numbers and records the full report.
//! `repro bench-service` runs the same measurement. See the `wfspeak_bench`
//! crate docs for the report schema.

use criterion::{black_box, Criterion, Throughput};
use wfspeak_corpus::prompts::{annotation_prompt, execution_prompt, PromptVariant};
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};
use wfspeak_service::protocol::{decode_line, encode_line};
use wfspeak_service::{ScoreRequest, TaskKind};

/// `count` trial responses to `prompt`, dealt round-robin over the simulated
/// models.
fn responses(prompt: &str, count: u64) -> Vec<String> {
    let models = SimulatedLlm::all();
    (0..count)
        .map(|trial| {
            let model = &models[trial as usize % models.len()];
            let params = SamplingParams::paper_defaults(trial);
            model.complete(&CompletionRequest::new(prompt, params)).text
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let variant = PromptVariant::Original;
    let requests = [
        (
            "evaluate",
            ScoreRequest::evaluate(
                1,
                TaskKind::Annotation,
                "Henson",
                responses(&annotation_prompt(WorkflowSystemId::Henson, variant), 5),
            ),
        ),
        (
            "execute",
            ScoreRequest::execute(
                1,
                "Wilkins",
                responses(&execution_prompt(WorkflowSystemId::Wilkins, variant), 16),
            ),
        ),
    ];
    let mut group = c.benchmark_group("codec");
    for (name, request) in &requests {
        let line = encode_line(request);
        group.throughput(Throughput::Bytes(line.len() as u64));
        group.bench_function(format!("decode_line/{name}_{}B", line.len()), |b| {
            b.iter(|| decode_line::<ScoreRequest>(black_box(&line)).unwrap())
        });
        group.bench_function(format!("encode_line/{name}_{}B", line.len()), |b| {
            b.iter(|| encode_line(black_box(request)))
        });
    }
    group.finish();
}

fn main() {
    bench_codec(&mut Criterion::default());
    // `cargo bench` passes harness flags (`--bench`) — ignored — and runs
    // bench binaries with the package root as cwd, so anchor the artifact
    // to the workspace root.
    wfspeak_bench::run_service_bench(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_2.json"));
}
