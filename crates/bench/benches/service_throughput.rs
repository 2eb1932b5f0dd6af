//! `service_throughput` — time the scoring service's request codec.
//!
//! The codec benches time `decode_line` and `encode_line` on an evaluate
//! request (5 responses, about 5 KB) and an execute request (16 responses,
//! about 10 KB) built from simulated model responses, the sizes the service
//! decodes on its I/O loop under the paper grid. The end-to-end service
//! measurement is `repro bench-service` (`BENCH_2.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
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

criterion_group!(benches, bench_codec);
criterion_main!(benches);
