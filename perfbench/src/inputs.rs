//! The paper grid's rows, in the order `wfspeak_core::Benchmark` produces
//! them, and the model responses the serve workloads send.

use wfspeak_core::{ExperimentKind, PromptVariant, WorkflowSystemId};
use wfspeak_corpus::prompts::{
    annotation_prompt, configuration_prompt, execution_prompt, translation_prompt,
};
use wfspeak_corpus::references::{
    annotation_reference, configuration_reference, execution_reference, translation_reference,
};
use wfspeak_corpus::translation_pairs;
use wfspeak_llm::{CompletionRequest, LlmClient, SamplingParams};
use wfspeak_service::TaskKind;

/// Trials per cell, as in the paper.
pub const TRIALS: u64 = 5;

/// How deep a response is taken: BLEU/ChrF only, the evaluation pipeline,
/// or execution on the runtime engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    Score,
    Evaluate,
    Execute,
}

/// One grid row: a prompt answered by every model, scored against one
/// reference. `system` is the system whose API catalogue (evaluate) or
/// configuration dialect (execute) applies.
#[derive(Debug, Clone)]
pub struct Row {
    pub task: TaskKind,
    pub system: WorkflowSystemId,
    pub reference: &'static str,
    pub prompt: String,
}

/// The rows of one experiment, in the paper's declared order.
pub fn experiment_rows(kind: ExperimentKind, variant: PromptVariant) -> Vec<Row> {
    let row = |task, system, reference, prompt| Row {
        task,
        system,
        reference,
        prompt,
    };
    match kind {
        ExperimentKind::Configuration => WorkflowSystemId::configuration_systems()
            .into_iter()
            .map(|s| {
                let reference = configuration_reference(s).expect("configuration reference");
                let prompt = configuration_prompt(s, variant);
                row(TaskKind::Configuration, s, reference, prompt)
            })
            .collect(),
        ExperimentKind::Annotation => WorkflowSystemId::annotation_systems()
            .into_iter()
            .map(|s| {
                let reference = annotation_reference(s).expect("annotation reference");
                let prompt = annotation_prompt(s, variant);
                row(TaskKind::Annotation, s, reference, prompt)
            })
            .collect(),
        ExperimentKind::Translation => translation_pairs()
            .into_iter()
            .map(|(source, target)| {
                let reference = translation_reference(target).expect("translation reference");
                let prompt = translation_prompt(source, target, variant);
                row(TaskKind::Translation, target, reference, prompt)
            })
            .collect(),
    }
}

/// The five systems' execution rows.
pub fn execution_rows(variant: PromptVariant) -> Vec<Row> {
    WorkflowSystemId::execution_systems()
        .into_iter()
        .map(|s| Row {
            task: TaskKind::Execution,
            system: s,
            reference: execution_reference(s),
            prompt: execution_prompt(s, variant),
        })
        .collect()
}

/// One per-trial response of a grid pass: row, model and trial seed.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub depth: Depth,
    pub row: usize,
    pub model: usize,
    pub seed: u64,
}

/// Every per-trial response of one grid pass — for each prompt variant,
/// the three experiments at score depth, the three at evaluate depth and
/// the execution grid — in the order the grid reports them.
pub fn pass_jobs(base_seed: u64, models: usize) -> (Vec<Row>, Vec<Job>) {
    let mut rows = Vec::new();
    let mut jobs = Vec::new();
    for variant in PromptVariant::ALL {
        let mut blocks = Vec::new();
        for depth in [Depth::Score, Depth::Evaluate] {
            for kind in ExperimentKind::ALL {
                blocks.push((depth, experiment_rows(kind, variant)));
            }
        }
        blocks.push((Depth::Execute, execution_rows(variant)));
        for (depth, block) in blocks {
            for row in block {
                rows.push(row);
                for model in 0..models {
                    for trial in 0..TRIALS {
                        jobs.push(Job {
                            depth,
                            row: rows.len() - 1,
                            model,
                            seed: base_seed + trial,
                        });
                    }
                }
            }
        }
    }
    (rows, jobs)
}

/// One trial's raw response, with the sampling parameters the grid sends
/// (the paper's temperature and top-p).
pub fn respond(client: &dyn LlmClient, prompt: &str, seed: u64) -> String {
    let params = SamplingParams::paper_defaults(seed);
    client
        .complete(&CompletionRequest::new(prompt, params))
        .text
}
