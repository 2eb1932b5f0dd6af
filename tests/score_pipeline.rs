//! Workspace-level pin: the score-depth grid (`Benchmark::run_experiment`
//! for every experiment, plus the few-shot configuration grid) is
//! bit-identical to reconstructing every cell by hand — prompt assembly,
//! simulated model query in seed order, `extract_code`, then
//! `Scorer::score_prepared` against the row's reference.

use wfspeak::codemodel::extract_code;
use wfspeak::core::{Benchmark, BenchmarkConfig, ExperimentKind, ExperimentResult, PromptVariant};
use wfspeak::corpus::fewshot::augment_configuration_prompt;
use wfspeak::corpus::prompts::{annotation_prompt, configuration_prompt, translation_prompt};
use wfspeak::corpus::references::{
    annotation_reference, configuration_reference, translation_reference,
};
use wfspeak::corpus::{translation_pair_label, translation_pairs, WorkflowSystemId};
use wfspeak::llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};
use wfspeak::metrics::{BleuScorer, ChrfScorer, Scorer};

fn config() -> BenchmarkConfig {
    BenchmarkConfig {
        trials: 2,
        ..BenchmarkConfig::default()
    }
}

/// The hand-built `(row label, reference, prompt)` list of one grid, in the
/// paper's row order.
fn rows(kind: ExperimentKind, few_shot: bool) -> Vec<(String, &'static str, String)> {
    let variant = PromptVariant::Original;
    match kind {
        ExperimentKind::Configuration => WorkflowSystemId::configuration_systems()
            .into_iter()
            .map(|system| {
                let mut prompt = configuration_prompt(system, variant);
                if few_shot {
                    prompt = augment_configuration_prompt(&prompt, system);
                }
                let reference = configuration_reference(system).unwrap();
                (system.name().to_owned(), reference, prompt)
            })
            .collect(),
        ExperimentKind::Annotation => WorkflowSystemId::annotation_systems()
            .into_iter()
            .map(|system| {
                let reference = annotation_reference(system).unwrap();
                let prompt = annotation_prompt(system, variant);
                (system.name().to_owned(), reference, prompt)
            })
            .collect(),
        ExperimentKind::Translation => translation_pairs()
            .into_iter()
            .map(|(source, target)| {
                let reference = translation_reference(target).unwrap();
                let prompt = translation_prompt(source, target, variant);
                (translation_pair_label(source, target), reference, prompt)
            })
            .collect(),
    }
}

/// Assert every `(row, model)` cell of `result` holds exactly the per-trial
/// BLEU/ChrF samples of the hand-composed chain, in seed order.
fn assert_matches_hand_composition(
    result: &ExperimentResult,
    kind: ExperimentKind,
    few_shot: bool,
) {
    let config = config();
    let bleu = BleuScorer::default();
    let chrf = ChrfScorer::default();
    let rows = rows(kind, few_shot);
    let labels: Vec<String> = rows.iter().map(|(label, _, _)| label.clone()).collect();
    assert_eq!(result.bleu.rows(), labels.as_slice(), "{kind}");
    for (label, reference, prompt) in rows {
        let prepared_bleu = bleu.prepare(reference);
        let prepared_chrf = chrf.prepare(reference);
        for client in SimulatedLlm::all() {
            let model = client.model().name();
            let (mut bleu_samples, mut chrf_samples) = (Vec::new(), Vec::new());
            for seed in config.trial_seeds() {
                let params = SamplingParams {
                    temperature: config.temperature,
                    top_p: config.top_p,
                    seed,
                };
                let response = client.complete(&CompletionRequest::new(prompt.clone(), params));
                let code = extract_code(&response.text);
                bleu_samples.push(bleu.score_prepared(&code, &prepared_bleu).to_bits());
                chrf_samples.push(chrf.score_prepared(&code, &prepared_chrf).to_bits());
            }
            let bits = |samples: &[f64]| samples.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(result.bleu.samples(&label, model)),
                bleu_samples,
                "{kind} few_shot={few_shot}: BLEU {label}/{model}"
            );
            assert_eq!(
                bits(result.chrf.samples(&label, model)),
                chrf_samples,
                "{kind} few_shot={few_shot}: ChrF {label}/{model}"
            );
        }
    }
}

#[test]
fn every_experiment_grid_matches_direct_stage_composition() {
    let benchmark = Benchmark::with_simulated_models(config());
    for kind in ExperimentKind::ALL {
        let result = benchmark.run_experiment(kind, PromptVariant::Original);
        assert_matches_hand_composition(&result, kind, false);
    }
}

#[test]
fn few_shot_configuration_grid_matches_direct_stage_composition() {
    let benchmark = Benchmark::with_simulated_models(config());
    let result = benchmark.run_configuration(PromptVariant::Original, true);
    assert_matches_hand_composition(&result, ExperimentKind::Configuration, true);
}
