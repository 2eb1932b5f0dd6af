//! Golden-snapshot pin for the paper artifacts `repro run` prints — Tables
//! 1–6 and the Figure 1 heatmaps — rendered from a 1-trial benchmark.
//!
//! The snapshot guards the score-depth chain behind every similarity table:
//! prompt assembly (zero-shot, few-shot and every prompt variant), simulated
//! model outputs, code extraction and the BLEU/ChrF metrics, plus the table
//! layouts and the qualitative samples.  If a refactor shifts a score, a
//! row ordering or a layout, this test shows the exact diff.  The snapshot
//! is [`render_tables`]'s output; regenerate it deliberately by writing
//! that string to `tests/golden/tables_trials1.txt`.

use std::fmt::Write;

use wfspeak::core::report::{qualitative_configurations, qualitative_translations, render_samples};
use wfspeak::core::{Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant};

/// Exactly what `repro run` prints (each artifact through `println!`), for
/// a benchmark with one trial per cell.
fn render_tables(benchmark: &Benchmark) -> String {
    let mut out = String::new();
    let titled = [
        (
            ExperimentKind::Configuration,
            "Table 1: Evaluation of various LLMs using code similarity metrics for the workflow configuration experiment",
        ),
        (
            ExperimentKind::Annotation,
            "Table 2: Evaluation of various LLMs using code similarity metrics for the task code annotation experiment",
        ),
        (
            ExperimentKind::Translation,
            "Table 3: Evaluation of various LLMs using code similarity metrics for the task code translation experiment",
        ),
    ];
    for (kind, title) in titled {
        let result = benchmark.run_experiment(kind, PromptVariant::Original);
        writeln!(out, "{}", result.render_table(title)).unwrap();
        if kind != ExperimentKind::Translation {
            writeln!(
                out,
                "Best model: {}    Best workflow system: {}\n",
                result.best_model().unwrap_or_default(),
                result.best_row().unwrap_or_default()
            )
            .unwrap();
        }
    }
    let seed = benchmark.config().base_seed;
    writeln!(
        out,
        "{}",
        render_samples(
            "Table 4: Translated producer codes for the Henson workflow system (LLaMA-3.3-70B vs Gemini-2.5-Pro); validator findings mark nonexistent API calls",
            &qualitative_translations(seed)
        )
    )
    .unwrap();
    let comparison = benchmark.run_few_shot_comparison();
    writeln!(out, "{}", comparison.render_table()).unwrap();
    writeln!(
        out,
        "Few-shot improves every model: {}\n",
        comparison.few_shot_improves_all_models()
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        render_samples(
            "Table 6: Generated Wilkins configuration files with few-shot (left) and zero-shot (right) prompting using o3; validator findings mark nonexistent fields",
            &qualitative_configurations(seed)
        )
    )
    .unwrap();
    let sensitivity = benchmark.run_prompt_sensitivity();
    writeln!(out, "Figure 1: BLEU scores by prompt type and LLM\n").unwrap();
    for kind in ExperimentKind::ALL {
        for row in kind.row_labels() {
            writeln!(out, "{}", sensitivity.render_heatmap(kind, &row)).unwrap();
        }
    }
    out
}

#[test]
fn tables_trials1_match_the_golden_snapshot() {
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 1,
        ..BenchmarkConfig::default()
    });
    let rendered = render_tables(&benchmark);
    let golden = include_str!("golden/tables_trials1.txt");
    if rendered != golden {
        let diff: Vec<String> = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .filter(|(_, (g, r))| g != r)
            .map(|(i, (g, r))| format!("line {}:\n  golden: {g}\n  actual: {r}", i + 1))
            .collect();
        panic!(
            "tables at 1 trial drifted from the golden snapshot \
             ({} golden lines, {} actual):\n{}",
            golden.lines().count(),
            rendered.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn tables_snapshot_has_the_expected_shape() {
    // Belt and braces on the snapshot file itself, so an accidental
    // truncation of the golden file cannot silently weaken the pin.
    let golden = include_str!("golden/tables_trials1.txt");
    for artifact in [
        "Table 1:",
        "Table 2:",
        "Table 3:",
        "Table 4:",
        "Table 5:",
        "Table 6:",
        "Figure 1:",
    ] {
        assert!(golden.contains(artifact), "snapshot is missing {artifact}");
    }
    let heatmaps: usize = ExperimentKind::ALL
        .iter()
        .map(|kind| kind.row_labels().len())
        .sum();
    assert_eq!(
        golden.matches("Prompt type").count(),
        heatmaps,
        "one Figure 1 heatmap per experiment row"
    );
}
