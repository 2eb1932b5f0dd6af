//! `wfspeak-core` — the benchmark harness that reproduces the paper's
//! evaluation.
//!
//! The harness wires the other crates together: it builds prompts from the
//! [`wfspeak_corpus`] scenario, queries a set of [`wfspeak_llm::LlmClient`]s
//! (the simulated o3 / Gemini-2.5-Pro / Claude-Sonnet-4 / LLaMA-3.3-70B by
//! default), extracts the code payload from each response, measures it
//! against the reference artifact, and aggregates repeated trials into the
//! paper's tables and figures:
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | Workflow configuration | Table 1 | [`Benchmark::run_configuration`] |
//! | Task code annotation | Table 2 | [`Benchmark::run_annotation`] |
//! | Task code translation | Table 3 | [`Benchmark::run_translation`] |
//! | Qualitative translations | Table 4 | [`report::qualitative_translations`] |
//! | Prompt sensitivity | Figure 1 | [`Benchmark::run_prompt_sensitivity`] |
//! | Few-shot prompting | Table 5 | [`Benchmark::run_few_shot_comparison`] |
//! | Qualitative configurations | Table 6 | [`report::qualitative_configurations`] |
//!
//! # Three depths, one grid
//!
//! The paper measures generated output at three depths, each a superset of
//! the one before:
//!
//! | Depth | Per-trial function | Entry point |
//! |---|---|---|
//! | score | extract + BLEU/ChrF | [`Benchmark::run_experiment`] |
//! | evaluate | extract + API-call comparison + BLEU/ChrF ([`evaluate_prepared`]) | [`Benchmark::run_evaluation`] |
//! | execute | extract + parse → validate → normalize → run ([`execute_artifact`]) | [`Benchmark::run_execution`] |
//!
//! All three share one pipeline shape.  A single row source (in
//! [`experiments`]) yields each grid's rows — label, system, reference and
//! prompt — for the three experiments, the few-shot configuration and the
//! five-system execution grid; it is the only place grid prompts are
//! built.  A single grid runner (in [`runner`]) resolves each row's
//! context once (a prepared reference from the shared [`ReferenceCache`],
//! or a reference run from the [`ExecutionPipeline`]), queries every
//! `(row × model)` cell once per trial in seed order on the worker pool,
//! and maps each response through the depth's per-trial function.  Cells
//! come back in declared order, so every grid is deterministic; the
//! evaluate and execute grids report them as [`GridCell`]s.  The scoring
//! service (`wfspeak-service`) resolves each request into the same three
//! depths and answers through the same per-response functions, so served
//! results are bit-identical to in-process ones.
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_core::{Benchmark, BenchmarkConfig};
//!
//! let benchmark = Benchmark::with_simulated_models(BenchmarkConfig { trials: 2, ..BenchmarkConfig::default() });
//! let result = benchmark.run_configuration(Default::default(), false);
//! println!("{}", result.render_table("Workflow configuration"));
//! assert_eq!(result.bleu.rows().len(), 3); // ADIOS2, Henson, Wilkins
//! ```

pub mod config;
pub mod eval;
pub mod exec;
pub mod experiments;
pub mod parallel;
pub mod report;
pub mod result;
pub mod runner;

pub use config::BenchmarkConfig;
pub use eval::{evaluate_prepared, EvaluatedCell, Evaluation, EvaluationGrid, SystemProfile};
pub use exec::{
    execute_artifact, ExecutedCell, ExecutionGrid, ExecutionPipeline, ExecutionScore, SandboxConfig,
};
pub use experiments::{ExperimentKind, FewShotComparison, PromptSensitivity};
pub use result::{ExperimentResult, GridCell};
pub use runner::{Benchmark, PreparedPair, ReferenceCache};

pub use wfspeak_corpus::prompts::PromptVariant;
pub use wfspeak_corpus::WorkflowSystemId;
pub use wfspeak_llm::ModelId;
