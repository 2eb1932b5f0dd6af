//! The workflow engine: builds the links from a specification, runs each
//! task to completion in dependency order and collects the outcome.

use std::collections::HashMap;

use wfspeak_systems::spec::DataRole;
use wfspeak_systems::wilkins::WilkinsConfig;
use wfspeak_systems::WorkflowSpec;

use crate::task::{self, Links};
use crate::trace::{EventKind, ExecutionTrace};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of timesteps the producer runs for (the benchmark default is 3).
    pub timesteps: usize,
    /// Elements per rank in generated arrays (benchmark default 50).
    pub elements: usize,
    /// RNG seed for data generation.
    pub seed: u64,
    /// Inject a failure into this task at timestep 1 (failure-handling tests).
    pub fail_task: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            timesteps: 3,
            elements: 50,
            seed: 42,
            fail_task: None,
        }
    }
}

/// Why a run could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The workflow specification failed structural validation.
    InvalidSpec(String),
    /// A Wilkins configuration could not be parsed.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidSpec(msg) => write!(f, "invalid workflow spec: {msg}"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of running a workflow.
#[derive(Debug)]
pub struct RunOutcome {
    /// True when every task finished without error and every consumer saw
    /// every timestep of every dataset it subscribes to.
    pub completed: bool,
    /// Timesteps executed.
    pub timesteps: usize,
    /// Per-consumer sums of the datasets received (task → sums in arrival
    /// order).
    pub consumer_sums: HashMap<String, Vec<f64>>,
    /// Names of tasks that failed.
    pub failed_tasks: Vec<String>,
    /// The full event trace.
    pub trace: ExecutionTrace,
}

impl RunOutcome {
    /// Total number of dataset messages received across all consumers.
    pub fn total_received(&self) -> usize {
        self.consumer_sums.values().map(Vec::len).sum()
    }

    /// Deterministic condensation of the run's trace (counts only), the
    /// form compared against a reference run in execution scoring.
    pub fn summary(&self) -> crate::trace::TraceSummary {
        self.trace.summary()
    }
}

/// The workflow engine.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// Run a neutral workflow specification.
    ///
    /// Validation rejects cyclic specs, so the tasks run one at a time in
    /// dependency order; a task never starts before every task it reads
    /// from has finished.
    pub fn run(&self, spec: &WorkflowSpec) -> Result<RunOutcome, EngineError> {
        if let Some(diagnostic) = spec.validate().iter().find(|d| d.is_error()) {
            return Err(EngineError::InvalidSpec(diagnostic.to_string()));
        }
        let order = spec
            .topological_order()
            .expect("validation rejects cyclic specs");
        let mut links = Links::new(spec);
        let mut consumer_sums = HashMap::new();
        for task in order.into_iter().map(|i| &spec.tasks[i]) {
            links.trace.record(&task.name, EventKind::TaskStarted);
            // A task that only produces is a producer; every other task is a
            // relay, and one with no inputs finishes at once.
            let produces = task.data.iter().any(|d| d.role == DataRole::Produces);
            let consumes = task.data.iter().any(|d| d.role == DataRole::Consumes);
            let result = if produces && !consumes {
                task::produce(task, &self.config, &mut links).map(|()| Vec::new())
            } else {
                task::relay(task, &self.config, &mut links)
            };
            match result {
                Ok(sums) => {
                    links.trace.record(&task.name, EventKind::TaskFinished);
                    if !sums.is_empty() {
                        consumer_sums.insert(task.name.clone(), sums);
                    }
                }
                Err(reason) => {
                    links
                        .trace
                        .record(&task.name, EventKind::TaskFailed { reason });
                }
            }
        }
        let trace = links.trace;
        let failed_tasks = trace.failed_tasks();

        // Completion additionally requires every consumer to have seen every
        // timestep of every dataset it subscribes to.
        let delivery_ok = spec.tasks.iter().all(|task| {
            let expected = task
                .data
                .iter()
                .filter(|d| d.role == DataRole::Consumes)
                .count()
                * self.config.timesteps;
            expected == 0 || consumer_sums.get(&task.name).map_or(0, Vec::len) == expected
        });

        Ok(RunOutcome {
            completed: failed_tasks.is_empty() && delivery_ok,
            timesteps: self.config.timesteps,
            consumer_sums,
            failed_tasks,
            trace,
        })
    }

    /// Parse a Wilkins configuration and run the workflow it describes.
    pub fn run_wilkins_config(&self, config_text: &str) -> Result<RunOutcome, EngineError> {
        let (config, report) = WilkinsConfig::parse(config_text);
        match config {
            Some(config) if report.is_valid() => self.run(&config.to_spec("wilkins-workflow")),
            _ => Err(EngineError::InvalidConfig(report.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSummary;
    use wfspeak_corpus::references::configs::WILKINS_3NODE;
    use wfspeak_systems::spec::TaskSpec;

    #[test]
    fn paper_3node_workflow_runs_to_completion() {
        let outcome = Engine::new(EngineConfig::default())
            .run(&WorkflowSpec::paper_3node())
            .unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.timesteps, 3);
        // consumer1 and consumer2 each received 3 steps of their dataset.
        assert_eq!(outcome.consumer_sums["consumer1"].len(), 3);
        assert_eq!(outcome.consumer_sums["consumer2"].len(), 3);
        assert!(outcome.failed_tasks.is_empty());
        assert_eq!(outcome.trace.published_count("grid"), 3);
        assert_eq!(outcome.trace.received_count("grid"), 3);
    }

    #[test]
    fn consumer_sums_are_plausible() {
        let config = EngineConfig {
            elements: 100,
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::paper_3node())
            .unwrap();
        // Uniform [0,1) values: the sum of 100 elements is around 50.
        for sums in outcome.consumer_sums.values() {
            for s in sums {
                assert!(*s > 20.0 && *s < 80.0, "implausible sum {s}");
            }
        }
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = |seed| {
            let config = EngineConfig {
                seed,
                ..EngineConfig::default()
            };
            let outcome = Engine::new(config)
                .run(&WorkflowSpec::fewshot_2node())
                .unwrap();
            outcome.consumer_sums["consumer"].clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A run's summary and its consumer sums in task-name order.
    fn fingerprint(outcome: RunOutcome) -> (TraceSummary, Vec<(String, Vec<f64>)>) {
        let summary = outcome.summary();
        let mut sums: Vec<(String, Vec<f64>)> = outcome.consumer_sums.into_iter().collect();
        sums.sort_by(|a, b| a.0.cmp(&b.0));
        (summary, sums)
    }

    #[test]
    fn benchmark_spec_traces_are_deterministic_across_repeat_runs() {
        // Execution scoring depends on this: repeated runs of the benchmark
        // spec under one seed must summarise identically and see the same
        // sums.
        let run = || {
            let outcome = Engine::new(EngineConfig::default())
                .run(&WorkflowSpec::paper_3node())
                .unwrap();
            assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
            fingerprint(outcome)
        };
        let baseline = run();
        for _ in 0..3 {
            assert_eq!(run(), baseline, "repeat run diverged");
        }
    }

    #[test]
    fn relay_tasks_drain_inputs_and_republish() {
        // producer -> relay -> sink: the interior task must consume every
        // upstream timestep AND deliver every timestep downstream.
        let spec = WorkflowSpec::new("chain3")
            .with_task(TaskSpec::new("producer", 1).produces("raw"))
            .with_task(TaskSpec::new("relay", 1).consumes("raw").produces("cooked"))
            .with_task(TaskSpec::new("sink", 1).consumes("cooked"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.consumer_sums["relay"].len(), 3);
        assert_eq!(outcome.consumer_sums["sink"].len(), 3);
        assert_eq!(outcome.trace.published_count("cooked"), 3);
        assert_eq!(outcome.trace.received_count("cooked"), 3);
    }

    #[test]
    fn thousand_task_topologies_are_deterministic_across_repeat_runs() {
        // The scaling benchmark's determinism checksums rest on this: a
        // seeded 1000-task graph must summarise identically run to run.
        use wfspeak_systems::topo::{TopoShape, TopoSpec};
        for shape in [TopoShape::Diamond, TopoShape::FanOut] {
            let spec = TopoSpec::new(shape, 1000, 42).generate();
            let run = || {
                let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
                assert!(outcome.completed, "{shape} did not complete");
                fingerprint(outcome)
            };
            assert_eq!(run(), run(), "{shape}");
        }
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = WorkflowSpec::new("bad").with_task(TaskSpec::new("c", 1).consumes("ghost"));
        let err = Engine::new(EngineConfig::default()).run(&spec).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSpec(_)));
    }

    #[test]
    fn reference_wilkins_config_executes() {
        let outcome = Engine::new(EngineConfig::default())
            .run_wilkins_config(WILKINS_3NODE)
            .unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.total_received(), 6);
    }

    #[test]
    fn hallucinated_wilkins_config_refuses_to_run() {
        let bad = "workflow:\n  tasks:\n    - func: producer\n      command: ./p\n";
        let err = Engine::new(EngineConfig::default())
            .run_wilkins_config(bad)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn injected_producer_failure_propagates() {
        let config = EngineConfig {
            fail_task: Some("producer".into()),
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::fewshot_2node())
            .unwrap();
        assert!(!outcome.completed);
        // The consumer reads the one step the producer published, then
        // finds its link empty with no end-of-stream and fails at once.
        assert_eq!(outcome.failed_tasks, vec!["producer", "consumer"]);
        assert_eq!(outcome.trace.received_count("particles"), 1);
    }

    #[test]
    fn injected_consumer_failure_marks_run_incomplete() {
        let config = EngineConfig {
            fail_task: Some("consumer".into()),
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::fewshot_2node())
            .unwrap();
        assert!(!outcome.completed);
    }

    #[test]
    fn single_task_workflow_with_unconsumed_output_completes() {
        let spec =
            WorkflowSpec::new("solo").with_task(TaskSpec::new("producer", 2).produces("grid"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.total_received(), 0);
    }

    #[test]
    fn dataset_listed_twice_by_its_producer_is_published_once() {
        // `validate` only warns about the duplicate listing; the producer
        // publishes the dataset once per timestep, as after normalization.
        let spec = WorkflowSpec::new("dup")
            .with_task(
                TaskSpec::new("producer", 1)
                    .produces("grid")
                    .produces("grid"),
            )
            .with_task(TaskSpec::new("consumer", 1).consumes("grid"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.trace.published_count("grid"), 3);
        let normalized = Engine::new(EngineConfig::default())
            .run(&spec.normalized())
            .unwrap();
        assert_eq!(outcome.consumer_sums, normalized.consumer_sums);
    }

    #[test]
    fn larger_process_counts_still_complete() {
        let spec = WorkflowSpec::new("wide")
            .with_task(TaskSpec::new("producer", 8).produces("grid"))
            .with_task(TaskSpec::new("consumer1", 4).consumes("grid"));
        let config = EngineConfig {
            timesteps: 5,
            elements: 10,
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config).run(&spec).unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.consumer_sums["consumer1"].len(), 5);
    }

    #[test]
    fn failed_relay_fails_everything_downstream_of_it_only() {
        // a → b → d and a → c → d: when b fails, d reads step 0 from both
        // inputs, then finds b's link (`y`, read first) empty; a and c
        // still finish.
        let spec = WorkflowSpec::new("diamond")
            .with_task(TaskSpec::new("a", 1).produces("x"))
            .with_task(TaskSpec::new("b", 1).consumes("x").produces("y"))
            .with_task(TaskSpec::new("c", 1).consumes("x").produces("z"))
            .with_task(TaskSpec::new("d", 1).consumes("y").consumes("z"));
        let config = EngineConfig {
            fail_task: Some("b".into()),
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config).run(&spec).unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.failed_tasks, vec!["b", "d"]);
        let summary = outcome.summary();
        assert_eq!(
            summary.tasks_finished.keys().collect::<Vec<_>>(),
            ["a", "c"]
        );
        assert_eq!(summary.published["y"], 1);
        assert_eq!(summary.received["y"], 1);
        assert_eq!(summary.received["z"], 1);
        assert_eq!(outcome.consumer_sums.keys().collect::<Vec<_>>(), ["c"]);
    }
}
