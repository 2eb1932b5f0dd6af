//! A failure injected into a producer with several ranks ends the run with
//! a typed task failure.  The run happens on a worker thread under a
//! watchdog, so an engine that waits forever on the producer's other ranks
//! fails this test instead of hanging it.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use wfspeak_runtime::{Engine, EngineConfig};
use wfspeak_systems::{TaskSpec, WorkflowSpec};

#[test]
fn multi_rank_producer_failure_returns_instead_of_hanging() {
    let (done, outcome) = mpsc::channel();
    let worker = thread::spawn(move || {
        let spec = WorkflowSpec::new("wide")
            .with_task(TaskSpec::new("producer", 4).produces("grid"))
            .with_task(TaskSpec::new("consumer", 1).consumes("grid"));
        let config = EngineConfig {
            fail_task: Some("producer".into()),
            ..EngineConfig::default()
        };
        let _ = done.send(Engine::new(config).run(&spec));
    });
    let outcome = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("Engine::run did not return within 10 s")
        .expect("spec is valid");
    worker.join().expect("the engine thread panicked");
    assert!(!outcome.completed);
    // The producer published timestep 0 before failing at timestep 1; the
    // consumer read it, then found the link empty without end-of-stream.
    assert_eq!(outcome.failed_tasks, ["producer", "consumer"]);
    let summary = outcome.summary();
    assert_eq!(summary.published["grid"], 1);
    assert_eq!(summary.received["grid"], 1);
    assert!(summary.tasks_finished.is_empty());
}
