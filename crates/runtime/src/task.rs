//! Task behaviours and the in-memory links they exchange datasets over.
//!
//! Every task is a Kahn process: it reads its input links in a fixed order,
//! one blocking FIFO read at a time, and never polls.  Any schedule
//! therefore produces the same history on every link, so the engine runs
//! tasks one after another in dependency order.  When a task starts, its
//! upstream tasks have finished, so every message it will ever receive is
//! already queued.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wfspeak_systems::spec::DataRole;
use wfspeak_systems::{TaskSpec, WorkflowSpec};

use crate::data::{DataMessage, Dataset};
use crate::engine::EngineConfig;
use crate::trace::{EventKind, ExecutionTrace};

/// The links of one run, and the trace of what moved over them.  There is
/// one FIFO per (consumer task, dataset); a FIFO never holds more than
/// `timesteps + 1` messages.
#[derive(Debug, Default)]
pub(crate) struct Links<'a> {
    /// Dataset → consumer task → that consumer's queue.
    queues: HashMap<&'a str, HashMap<&'a str, VecDeque<DataMessage>>>,
    /// Every event recorded so far.
    pub(crate) trace: ExecutionTrace,
}

impl<'a> Links<'a> {
    /// One empty link per dataset each task of `spec` consumes.
    pub(crate) fn new(spec: &'a WorkflowSpec) -> Self {
        let mut links = Links::default();
        for task in &spec.tasks {
            for dataset in task.consumed_datasets() {
                links
                    .queues
                    .entry(dataset)
                    .or_default()
                    .insert(&task.name, VecDeque::new());
            }
        }
        links
    }

    /// Queue `values` as `dataset` at `timestep` on every consumer's link
    /// and record the publish (a dataset nobody consumes has no links).
    fn publish(
        &mut self,
        task: &str,
        dataset: &str,
        group_path: &str,
        timestep: usize,
        values: &[f32],
    ) {
        if let Some(consumers) = self.queues.get_mut(dataset) {
            let data = Dataset::from_f32(dataset, group_path, values);
            for queue in consumers.values_mut() {
                queue.push_back(DataMessage::Step {
                    timestep,
                    dataset: data.clone(),
                });
            }
        }
        let dataset = dataset.to_owned();
        self.trace
            .record(task, EventKind::DataPublished { dataset, timestep });
    }

    /// Queue end-of-stream on every consumer's link for `dataset`.
    fn close(&mut self, dataset: &str) {
        for queue in self
            .queues
            .get_mut(dataset)
            .into_iter()
            .flat_map(|c| c.values_mut())
        {
            queue.push_back(DataMessage::EndOfStream);
        }
    }

    /// Take the next message on `task`'s link for `dataset`, recording a
    /// received step.  An empty link means the producer stopped without
    /// end-of-stream, which only a failed producer does.
    fn receive(&mut self, task: &str, dataset: &str) -> Result<DataMessage, String> {
        let queue = self
            .queues
            .get_mut(dataset)
            .and_then(|consumers| consumers.get_mut(task))
            .ok_or_else(|| format!("{task}: no input link for dataset `{dataset}`"))?;
        let message = queue.pop_front().ok_or_else(|| {
            format!("{task}: input `{dataset}` ended without end-of-stream (its producer failed)")
        })?;
        if let Some(timestep) = message.timestep() {
            let dataset = dataset.to_owned();
            self.trace
                .record(task, EventKind::DataReceived { dataset, timestep });
        }
        Ok(message)
    }
}

/// `task`'s produced datasets in name order, each once, with the group
/// path their messages carry.  Sorted so the publish order is a function
/// of the spec alone.
fn outputs(task: &TaskSpec) -> Vec<(&str, &str)> {
    let mut outputs: Vec<(&str, &str)> = task
        .data
        .iter()
        .filter(|d| d.role == DataRole::Produces)
        .map(|d| (d.dataset.as_str(), d.group_path.as_str()))
        .collect();
    outputs.sort_by_key(|&(dataset, _)| dataset);
    outputs.dedup_by_key(|&mut (dataset, _)| dataset);
    outputs
}

/// The timestep at which `config` injects a failure into `task`, if any.
fn injected_failure(config: &EngineConfig, task: &TaskSpec) -> Option<usize> {
    (config.fail_task.as_deref() == Some(task.name.as_str())).then_some(1)
}

/// `elements` uniform values from `rng`.
fn draw(rng: &mut StdRng, elements: usize) -> Vec<f32> {
    (0..elements).map(|_| rng.gen::<f32>()).collect()
}

/// One timestep of a producer's process group: every rank draws its array
/// from its own RNG and adds its partial sum to the total, emulating
/// `MPI_Reduce(..., MPI_SUM, root=0)`.  Returns rank 0's array and the
/// reduced total.
fn reduce_step(ranks: &mut [StdRng], elements: usize) -> (Vec<f32>, f64) {
    let mut root = Vec::new();
    let mut total = 0.0;
    for (rank, rng) in ranks.iter_mut().enumerate() {
        let array = draw(rng, elements);
        total += array.iter().map(|&v| v as f64).sum::<f64>();
        if rank == 0 {
            root = array;
        }
    }
    (root, total)
}

/// The benchmark's producer: each timestep its ranks reduce their arrays'
/// sums and rank 0 publishes its own array as every produced dataset; at
/// the end it closes its outputs.
pub(crate) fn produce(
    task: &TaskSpec,
    config: &EngineConfig,
    links: &mut Links,
) -> Result<(), String> {
    let outputs = outputs(task);
    let mut ranks: Vec<StdRng> = (0..task.nprocs)
        .map(|rank| rank_rng(config.seed, &task.name, rank))
        .collect();
    for t in 0..config.timesteps {
        if injected_failure(config, task) == Some(t) {
            return Err(format!("injected failure at timestep {t}"));
        }
        let (array, _total) = reduce_step(&mut ranks, config.elements);
        for &(dataset, group_path) in &outputs {
            links.publish(&task.name, dataset, group_path, t, &array);
        }
    }
    for (dataset, _) in outputs {
        links.close(dataset);
    }
    Ok(())
}

/// A task that consumes: each round it takes one message from every open
/// input in name order, and after a round that brought data it publishes a
/// fresh array from rank 0's RNG as every produced dataset — the interior
/// stage of a chain or diamond.  An input closes at end-of-stream; when all
/// are closed the task closes its outputs.  A consumer is a relay with no
/// outputs.  Returns the sums of the datasets received, in arrival order.
pub(crate) fn relay(
    task: &TaskSpec,
    config: &EngineConfig,
    links: &mut Links,
) -> Result<Vec<f64>, String> {
    let mut open = task.consumed_datasets();
    open.sort_unstable();
    open.dedup();
    let outputs = outputs(task);
    let mut rng = rank_rng(config.seed, &task.name, 0);
    let mut sums = Vec::new();
    let mut step = 0;
    while !open.is_empty() {
        if injected_failure(config, task) == Some(step) {
            return Err(format!("injected failure at timestep {step}"));
        }
        let received = sums.len();
        let mut still_open = Vec::with_capacity(open.len());
        for dataset in open {
            if let DataMessage::Step { dataset: data, .. } = links.receive(&task.name, dataset)? {
                sums.push(data.sum());
                still_open.push(dataset);
            }
        }
        open = still_open;
        if sums.len() > received && !outputs.is_empty() {
            let array = draw(&mut rng, config.elements);
            for &(dataset, group_path) in &outputs {
                links.publish(&task.name, dataset, group_path, step, &array);
            }
        }
        step += 1;
    }
    for (dataset, _) in outputs {
        links.close(dataset);
    }
    Ok(sums)
}

/// Create the deterministic per-rank RNG used by behaviours.
pub(crate) fn rank_rng(seed: u64, task: &str, rank: usize) -> StdRng {
    let mut hash = seed ^ 0x9e3779b97f4a7c15;
    for b in task.bytes() {
        hash = hash.wrapping_mul(31).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(hash.wrapping_add(rank as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fanout() -> WorkflowSpec {
        WorkflowSpec::new("fanout")
            .with_task(TaskSpec::new("p", 3).produces("grid"))
            .with_task(TaskSpec::new("c1", 1).consumes("grid"))
            .with_task(TaskSpec::new("c2", 1).consumes("grid"))
    }

    fn config(timesteps: usize) -> EngineConfig {
        EngineConfig {
            timesteps,
            elements: 4,
            seed: 1,
            ..EngineConfig::default()
        }
    }

    fn drain(links: &mut Links, task: &str, dataset: &str) -> Vec<DataMessage> {
        std::iter::from_fn(|| links.receive(task, dataset).ok()).collect()
    }

    #[test]
    fn reduce_sum_across_ranks() {
        let mut ranks: Vec<StdRng> = (0..3).map(|rank| rank_rng(1, "t", rank)).collect();
        let (root, total) = reduce_step(&mut ranks, 4);
        let partial = |rank| -> f64 {
            let array = draw(&mut rank_rng(1, "t", rank), 4);
            array.iter().map(|&v| v as f64).sum()
        };
        assert_eq!(root, draw(&mut rank_rng(1, "t", 0), 4));
        assert_eq!(total, partial(0) + partial(1) + partial(2));
    }

    #[test]
    fn publish_delivers_to_all_consumers() {
        let spec = fanout();
        let mut links = Links::new(&spec);
        links.publish("p", "grid", "/group1/grid", 0, &[1.0, 2.0]);
        for consumer in ["c1", "c2"] {
            match links.receive(consumer, "grid").unwrap() {
                DataMessage::Step { timestep, dataset } => {
                    assert_eq!(timestep, 0);
                    assert_eq!(dataset.to_f32(), vec![1.0, 2.0]);
                    assert_eq!(dataset.group_path, "/group1/grid");
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(links.trace.published_count("grid"), 1);
        assert_eq!(links.trace.received_count("grid"), 2);
    }

    #[test]
    fn non_root_rank_publish_is_a_noop() {
        // A 3-rank producer publishes once per timestep: rank 0's array.
        let spec = fanout();
        let mut links = Links::new(&spec);
        produce(&spec.tasks[0], &config(2), &mut links).unwrap();
        let mut root = rank_rng(1, "p", 0);
        let expected: Vec<Vec<f32>> = (0..2).map(|_| draw(&mut root, 4)).collect();
        let messages = drain(&mut links, "c1", "grid");
        assert_eq!(messages.len(), 3);
        for (t, values) in expected.iter().enumerate() {
            assert_eq!(messages[t].timestep(), Some(t));
            assert!(
                matches!(&messages[t], DataMessage::Step { dataset, .. } if dataset.to_f32() == *values)
            );
        }
        assert_eq!(messages[2], DataMessage::EndOfStream);
        assert_eq!(links.trace.published_count("grid"), 2);
    }

    #[test]
    fn receive_from_empty_link_fails_at_once() {
        let spec = fanout();
        let mut links = Links::new(&spec);
        let err = links.receive("c1", "grid").unwrap_err();
        assert!(err.contains("without end-of-stream"), "{err}");
    }

    #[test]
    fn receive_unknown_dataset_errors() {
        let spec = fanout();
        let mut links = Links::new(&spec);
        assert!(links.receive("c1", "missing").is_err());
        assert!(links.receive("p", "grid").is_err());
    }

    #[test]
    fn rank_rng_is_deterministic_and_rank_dependent() {
        let a: Vec<u32> = {
            let mut r = rank_rng(7, "producer", 0);
            (0..4).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = rank_rng(7, "producer", 0);
            (0..4).map(|_| r.gen()).collect()
        };
        let c: Vec<u32> = {
            let mut r = rank_rng(7, "producer", 1);
            (0..4).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn producer_behavior_fails_when_injected() {
        // The failure lands before timestep 1: one step queued, no
        // end-of-stream, so the consumer fails on its second read.
        let spec = fanout();
        let mut links = Links::new(&spec);
        let config = EngineConfig {
            fail_task: Some("p".into()),
            ..config(3)
        };
        let err = produce(&spec.tasks[0], &config, &mut links).unwrap_err();
        assert!(err.contains("injected failure at timestep 1"), "{err}");
        let err = relay(&spec.tasks[1], &EngineConfig::default(), &mut links).unwrap_err();
        assert!(err.contains("without end-of-stream"), "{err}");
        assert_eq!(links.trace.received_count("grid"), 1);
    }
}
