//! Execution scores do not depend on thread scheduling: the execute grid
//! computed while busy threads oversubscribe every CPU four times over is
//! identical to the grid computed on an idle machine.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use wfspeak::core::{Benchmark, BenchmarkConfig, ExecutionGrid, PromptVariant};

fn execution_grid() -> ExecutionGrid {
    Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 1,
        ..BenchmarkConfig::default()
    })
    .run_execution(PromptVariant::Original)
}

/// Threads that spin until dropped, even when the test body panics.
struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    fn start(count: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..count)
            .map(|_| {
                let stop = stop.clone();
                thread::spawn(move || {
                    let mut spins = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        spins = black_box(spins.wrapping_add(1));
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.threads.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[test]
fn execution_grid_is_identical_under_cpu_starving_load() {
    let idle = execution_grid();
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    let loaded = {
        let _spinners = Spinners::start(4 * cpus);
        execution_grid()
    };
    assert_eq!(idle.cells.len(), loaded.cells.len());
    for (a, b) in idle.cells.iter().zip(&loaded.cells) {
        assert_eq!((&a.row, &a.model), (&b.row, &b.model));
        assert_eq!(a.trials, b.trials, "{} / {}", a.row, a.model);
    }
}
