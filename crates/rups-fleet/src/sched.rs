//! Deterministic work-stealing epoch scheduler.
//!
//! Each epoch the fleet produces a batch of pending fix queries. They are
//! dealt to per-worker deques in contiguous index blocks; every worker
//! drains its own deque from the front and, when empty, steals the back
//! half of the first non-empty victim deque. Stealing balances the skew a
//! geographic shard layout inevitably produces (a dense downtown cell can
//! hold 10× the queries of a suburban one) without any global queue
//! contention on the happy path.
//!
//! **Determinism argument** (relied on by the differential test): every
//! task carries its index in the batch, each task is a pure function of
//! its inputs (a SYN fix query touches only the observer's engine and the
//! neighbour's snapshot — no shared mutable state, no RNG, no clock), and
//! results are written back into a slot array by task index. Scheduling
//! therefore only permutes *execution order*, never *inputs* or *output
//! placement*, so the returned vector is bit-identical for any worker
//! count — including the sequential `workers == 1` fast path.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the scheduler did, for telemetry and the scaling figure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Tasks executed in the batch.
    pub tasks: u64,
    /// Successful steal operations (batches of tasks moved, not tasks).
    pub steals: u64,
    /// Tasks executed by each worker (length = worker count).
    pub per_worker: Vec<u64>,
}

/// Runs `run` over every task on `workers` threads with work stealing;
/// returns the results in task order plus scheduling statistics.
///
/// The output is deterministic in the task list alone: worker count and
/// steal interleaving cannot affect it (see the module docs).
pub fn run_tasks<T, R, F>(tasks: &[T], workers: usize, run: F) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = tasks.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        let results = tasks.iter().map(&run).collect();
        return (
            results,
            StealStats {
                tasks: n as u64,
                steals: 0,
                per_worker: vec![n as u64],
            },
        );
    }

    // Deal contiguous index blocks so neighbouring tasks (same observer,
    // warm engine caches) start on the same worker.
    let chunk = n.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            Mutex::new((lo..hi.max(lo)).collect())
        })
        .collect();
    let steals = AtomicU64::new(0);

    let done_lists: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let steals = &steals;
                let run = &run;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Drain our own deque front-first.
                        let next = deques[w].lock().pop_front();
                        if let Some(idx) = next {
                            done.push((idx, run(&tasks[idx])));
                            continue;
                        }
                        // Steal the back half of the first non-empty victim.
                        let mut stolen: Option<VecDeque<usize>> = None;
                        for v in 1..workers {
                            let victim = (w + v) % workers;
                            let mut q = deques[victim].lock();
                            if !q.is_empty() {
                                let keep = q.len() / 2;
                                stolen = Some(q.split_off(keep));
                                break;
                            }
                        }
                        match stolen {
                            Some(batch) => {
                                steals.fetch_add(1, Ordering::Relaxed);
                                // Only the owner ever pushes into its own
                                // deque, so it is still empty here.
                                *deques[w].lock() = batch;
                            }
                            // Every deque empty: no task can create more
                            // work, so the batch is finished.
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduler worker panicked"))
            .collect()
    });

    // Merge worker-local results back into task order. Scheduling decided
    // only *which worker* computed each slot, never its value.
    let per_worker: Vec<u64> = done_lists.iter().map(|d| d.len() as u64).collect();
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    for done in done_lists {
        for (idx, r) in done {
            debug_assert!(results[idx].is_none(), "task {idx} executed twice");
            results[idx] = Some(r);
        }
    }
    let results: Vec<R> = results
        .into_iter()
        .map(|slot| slot.expect("every task index must be executed exactly once"))
        .collect();
    (
        results,
        StealStats {
            tasks: n as u64,
            steals: steals.load(Ordering::Relaxed),
            per_worker,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_task_order_for_any_worker_count() {
        let tasks: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = tasks.iter().map(|t| t * t + 1).collect();
        for workers in [1, 2, 3, 4, 8] {
            let (got, stats) = run_tasks(&tasks, workers, |&t| t * t + 1);
            assert_eq!(got, expected, "workers={workers}");
            assert_eq!(stats.tasks, 257);
            assert_eq!(stats.per_worker.iter().sum::<u64>(), 257);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let tasks: Vec<usize> = (0..1000).collect();
        let counters: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let (_, stats) = run_tasks(&tasks, 4, |&t| {
            counters[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.per_worker.len(), 4);
    }

    #[test]
    fn skewed_batches_get_stolen() {
        // Make the first block far more expensive than the rest: idle
        // workers must steal from it to finish.
        let tasks: Vec<u32> = (0..64).collect();
        let (_, stats) = run_tasks(&tasks, 4, |&t| {
            if t < 16 {
                // Slow tasks only on the first worker's initial block. They
                // sleep rather than spin: a spinning worker 0 on a 2-core
                // host can finish its whole block before the other scoped
                // threads start, and then steal every remaining task.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t as u64
        });
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
        // The expensive block cannot all have stayed on worker 0.
        assert!(stats.per_worker[0] < 64);
        assert_eq!(stats.per_worker.iter().sum::<u64>(), 64);
    }

    #[test]
    fn empty_and_tiny_batches() {
        let (r, stats) = run_tasks::<u32, u32, _>(&[], 4, |&t| t);
        assert!(r.is_empty());
        assert_eq!(stats.tasks, 0);
        let (r, _) = run_tasks(&[7u32], 4, |&t| t + 1);
        assert_eq!(r, vec![8]);
    }
}
