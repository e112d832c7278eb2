//! Deterministic epoch scheduler: the rayon shim's cursor map.
//!
//! Each epoch the fleet produces one item per observer: the fix queries
//! it runs against its in-radius neighbours. The calling thread claims
//! item 0 and works as worker 0; `workers − 1` scoped helpers each claim
//! the next unclaimed index from one shared atomic cursor, and every
//! worker takes the next item as soon as it finishes one, so a dense
//! downtown observer does not hold up the rest. An observer's fixes run
//! back to back on one worker, against that observer's warm engine.
//!
//! **Determinism argument** (relied on by the differential test): each
//! item is a pure function of its inputs (a SYN fix query touches only
//! the observer's engine and the neighbour's snapshot — no shared mutable
//! state, no RNG, no clock), and its results are written into the item's
//! slot. Scheduling therefore only decides *which worker* runs an item,
//! never its inputs or where its results land, so the returned vector is
//! bit-identical for any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What the scheduler did, for telemetry and the scaling figure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Results produced in the batch (fix queries run).
    pub tasks: u64,
    /// Always 0: workers claim items from one cursor and never steal.
    pub steals: u64,
    /// Results produced by each worker, the caller first: one entry per
    /// worker started, `workers` capped at the item count (at least 1).
    pub per_worker: Vec<u64>,
}

/// Runs `run` over every item on at most `workers` threads; returns each
/// item's results in item order plus what each worker ran.
///
/// The output is deterministic in the item list alone: the worker count
/// cannot affect it (see the module docs).
pub(crate) fn run_tasks<T, R, F>(items: &[T], workers: usize, run: F) -> (Vec<Vec<R>>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Vec<R> + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Each index is claimed by exactly one `fetch_add`; the results pass
    // through the slots' mutexes, so the cursor publishes nothing and can
    // be relaxed.
    let cursor = AtomicUsize::new(0);
    // Runs item `i`, then every item claimed after it, until none is left;
    // returns how many results this worker produced.
    let work = |mut i: usize| {
        let mut ran = 0;
        while i < n {
            let out = run(&items[i]);
            ran += out.len() as u64;
            *slots[i].lock().expect("no worker panics holding a slot") = Some(out);
            i = cursor.fetch_add(1, Ordering::Relaxed);
        }
        ran
    };
    let per_worker: Vec<u64> = std::thread::scope(|scope| {
        let first = cursor.fetch_add(1, Ordering::Relaxed);
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| work(cursor.fetch_add(1, Ordering::Relaxed))))
            .collect();
        let mut per_worker = vec![work(first)];
        per_worker.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("scheduler worker panicked")),
        );
        per_worker
    });
    let results: Vec<Vec<R>> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot")
                .expect("a worker filled every slot")
        })
        .collect();
    (
        results,
        StealStats {
            tasks: per_worker.iter().sum(),
            steals: 0,
            per_worker,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::Duration;

    const SIZES: [usize; 4] = [0, 1, 7, 1000];

    /// Item `t` yields `t % 3` results, so items of no, one and several
    /// results all occur.
    fn results_of(t: usize) -> Vec<usize> {
        (0..t % 3).map(|k| t * t + k).collect()
    }

    #[test]
    fn results_keep_task_order_for_any_worker_count() {
        for n in SIZES {
            let items: Vec<usize> = (0..n).collect();
            let expected: Vec<Vec<usize>> = items.iter().map(|&t| results_of(t)).collect();
            let total = expected.iter().map(Vec::len).sum::<usize>() as u64;
            for workers in 1..=4 {
                let (got, stats) = run_tasks(&items, workers, |&t| results_of(t));
                assert_eq!(got, expected, "{workers} workers, {n} items");
                assert_eq!(stats.tasks, total);
                assert_eq!(stats.steals, 0);
                assert_eq!(stats.per_worker.iter().sum::<u64>(), total);
                assert_eq!(stats.per_worker.len(), workers.min(n).max(1));
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for n in SIZES {
            let items: Vec<usize> = (0..n).collect();
            for workers in 1..=4 {
                let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                run_tasks(&items, workers, |&t| {
                    counters[t].fetch_add(1, Ordering::Relaxed);
                    vec![t]
                });
                assert!(
                    counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "{workers} workers, {n} items"
                );
            }
        }
    }

    #[test]
    fn a_slow_first_item_does_not_hold_the_rest() {
        // The caller's item 0 waits until every other item has run, which
        // only the helper can do while the caller is busy.
        let items: Vec<usize> = (0..64).collect();
        let (done, ran) = (Mutex::new(0), Condvar::new());
        let (got, stats) = run_tasks(&items, 2, |&t| {
            let mut n = done.lock().expect("no test thread panics holding it");
            if t > 0 {
                *n += 1;
                ran.notify_one();
                return vec![t];
            }
            let (n, _) = ran
                .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 63)
                .expect("no test thread panics holding it");
            vec![*n]
        });
        assert_eq!(got[0], vec![63], "the other items waited for the first");
        assert_eq!(stats.per_worker, vec![1, 63]);
    }

    #[test]
    fn empty_and_tiny_batches() {
        for workers in 1..=4 {
            let (r, stats) = run_tasks::<u32, u32, _>(&[], workers, |&t| vec![t]);
            assert!(r.is_empty());
            assert_eq!(stats.tasks, 0);
            assert_eq!(stats.per_worker, vec![0]);
            let (r, stats) = run_tasks(&[7u32], workers, |&t| vec![t + 1]);
            assert_eq!(r, vec![vec![8]]);
            assert_eq!(stats.per_worker, vec![1]);
        }
    }
}
