//! Workspace-local stand-in for the subset of `rayon` this workspace
//! uses: `par_iter()`/`into_par_iter()` followed by `map(...).collect()`
//! into a `Vec`, plus the pool and thread-count calls.
//!
//! Items are claimed one at a time from a shared atomic cursor and run on
//! `std::thread::scope` threads: the calling thread claims the first item
//! before it spawns one helper per other core, and every thread takes the
//! next unclaimed item as soon as it finishes one, so uneven items still
//! share the cores. Each result lands in its item's slot, so results come
//! back in input order whatever thread ran them. Single-element and
//! single-core workloads run inline to avoid spawn overhead. Like rayon's
//! global pool, the thread count is fixed at first use;
//! [`ThreadPool::install`] runs a closure with another count.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// The thread count of the [`ThreadPool`] installed on this thread.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads a parallel pass can use: that of the
/// [`ThreadPool`] installed on the calling thread, or else the host's
/// available parallelism, read once per process.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    INSTALLED.with(Cell::get).unwrap_or_else(|| {
        *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    })
}

/// Configures a [`ThreadPool`]: rayon's builder, for its one setting this
/// workspace uses.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// The pool's thread count; 0 (the default) takes the global count.
    pub fn num_threads(self, num_threads: usize) -> Self {
        Self { num_threads }
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => current_num_threads(),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// Never returned: building a pool cannot fail here.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// A thread count for the parallel passes run inside
/// [`install`](Self::install).
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool's thread count.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        /// Restores the outer count, also when `op` panics.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.replace(Some(self.threads))));
        op()
    }
}

fn par_map_collect<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    map_on(current_num_threads(), items, f)
}

/// `f` over `items` on at most `threads` threads, results in input order.
fn map_on<T, O, F>(threads: usize, items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Each index is claimed by exactly one `fetch_add`; the items and
    // results themselves pass through the slots' mutexes, so the cursor
    // publishes nothing and can be relaxed.
    let cursor = AtomicUsize::new(0);
    // Runs item `i`, then every item claimed after it, until none is left.
    let work = |mut i: usize| {
        while i < n {
            let item = slots[i]
                .lock()
                .expect("no thread panics holding a slot")
                .take();
            let o = f(item.expect("each item is claimed once"));
            *out[i].lock().expect("no thread panics holding a slot") = Some(o);
            i = cursor.fetch_add(1, Ordering::Relaxed);
        }
    };
    std::thread::scope(|scope| {
        let first = cursor.fetch_add(1, Ordering::Relaxed);
        for _ in 1..threads {
            scope.spawn(|| work(cursor.fetch_add(1, Ordering::Relaxed)));
        }
        work(first);
    });
    out.into_iter()
        .map(|o| {
            o.into_inner()
                .expect("no thread panics holding a slot")
                .expect("a worker filled every slot")
        })
        .collect()
}

/// An unstarted parallel pipeline over materialized items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<O, F>(self, f: F) -> ParMap<T, O, F>
    where
        O: Send,
        F: Fn(T) -> O + Sync,
    {
        ParMap {
            items: self.items,
            f,
            _out: PhantomData,
        }
    }
}

/// A mapped parallel pipeline; executes on `collect`.
pub struct ParMap<T, O, F> {
    items: Vec<T>,
    f: F,
    _out: PhantomData<O>,
}

impl<T, O, F> ParMap<T, O, F>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    pub fn collect<C: FromParallelIterator<O>>(self) -> C {
        C::from_par_vec(par_map_collect(self.items, self.f))
    }
}

/// Collection types buildable from an ordered parallel result.
pub trait FromParallelIterator<O> {
    fn from_par_vec(items: Vec<O>) -> Self;
}

impl<O> FromParallelIterator<O> for Vec<O> {
    fn from_par_vec(items: Vec<O>) -> Self {
        items
    }
}

/// `into_par_iter()` — consuming conversion.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_iter()` — borrowing conversion.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

pub mod prelude {
    pub use super::{FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = items.into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        // A `Vec` reaches the slice impl through auto-deref.
        let data: Vec<u64> = (1..=5).collect();
        let out: Vec<u64> = data.par_iter().map(|&x| x * x).collect();
        assert_eq!(out, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn caller_thread_works_the_first_chunk() {
        let caller = std::thread::current().id();
        let ids: Vec<_> = vec![(); 3]
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_eq!(ids[0], caller);
    }

    #[test]
    fn every_item_runs_once_in_input_order_at_any_worker_count() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for threads in 1..=3 {
            for n in [0usize, 1, 2, 3, 7, 1000] {
                let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let out = super::map_on(threads, (0..n).collect(), |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                });
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "{threads} workers, {n} items"
                );
            }
        }
    }

    #[test]
    fn an_installed_pool_sets_the_thread_count() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let threads = pool.install(|| {
            vec![(); 64]
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect::<Vec<_>>()
        });
        assert_eq!(pool.install(super::current_num_threads), 3);
        assert!(
            threads
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                <= 3
        );
        let one = super::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let caller = std::thread::current().id();
        let ids: Vec<_> = one.install(|| {
            vec![(); 5]
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }
}
