//! Workspace-local stand-in for the subset of `rayon` this workspace
//! uses: `par_iter()`/`into_par_iter()` followed by `map(...).collect()`.
//!
//! Work is chunked evenly across the available cores and executed via
//! `std::thread::scope`: the calling thread works the first chunk and one
//! spawned helper each of the others, and results are returned in input
//! order. Single-element and single-core workloads run inline to avoid
//! spawn overhead.

use std::marker::PhantomData;

fn worker_count(n_items: usize) -> usize {
    if n_items <= 1 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n_items)
}

/// The number of worker threads a parallel pass over `n` items would use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn par_map_collect<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let n = items.len();
    let threads = worker_count(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let f = &f;
    let fill = move |slots: &mut [Option<O>], chunk: Vec<T>| {
        for (slot, item) in slots.iter_mut().zip(chunk) {
            *slot = Some(f(item));
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = chunks.into_iter();
        let first = chunks.next().expect("at least two items");
        let (head, mut slots) = out.split_at_mut(first.len());
        // Helpers take every chunk after the first; the caller works the
        // first one instead of idling until they finish.
        for chunk in chunks {
            let (mine, rest) = slots.split_at_mut(chunk.len());
            slots = rest;
            scope.spawn(move || fill(mine, chunk));
        }
        fill(head, first);
    });
    out.into_iter()
        .map(|o| o.expect("worker filled every slot"))
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

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_collect(self.items, f);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A mapped parallel pipeline; executes on `collect`/`sum`/`reduce`.
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

    pub fn sum<S: std::iter::Sum<O>>(self) -> S {
        par_map_collect(self.items, self.f).into_iter().sum()
    }

    pub fn reduce<ID, R>(self, identity: ID, reduce: R) -> O
    where
        ID: Fn() -> O,
        R: Fn(O, O) -> O,
    {
        par_map_collect(self.items, self.f)
            .into_iter()
            .fold(identity(), reduce)
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

impl<O, E> FromParallelIterator<Result<O, E>> for Result<Vec<O>, E> {
    fn from_par_vec(items: Vec<Result<O, E>>) -> Self {
        items.into_iter().collect()
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

macro_rules! range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

range_par_iter!(u32, u64, usize, i32, i64);

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

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        self.as_slice().par_iter()
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
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let data = vec![1u64, 2, 3, 4, 5];
        let out: Vec<u64> = data.par_iter().map(|&x| x * x).collect();
        assert_eq!(out, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn caller_thread_works_the_first_chunk() {
        let caller = std::thread::current().id();
        let ids: Vec<_> = (0..3usize)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_eq!(ids[0], caller);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }
}
