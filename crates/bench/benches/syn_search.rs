//! §V-A: computational cost of the SYN-point search, `O(mwk)`.
//!
//! The paper measures ≈1.2 ms for a 1000 m context with a 45-channel ×
//! 100 m window (i7-2640M). These benches sweep each factor of the `O(mwk)`
//! bound independently. The engine's two kernels are compared in the
//! `syn_kernels` and `syn_batch` benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rups_bench::{bench_config, synthetic_context};
use rups_core::syn::find_best_syn;
use std::hint::black_box;

/// Sweep the context length m (paper operating point: m = 1000).
fn bench_context_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("syn_search/context_length_m");
    g.sample_size(10);
    for m in [250usize, 500, 1000, 2000] {
        let cfg = bench_config(194, 100, 45);
        let a = synthetic_context(1, 0, m, 194);
        let b = synthetic_context(1, m / 3, m, 194);
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |bench, _| {
            bench.iter(|| black_box(find_best_syn(black_box(&a), black_box(&b), &cfg)))
        });
    }
    g.finish();
}

/// Sweep the window length w.
fn bench_window_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("syn_search/window_length_m");
    g.sample_size(10);
    let a = synthetic_context(2, 0, 1000, 194);
    let b = synthetic_context(2, 300, 1000, 194);
    for w in [25usize, 50, 100, 200] {
        let cfg = bench_config(194, w, 45);
        g.bench_with_input(BenchmarkId::from_parameter(w), &w, |bench, _| {
            bench.iter(|| black_box(find_best_syn(black_box(&a), black_box(&b), &cfg)))
        });
    }
    g.finish();
}

/// Sweep the window width k (channels compared).
fn bench_window_channels(c: &mut Criterion) {
    let mut g = c.benchmark_group("syn_search/window_channels_k");
    g.sample_size(10);
    let a = synthetic_context(3, 0, 1000, 194);
    let b = synthetic_context(3, 300, 1000, 194);
    for k in [10usize, 45, 90, 194] {
        let cfg = bench_config(194, 100, k);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| black_box(find_best_syn(black_box(&a), black_box(&b), &cfg)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_context_length,
    bench_window_length,
    bench_window_channels
);
criterion_main!(benches);
