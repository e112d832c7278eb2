//! Figs. 1–4 (§III): the empirical-study experiments as benches — each
//! bench regenerates the corresponding figure at a reduced scale, so
//! regressions in the signal-model pipeline show up as timing changes and
//! the figures stay reproducible from the bench harness as well.

use criterion::{criterion_group, criterion_main, Criterion};
use rups_eval::figures::{fig01, fig02, fig03, fig04};
use std::hint::black_box;

fn bench_fig01_spectrogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("empirical/fig01_spectrogram");
    g.sample_size(10);
    let p = fig01::Params {
        n_channels: 64,
        len_m: 120,
    };
    g.bench_function("two_roads_three_entries", |b| {
        b.iter(|| black_box(fig01::run(black_box(&p))))
    });
    g.finish();
}

fn bench_fig02_stability(c: &mut Criterion) {
    let mut g = c.benchmark_group("empirical/fig02_stability");
    g.sample_size(10);
    let p = fig02::quick_params();
    g.bench_function("power_vector_pairs", |b| {
        b.iter(|| black_box(fig02::run(black_box(&p))))
    });
    g.finish();
}

fn bench_fig03_uniqueness(c: &mut Criterion) {
    let mut g = c.benchmark_group("empirical/fig03_uniqueness");
    g.sample_size(10);
    let p = fig03::quick_params();
    g.bench_function("trajectory_cdfs", |b| {
        b.iter(|| black_box(fig03::run(black_box(&p))))
    });
    g.finish();
}

fn bench_fig04_resolution(c: &mut Criterion) {
    let mut g = c.benchmark_group("empirical/fig04_resolution");
    g.sample_size(10);
    let p = fig04::quick_params();
    g.bench_function("relative_change_sweep", |b| {
        b.iter(|| black_box(fig04::run(black_box(&p))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig01_spectrogram,
    bench_fig02_stability,
    bench_fig03_uniqueness,
    bench_fig04_resolution
);
criterion_main!(benches);
