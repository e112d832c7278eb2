//! Per-kernel nanoseconds for the SYN hot path: lane accumulators, the
//! packed real-FFT layer, and the two whole-context scan variants.
//!
//! The workload lives in `rups_bench::syn_kernels` so the `bench_gate` CI
//! binary measures exactly the same cases against the committed baseline
//! (`results/BENCH_syn_kernels.json`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rups_bench::syn_kernels::{CONTEXT_M, N_CHANNELS, WINDOW_M};
use rups_bench::{baseline, bench_config, synthetic_context};
use rups_core::dsp;
use rups_core::stats::PairSums;
use rups_core::syn::{slide_scores, slide_scores_reference};
use rups_core::testfield;
use rups_core::window::CheckWindow;

fn row(seed: u64, ch: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| testfield::rssi(seed, i as f64, ch) as f64)
        .collect()
}

fn bench_lane_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("syn_kernels/lanes");
    let xs = row(3, 0, 4096);
    group.bench_function(BenchmarkId::new("sum_sumsq", 4096), |b| {
        b.iter(|| dsp::sum_sumsq(std::hint::black_box(&xs)))
    });
    let pa: Vec<f32> = (0..4096).map(|i| testfield::rssi(5, i as f64, 0)).collect();
    let pb: Vec<f32> = (0..4096).map(|i| testfield::rssi(5, i as f64, 1)).collect();
    group.bench_function(BenchmarkId::new("pair_accumulate", 4096), |b| {
        b.iter(|| PairSums::accumulate(std::hint::black_box(&pa), std::hint::black_box(&pb)))
    });
    group.finish();
}

fn bench_fft_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("syn_kernels/fft");
    let f = row(7, 0, WINDOW_M);
    let s = row(7, 1, CONTEXT_M);
    let size = dsp::corr_fft_size(WINDOW_M, CONTEXT_M);
    let (mut work, mut xa, mut xb) = (Vec::new(), Vec::new(), Vec::new());
    group.bench_function(BenchmarkId::new("real_fft_pair", size), |b| {
        b.iter(|| {
            dsp::real_spectra_pair_into(
                std::hint::black_box(&f),
                std::hint::black_box(&s[..WINDOW_M]),
                true,
                size,
                &mut work,
                &mut xa,
                &mut xb,
            )
        })
    });
    group.finish();
}

fn bench_scan_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("syn_kernels/scan");
    let cfg = bench_config(N_CHANNELS, WINDOW_M, N_CHANNELS);
    let fixed = synthetic_context(11, 0, CONTEXT_M, N_CHANNELS);
    let sliding = synthetic_context(11, 20, CONTEXT_M, N_CHANNELS);
    let window = CheckWindow::for_context(&fixed, &cfg).expect("bench window");
    let fixed_start = CONTEXT_M - WINDOW_M;
    let id = format!("{N_CHANNELS}x{WINDOW_M}x{CONTEXT_M}");
    group.bench_function(BenchmarkId::new("reference", &id), |b| {
        b.iter(|| slide_scores_reference(&fixed, fixed_start, &sliding, &window))
    });
    group.bench_function(BenchmarkId::new("rolling", &id), |b| {
        b.iter(|| slide_scores(&fixed, fixed_start, &sliding, &window))
    });
    group.finish();
}

/// Re-measures every case with a plain wall clock and writes the committed
/// machine-readable baseline (`results/BENCH_syn_kernels.json`, format in
/// EXPERIMENTS.md).
fn write_baseline() {
    let out = rups_bench::syn_kernels::measure(15);
    let path = baseline::default_path("syn_kernels");
    baseline::write(&path, &out);
    eprintln!("baseline written to {path}");
}

criterion_group!(
    syn_kernels,
    bench_lane_kernels,
    bench_fft_kernels,
    bench_scan_kernels
);

fn main() {
    syn_kernels();
    write_baseline();
}
