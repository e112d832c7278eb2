//! The `syn_kernels` workload: per-kernel nanosecond medians for every
//! primitive on the SYN hot path, measured by the `syn_kernels` bench and
//! by the CI regression gate (`bench_gate`).
//!
//! The batched `syn_batch` workload answers "did the end-to-end fix get
//! slower"; this one answers "which kernel". Each case isolates one
//! primitive at the paper's working set (85 m window, 400 m sliding
//! context, 24 channels), so a regression in e.g. the packed real-FFT
//! split shows up against its own baseline instead of drowning in the
//! surrounding search.

use crate::baseline::{self, Baseline, BenchCase};
use crate::bench_config;
use rups_core::dsp;
use rups_core::stats::PairSums;
use rups_core::syn::{slide_scores, slide_scores_reference};
use rups_core::testfield;
use rups_core::window::CheckWindow;
use rups_eval::figures::cost::synthetic_context;

/// Fixed-window length (the paper's 85 m check window).
pub const WINDOW_M: usize = 85;
/// Sliding-context length, metres.
pub const CONTEXT_M: usize = 400;
/// Channels staged per scan-level case.
pub const N_CHANNELS: usize = 24;

fn row(seed: u64, ch: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| testfield::rssi(seed, i as f64, ch) as f64)
        .collect()
}

fn row32(seed: u64, ch: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| testfield::rssi(seed, i as f64, ch))
        .collect()
}

/// Measures every kernel case and returns the machine-readable baseline
/// (the committed `results/BENCH_syn_kernels.json` is one of these with
/// `samples = 15`). One op = one full call of the kernel at the stated
/// input size; no engine cache rates apply at this level.
pub fn measure(samples: usize) -> Baseline {
    let mut cases = Vec::new();
    let mut case = |id: &str, iters: usize, op: &mut dyn FnMut()| {
        let ns = baseline::measure_median_ns_per_op(samples, iters, 1, op);
        cases.push(BenchCase {
            id: id.into(),
            ops_per_iter: 1,
            median_ns_per_op: ns,
            samples,
        });
    };

    // Lane-level accumulators.
    let xs = row(3, 0, 4096);
    case("sum_sumsq/4096", 256, &mut || {
        std::hint::black_box(dsp::sum_sumsq(std::hint::black_box(&xs)));
    });
    let (pa, pb) = (row32(5, 0, 4096), row32(5, 1, 4096));
    case("pair_accumulate/4096", 256, &mut || {
        std::hint::black_box(PairSums::accumulate(
            std::hint::black_box(&pa),
            std::hint::black_box(&pb),
        ));
    });

    // FFT layer: one packed forward pair at the search geometry (window 85
    // against context 400 -> size 512).
    let f = row(7, 0, WINDOW_M);
    let s = row(7, 1, CONTEXT_M);
    let size = dsp::corr_fft_size(WINDOW_M, CONTEXT_M);
    let (mut work, mut xa, mut xb) = (Vec::new(), Vec::new(), Vec::new());
    case("real_fft_pair/512", 64, &mut || {
        dsp::real_spectra_pair_into(
            std::hint::black_box(&f),
            std::hint::black_box(&s[..WINDOW_M]),
            true,
            size,
            &mut work,
            &mut xa,
            &mut xb,
        );
        std::hint::black_box((&xa, &xb));
    });

    // Scan layer: the two whole-context scorers over dense 24-channel
    // trajectories — the recompute-per-placement reference and the rolling
    // incremental scan.
    let cfg = bench_config(N_CHANNELS, WINDOW_M, N_CHANNELS);
    let fixed = synthetic_context(11, 0, CONTEXT_M, N_CHANNELS);
    let sliding = synthetic_context(11, 20, CONTEXT_M, N_CHANNELS);
    let window = CheckWindow::for_context(&fixed, &cfg).expect("bench window");
    let fixed_start = CONTEXT_M - WINDOW_M;
    case("scan_reference/24x85x400", 2, &mut || {
        std::hint::black_box(slide_scores_reference(
            std::hint::black_box(&fixed),
            fixed_start,
            std::hint::black_box(&sliding),
            &window,
        ));
    });
    case("scan_rolling/24x85x400", 8, &mut || {
        std::hint::black_box(slide_scores(
            std::hint::black_box(&fixed),
            fixed_start,
            std::hint::black_box(&sliding),
            &window,
        ));
    });

    Baseline {
        bench: "syn_kernels".into(),
        cases,
        engine: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_every_kernel_case() {
        let b = measure(1);
        assert_eq!(b.bench, "syn_kernels");
        let ids: Vec<&str> = b.cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "sum_sumsq/4096",
                "pair_accumulate/4096",
                "real_fft_pair/512",
                "scan_reference/24x85x400",
                "scan_rolling/24x85x400",
            ]
        );
        assert!(b.cases.iter().all(|c| c.median_ns_per_op > 0.0));
        assert!(b.engine.is_none(), "no cache rates at kernel level");
    }

    #[test]
    fn rolling_scan_beats_the_recompute_reference() {
        // Not a wall-clock gate (that is bench_gate's job) — a sanity check
        // that the optimised scan is at least not slower than the scan it
        // replaces on this machine.
        let b = measure(3);
        let ns = |id: &str| {
            b.cases
                .iter()
                .find(|c| c.id == id)
                .unwrap()
                .median_ns_per_op
        };
        assert!(ns("scan_rolling/24x85x400") < ns("scan_reference/24x85x400"));
    }
}
