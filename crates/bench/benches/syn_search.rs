//! §V-A: computational cost of the SYN-point search, `O(mwk)`.
//!
//! The paper measures ≈1.2 ms for a 1000 m context with a 45-channel ×
//! 100 m window (i7-2640M). These cases sweep each factor of the `O(mwk)`
//! bound independently. The engine's two kernels are compared in the
//! `syn_kernels` and `syn_batch` benches.

use rups_bench::baseline::time_case;
use rups_bench::bench_config;
use rups_core::syn::find_best_syn;
use rups_eval::figures::cost::synthetic_context;
use std::hint::black_box;

const BENCH: &str = "syn_search";

/// Sweep the context length m (paper operating point: m = 1000).
fn context_length() {
    for m in [250usize, 500, 1000, 2000] {
        let cfg = bench_config(194, 100, 45);
        let a = synthetic_context(1, 0, m, 194);
        let b = synthetic_context(1, m / 3, m, 194);
        time_case(BENCH, format!("context_length_m/{m}"), || {
            find_best_syn(black_box(&a), black_box(&b), &cfg)
        });
    }
}

/// Sweep the window length w.
fn window_length() {
    let a = synthetic_context(2, 0, 1000, 194);
    let b = synthetic_context(2, 300, 1000, 194);
    for w in [25usize, 50, 100, 200] {
        let cfg = bench_config(194, w, 45);
        time_case(BENCH, format!("window_length_m/{w}"), || {
            find_best_syn(black_box(&a), black_box(&b), &cfg)
        });
    }
}

/// Sweep the window width k (channels compared).
fn window_channels() {
    let a = synthetic_context(3, 0, 1000, 194);
    let b = synthetic_context(3, 300, 1000, 194);
    for k in [10usize, 45, 90, 194] {
        let cfg = bench_config(194, 100, k);
        time_case(BENCH, format!("window_channels_k/{k}"), || {
            find_best_syn(black_box(&a), black_box(&b), &cfg)
        });
    }
}

fn main() {
    context_length();
    window_length();
    window_channels();
}
