//! Per-kernel nanoseconds for the SYN hot path — lane accumulators, the
//! packed real-FFT layer and the two whole-context scans: the gated
//! [`rups_bench::syn_kernels`] workload, printed and, with
//! `RUPS_BENCH_OUT_DIR` set, written as its baseline.

use rups_bench::baseline::{publish, BASELINE_SAMPLES};

fn main() {
    publish(&rups_bench::syn_kernels::measure(BASELINE_SAMPLES));
}
