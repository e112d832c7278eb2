//! Shared workload builders for the rups-bench targets.
//!
//! Every bench regenerating a paper figure pulls its workload from here so
//! the benchmarked code path is exactly the one the `evaluate` binary runs,
//! only at a bench-friendly scale. The four gated workloads live in their
//! own modules so the bench targets and `bench_gate` measure the same
//! cases, and [`baseline`] times and prints every case.

use rups_core::config::RupsConfig;
use rups_eval::figures::EvalScale;
use rups_eval::tracegen::{generate, ScenarioTrace, TraceConfig};
use urban_sim::road::RoadClass;

pub mod baseline;
pub mod codec;
pub mod fleet;
pub mod soak;
pub mod syn_batch;
pub mod syn_kernels;

/// The RUPS configuration for a synthetic-context bench with the paper's
/// window geometry.
pub fn bench_config(n_channels: usize, window_len_m: usize, window_channels: usize) -> RupsConfig {
    RupsConfig {
        n_channels,
        window_len_m,
        window_channels,
        max_context_m: 10_000,
        ..RupsConfig::default()
    }
}

/// The scale used by the figure benches: small enough for
/// [`baseline::time_case`]'s repetitions, large enough to exercise the
/// real path.
pub fn bench_scale() -> EvalScale {
    EvalScale {
        n_queries: 4,
        ..EvalScale::quick()
    }
}

/// A quick trace for the accuracy benches.
pub fn quick_trace(seed: u64, road: RoadClass) -> ScenarioTrace {
    let s = bench_scale();
    generate(&TraceConfig {
        n_channels: s.n_channels,
        scanned_channels: s.scanned_channels,
        route_len_m: s.route_len_m(),
        duration_s: s.duration_s,
        ..TraceConfig::new(seed, road)
    })
}
