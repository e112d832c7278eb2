//! The `syn_batch` workload, measured by the `syn_batch` bench and by the
//! CI regression gate (`bench_gate`): one epoch of neighbour distance
//! queries through the batched engine vs the naive pre-engine path.
//!
//! `batched` answers the whole epoch through
//! `RupsNode::fix_distances_parallel` — one `SynQueryEngine` search whose
//! directed passes spread over the rayon shim's cursor map, sharing the
//! cached interpolated context, window memo, the own rows' rolled tables,
//! spectra and pooled scratch arenas.
//! `naive` replays what every query used to cost before the engine: clone
//! and interpolate the own context, re-select every window and run the
//! reference multi-SYN search, once per neighbour, sequentially.

use crate::baseline::{self, Baseline, BenchCase, CacheRates};
use crate::bench_config;
use rups_core::gsm::GsmTrajectory;
use rups_core::pipeline::{ContextSnapshot, RupsNode};
use rups_core::resolve;
use rups_core::syn;
use rups_core::{GeoSample, GeoTrajectory, PowerVector};
use rups_eval::figures::cost::synthetic_context;

/// Own journey-context length, metres.
pub const CONTEXT_M: usize = 400;
/// Channels in the synthetic band.
pub const N_CHANNELS: usize = 24;
/// Batch sizes measured, one pair of cases (`batched/n`, `naive/n`) each.
pub const BATCH_SIZES: [usize; 3] = [1, 8, 32];

/// The querying node: a full synthetic context under the paper's window
/// geometry.
fn build_node(seed: u64) -> RupsNode {
    let cfg = bench_config(N_CHANNELS, 85, 24);
    let mut node = RupsNode::new(cfg);
    let ctx = synthetic_context(seed, 0, CONTEXT_M, N_CHANNELS);
    for i in 0..ctx.len() {
        let pv = PowerVector::from_fn(N_CHANNELS, |ch| ctx.get(ch, i));
        node.append_metre(
            GeoSample {
                heading_rad: 0.0,
                timestamp_s: i as f64,
            },
            &pv,
        )
        .unwrap();
    }
    node
}

/// `n` neighbour snapshots at staggered offsets over the same field.
fn neighbour_snapshots(seed: u64, n: usize) -> Vec<ContextSnapshot> {
    (0..n)
        .map(|i| {
            // Snapshot validation requires aligned geo/gsm halves.
            let mut geo = GeoTrajectory::new();
            for m in 0..CONTEXT_M {
                geo.push(GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: m as f64,
                });
            }
            ContextSnapshot {
                vehicle_id: Some(i as u64),
                geo,
                gsm: synthetic_context(seed, 20 + 7 * i, CONTEXT_M, N_CHANNELS),
                trace: None,
            }
        })
        .collect()
}

/// The pre-engine query path: per-neighbour context interpolation plus the
/// reference multi-SYN search, no caching of any querying-side quantity.
fn naive_fix(node: &RupsNode, neighbour: &GsmTrajectory) -> f64 {
    let ours = node.gsm_trajectory().interpolated();
    let points = syn::find_syn_points(&ours, neighbour, node.config()).unwrap();
    let (distance_m, _) = resolve::aggregate_distance(
        &points,
        ours.len(),
        neighbour.len(),
        node.config().aggregation,
    )
    .unwrap();
    distance_m
}

/// Measures every case with a plain wall clock and returns the
/// machine-readable baseline (the committed `results/BENCH_syn_batch.json`
/// is one of these with `samples = 15`): median ns per fix per case, plus
/// the engine's cache-hit rates while driving the batched path.
pub fn measure(samples: usize) -> Baseline {
    let node = build_node(21);
    let mut cases = Vec::new();
    for &n in &BATCH_SIZES {
        let snaps = neighbour_snapshots(21, n);
        // Keep per-sample wall time roughly flat across input sizes.
        let iters = (32 / n).max(1);
        let batched = baseline::measure_median_ns_per_op(samples, iters, n, || {
            let fixes = node.fix_distances_parallel(&snaps);
            assert!(fixes.iter().all(|f| f.is_ok()));
        });
        cases.push(BenchCase {
            id: format!("batched/{n}"),
            ops_per_iter: n,
            median_ns_per_op: batched,
            samples,
        });
        let naive = baseline::measure_median_ns_per_op(samples, iters, n, || {
            for s in &snaps {
                naive_fix(&node, &s.gsm);
            }
        });
        cases.push(BenchCase {
            id: format!("naive/{n}"),
            ops_per_iter: n,
            median_ns_per_op: naive,
            samples,
        });
    }
    let stats = node.engine_stats();
    Baseline {
        bench: "syn_batch".into(),
        cases,
        engine: Some(CacheRates {
            context_hit_rate: stats.context_hit_rate(),
            window_hit_rate: stats.window_hit_rate(),
            scratch_reuse_rate: stats.scratch_reuse_rate(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_fixes_resolve_and_caches_hit() {
        let node = build_node(21);
        let snaps = neighbour_snapshots(21, 4);
        let fixes = node.fix_distances_parallel(&snaps);
        for (i, fix) in fixes.iter().enumerate() {
            let d = fix.as_ref().unwrap().distance_m;
            let expect = (20 + 7 * i) as f64;
            assert!((d - expect).abs() < 1.5, "slot {i}: {d} vs {expect}");
        }
        let stats = node.engine_stats();
        assert!(stats.context_rebuilds <= 1, "context must be cached");
        assert!(stats.window_hits > 0, "window memo must be hit");
    }

    #[test]
    fn measure_produces_the_committed_shape() {
        let b = measure(1);
        assert_eq!(b.bench, "syn_batch");
        assert_eq!(b.cases.len(), 2 * BATCH_SIZES.len());
        assert!(b.cases.iter().all(|c| c.median_ns_per_op > 0.0));
        let rates = b.engine.expect("engine rates present");
        assert!(rates.context_hit_rate > 0.5);
    }
}
