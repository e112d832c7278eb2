//! Ablations of RUPS design choices (DESIGN.md §5): aggregation scheme,
//! window geometry, missing-channel interpolation and channel-subset size.
//!
//! These quantify the *cost* side of each design knob; the accuracy side is
//! covered by the rups-eval figure modules and integration tests.

use rups_bench::baseline::time_case;
use rups_bench::{bench_config, bench_scale, quick_trace};
use rups_core::config::AggregationScheme;
use rups_core::geo::GeoSample;
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::pipeline::RupsNode;
use rups_core::syn::{find_best_syn, find_syn_points};
use rups_eval::figures::cost::synthetic_context;
use rups_eval::queries::query_at;
use rups_eval::sample_query_times;
use std::hint::black_box;
use urban_sim::road::RoadClass;

const BENCH: &str = "ablation";

/// Aggregation schemes: the cost of multi-SYN vs single-SYN queries on a
/// real trace (the accuracy trade-off is Fig. 10).
fn aggregation_schemes() {
    let trace = quick_trace(0xAB1, RoadClass::Urban4Lane);
    let t = sample_query_times(&trace, 1, 1)[0];
    for (label, scheme, n_syn) in [
        ("single_syn", AggregationScheme::Single, 1usize),
        ("simple_avg_5", AggregationScheme::SimpleAverage, 5),
        ("selective_avg_5", AggregationScheme::SelectiveAverage, 5),
        ("median_5", AggregationScheme::Median, 5),
    ] {
        let mut cfg = bench_scale().rups_config();
        cfg.aggregation = scheme;
        cfg.n_syn_points = n_syn;
        time_case(BENCH, format!("aggregation/{label}"), || {
            query_at(black_box(&trace), &cfg, t)
        });
    }
}

/// Interpolating missing channels vs matching on the raw (NaN-holed)
/// context.
fn interpolation() {
    let trace = quick_trace(0xAB2, RoadClass::Urban4Lane);
    let t = sample_query_times(&trace, 1, 2)[0];
    for (label, interp) in [("interpolated", true), ("raw_missing", false)] {
        let mut cfg = bench_scale().rups_config();
        cfg.interpolate_missing = interp;
        time_case(BENCH, format!("interpolation/{label}"), || {
            query_at(black_box(&trace), &cfg, t)
        });
    }
}

/// The flexible-window policy of §V-C: cost of matching with short
/// contexts (a vehicle that just turned) vs the full window.
fn short_context_windows() {
    for ctx_len in [30usize, 85, 300, 1000] {
        let cfg = bench_config(64, 85, 45);
        let a = synthetic_context(7, 0, ctx_len, 64);
        let b = synthetic_context(7, ctx_len / 4, ctx_len, 64);
        time_case(BENCH, format!("short_context/{ctx_len}"), || {
            find_best_syn(black_box(&a), black_box(&b), &cfg)
        });
    }
}

/// Multi-SYN search cost as the number of SYN points grows.
fn n_syn_points() {
    let a = synthetic_context(8, 0, 800, 64);
    let b = synthetic_context(8, 200, 800, 64);
    for n in [1usize, 3, 5, 9] {
        let mut cfg = bench_config(64, 85, 45);
        cfg.n_syn_points = n;
        time_case(BENCH, format!("n_syn_points/{n}"), || {
            find_syn_points(black_box(&a), black_box(&b), &cfg)
        });
    }
}

/// §V-B tracking: the anchored incremental check vs a full search, the
/// speedup that makes 10 Hz neighbour tracking affordable.
fn tracking_vs_full() {
    let cfg = bench_config(64, 85, 45);
    let a = synthetic_context(0xAB4, 0, 1000, 64);
    let b = synthetic_context(0xAB4, 250, 1000, 64);
    time_case(BENCH, "tracking/full_search", || {
        find_syn_points(black_box(&a), black_box(&b), &cfg)
    });
    let node_with = |t: &GsmTrajectory, id: u64| {
        let mut node = RupsNode::new(cfg.clone()).with_vehicle_id(id);
        for i in 0..t.len() {
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: i as f64,
            };
            let pv = PowerVector::from_fn(t.n_channels(), |ch| t.get(ch, i));
            node.append_metre(geo, &pv).unwrap();
        }
        node
    };
    let mut ours = node_with(&a, 1);
    let theirs = node_with(&b, 2).snapshot(None);
    ours.tracked_fix(&theirs).unwrap(); // acquire once before timing
    time_case(BENCH, "tracking/anchored_incremental", || {
        ours.tracked_fix(black_box(&theirs)).unwrap()
    });
}

fn main() {
    aggregation_schemes();
    interpolation();
    short_context_windows();
    n_syn_points();
    tracking_vs_full();
}
