//! Ablations of RUPS design choices (DESIGN.md §5): aggregation scheme,
//! window geometry, missing-channel interpolation and channel-subset size.
//!
//! These quantify the *cost* side of each design knob; the accuracy side is
//! covered by the rups-eval figure modules and integration tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rups_bench::{bench_config, bench_scale, quick_trace, synthetic_context};
use rups_core::config::AggregationScheme;
use rups_core::syn::{find_best_syn, find_syn_points};
use rups_eval::queries::query_at;
use rups_eval::sample_query_times;
use std::hint::black_box;
use urban_sim::road::RoadClass;

/// Aggregation schemes: the cost of multi-SYN vs single-SYN queries on a
/// real trace (the accuracy trade-off is Fig. 10).
fn bench_aggregation_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/aggregation");
    g.sample_size(10);
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
        g.bench_function(label, |b| {
            b.iter(|| black_box(query_at(black_box(&trace), &cfg, t)))
        });
    }
    g.finish();
}

/// Interpolating missing channels vs matching on the raw (NaN-holed)
/// context.
fn bench_interpolation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/interpolation");
    g.sample_size(10);
    let trace = quick_trace(0xAB2, RoadClass::Urban4Lane);
    let t = sample_query_times(&trace, 1, 2)[0];
    for (label, interp) in [("interpolated", true), ("raw_missing", false)] {
        let mut cfg = bench_scale().rups_config();
        cfg.interpolate_missing = interp;
        g.bench_function(label, |b| {
            b.iter(|| black_box(query_at(black_box(&trace), &cfg, t)))
        });
    }
    g.finish();
}

/// The flexible-window policy of §V-C: cost of matching with short
/// contexts (a vehicle that just turned) vs the full window.
fn bench_short_context_windows(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/short_context");
    g.sample_size(10);
    for ctx_len in [30usize, 85, 300, 1000] {
        let cfg = bench_config(64, 85, 45);
        let a = synthetic_context(7, 0, ctx_len, 64);
        let b = synthetic_context(7, ctx_len / 4, ctx_len, 64);
        g.bench_with_input(
            BenchmarkId::from_parameter(ctx_len),
            &ctx_len,
            |bench, _| bench.iter(|| black_box(find_best_syn(black_box(&a), black_box(&b), &cfg))),
        );
    }
    g.finish();
}

/// Multi-SYN search cost as the number of SYN points grows.
fn bench_n_syn_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/n_syn_points");
    g.sample_size(10);
    let a = synthetic_context(8, 0, 800, 64);
    let b = synthetic_context(8, 200, 800, 64);
    for n in [1usize, 3, 5, 9] {
        let mut cfg = bench_config(64, 85, 45);
        cfg.n_syn_points = n;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(find_syn_points(black_box(&a), black_box(&b), &cfg)))
        });
    }
    g.finish();
}

/// §V-B tracking: the anchored incremental check vs a full search, the
/// speedup that makes 10 Hz neighbour tracking affordable.
fn bench_tracking_vs_full(c: &mut Criterion) {
    use rups_core::geo::GeoSample;
    use rups_core::gsm::PowerVector;
    use rups_core::pipeline::RupsNode;
    let mut g = c.benchmark_group("ablation/tracking");
    g.sample_size(10);
    let cfg = bench_config(64, 85, 45);
    let a = synthetic_context(0xAB4, 0, 1000, 64);
    let b = synthetic_context(0xAB4, 250, 1000, 64);
    g.bench_function("full_search", |bench| {
        bench.iter(|| black_box(find_syn_points(black_box(&a), black_box(&b), &cfg)))
    });
    g.bench_function("anchored_incremental", |bench| {
        let node_with = |t: &rups_core::gsm::GsmTrajectory, id: u64| {
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
        ours.tracked_fix(&theirs).unwrap(); // acquire once outside the loop
        bench.iter(|| black_box(ours.tracked_fix(black_box(&theirs)).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_aggregation_schemes,
    bench_interpolation,
    bench_short_context_windows,
    bench_n_syn_points,
    bench_tracking_vs_full
);
criterion_main!(benches);
