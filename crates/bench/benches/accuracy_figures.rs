//! Figs. 9–12 (§VI): the accuracy experiments as benches.
//!
//! Trace generation is done once per group (setup); the measured body is
//! the query path — the part a deployed RUPS node executes online. One
//! bench per paper figure, at bench scale.

use criterion::{criterion_group, criterion_main, Criterion};
use gsm_sim::RadioPlacement;
use rups_bench::{bench_scale, quick_trace};
use rups_eval::figures::{fig10, fig11, fig12};
use rups_eval::queries::{run_queries, sample_query_times, GpsBaseline};
use std::hint::black_box;
use urban_sim::road::RoadClass;

/// Fig. 9 path: SYN errors under a given radio configuration (query side).
fn bench_fig09_radio_configs(c: &mut Criterion) {
    let mut g = c.benchmark_group("accuracy/fig09_radios");
    g.sample_size(10);
    let trace = quick_trace(0xF09, RoadClass::Urban4Lane);
    let cfg = bench_scale().rups_config();
    let times = sample_query_times(&trace, 4, 1);
    g.bench_function("queries_per_config", |b| {
        b.iter(|| black_box(run_queries(black_box(&trace), &cfg, &times)))
    });
    g.finish();
}

/// Fig. 10 path: multi-SYN aggregation under occlusions.
fn bench_fig10_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("accuracy/fig10_aggregation");
    g.sample_size(10);
    let scale = bench_scale();
    g.bench_function("full_figure", |b| {
        b.iter(|| black_box(fig10::run(black_box(&scale))))
    });
    g.finish();
}

/// Fig. 11 path: one grid cell (environment × radio config).
fn bench_fig11_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("accuracy/fig11_cell");
    g.sample_size(10);
    let scale = bench_scale();
    g.bench_function("suburb_4front", |b| {
        b.iter(|| {
            black_box(fig11::run_cell(
                &scale,
                RoadClass::Suburban2Lane,
                true,
                4,
                RadioPlacement::FrontPanel,
            ))
        })
    });
    g.finish();
}

/// Fig. 12 path: RUPS and GPS on one road class.
fn bench_fig12_rups_vs_gps(c: &mut Criterion) {
    let mut g = c.benchmark_group("accuracy/fig12_vs_gps");
    g.sample_size(10);
    let scale = bench_scale();
    g.bench_function("under_elevated_road", |b| {
        b.iter(|| black_box(fig12::run_road(&scale, RoadClass::UnderElevated)))
    });
    // The GPS baseline alone, for reference.
    let trace = quick_trace(0xF12, RoadClass::UnderElevated);
    g.bench_function("gps_baseline_only", |b| {
        b.iter(|| black_box(GpsBaseline::simulate(black_box(&trace), 1)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig09_radio_configs,
    bench_fig10_aggregation,
    bench_fig11_cell,
    bench_fig12_rups_vs_gps
);
criterion_main!(benches);
