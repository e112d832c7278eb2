//! Steady-state allocation budget for the warm fix path and the warm
//! stand-alone search.
//!
//! The engine's scratch arenas, memoised window entries, and cached packed
//! spectra exist so that a warm query performs no per-channel or
//! per-placement allocation. This test pins that down with a counting
//! global allocator: after a few warm-up queries, one more fix against the
//! same neighbour must stay under a small constant allocation budget (the
//! returned `DistanceFix` itself owns a couple of vectors; nothing in the
//! kernel loops may allocate). The stand-alone `syn::find_best_syn` scores
//! into the same pooled arenas, so a warm search allocates only its
//! checking windows. A warm batch of neighbours through
//! `fix_distances_parallel` stays within the per-query budget for each of
//! its queries, and so does a warm query on trace-driven rows, where many
//! placements stay alive channel after channel. All checks share one test
//! function: the counter is global, and a test running in parallel would
//! count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rups_bench::{bench_config, synthetic_context};
use rups_core::config::RupsConfig;
use rups_core::engine::SynQueryEngine;
use rups_core::pipeline::{ContextSnapshot, RupsNode};
use rups_core::syn::find_best_syn;
use rups_core::{GeoSample, GeoTrajectory, PowerVector};
use rups_eval::tracegen::{generate, TraceConfig};
use urban_sim::road::RoadClass;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const N_CHANNELS: usize = 24;
const WINDOW_M: usize = 85;

fn build_node(seed: u64, context_m: usize) -> RupsNode {
    let cfg = bench_config(N_CHANNELS, WINDOW_M, N_CHANNELS);
    let mut node = RupsNode::new(cfg);
    let ctx = synthetic_context(seed, 0, context_m, N_CHANNELS);
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

fn neighbour(seed: u64, offset: usize, context_m: usize) -> ContextSnapshot {
    let mut geo = GeoTrajectory::new();
    for m in 0..context_m {
        geo.push(GeoSample {
            heading_rad: 0.0,
            timestamp_s: m as f64,
        });
    }
    ContextSnapshot {
        vehicle_id: Some(7),
        geo,
        gsm: synthetic_context(seed, offset, context_m, N_CHANNELS),
        trace: None,
    }
}

/// The budget covers only what a fix legitimately hands back to the caller
/// (the `DistanceFix` vectors, the per-fix forensic record): dozens, never
/// the thousands a per-placement or per-channel allocation would produce
/// at these context lengths.
const MAX_ALLOCS_PER_WARM_QUERY: u64 = 64;

/// A warm stand-alone search allocates its two checking windows (a few
/// vectors each) and nothing per placement: a score vector handed out per
/// pass would add the dozen reallocations of a growing vector per pass.
const MAX_ALLOCS_PER_WARM_SEARCH: u64 = 12;

#[test]
fn warm_fix_path_stays_within_constant_allocation_budget() {
    // Three context lengths so the budget provably does not scale with the
    // input. At 340 and 480 m (w = 85 >= 8*log2(m)) the FFT kernel and its
    // spectra caches feed the score loop; at 2000 m lane dot products do.
    for context_m in [340usize, 480, 2000] {
        let node = build_node(21, context_m);
        let snap = neighbour(21, 20, context_m);
        // Warm every layer: own-context rows, rolled tables and sliding
        // spectra, window entries with their reversed spectra, and the
        // scratch-arena pool.
        for _ in 0..3 {
            node.fix_distance(&snap).unwrap();
        }
        let before = allocations();
        let fix = node.fix_distance(&snap).unwrap();
        let per_query = allocations() - before;
        assert!(
            (fix.distance_m - 20.0).abs() < 1.5,
            "context {context_m}: fix drifted to {}",
            fix.distance_m
        );
        assert!(
            per_query < MAX_ALLOCS_PER_WARM_QUERY,
            "context {context_m}: warm query performed {per_query} allocations \
             (budget {MAX_ALLOCS_PER_WARM_QUERY}) — a kernel loop is allocating"
        );
    }

    // A warm batch of three neighbours at 2000 m: the reverse passes share
    // the own context's rolled table, and each query rolls its neighbour's
    // into the buffers of a pooled arena, so the batch stays within the
    // per-query budget for each of its queries.
    let node = build_node(21, 2000);
    let snaps: Vec<ContextSnapshot> = [20, 35, 50]
        .iter()
        .map(|&offset| neighbour(21, offset, 2000))
        .collect();
    for _ in 0..3 {
        node.fix_distances_parallel(&snaps);
    }
    let before = allocations();
    let fixes = node.fix_distances_parallel(&snaps);
    let per_batch = allocations() - before;
    for (fix, offset) in fixes.into_iter().zip([20.0, 35.0, 50.0]) {
        let d = fix.unwrap().distance_m;
        assert!((d - offset).abs() < 1.5, "batch fix drifted to {d}");
    }
    let budget = snaps.len() as u64 * MAX_ALLOCS_PER_WARM_QUERY;
    assert!(
        per_batch < budget,
        "warm 3-neighbour batch performed {per_batch} allocations (budget {budget})"
    );

    // A warm query on interpolated trace contexts (never-heard rows stay
    // NaN, so the reference kernel runs): the score loop's alive
    // placements, running sums and one channel's dot products come from
    // the pooled arena however many placements survive a channel.
    let drive = generate(&TraceConfig::quick(20160523, RoadClass::Urban4Lane));
    let c = RupsConfig {
        n_channels: drive.config.n_channels,
        window_channels: 24,
        ..RupsConfig::default()
    };
    let t = drive.config.duration_s * 0.75;
    let context = |v: &rups_eval::tracegen::VehicleTrace| {
        v.context_at(t, c.max_context_m, true, None).unwrap().0.gsm
    };
    let (ours, theirs) = (context(&drive.follower), context(&drive.leader));
    let engine = SynQueryEngine::new(c.clone());
    engine.set_context(&ours);
    for _ in 0..3 {
        engine.find_syn_points(&theirs).unwrap();
    }
    let before = allocations();
    let points = engine.find_syn_points(&theirs).unwrap();
    let per_query = allocations() - before;
    assert!(!points.is_empty());
    assert!(
        per_query < MAX_ALLOCS_PER_WARM_QUERY,
        "warm trace-driven query performed {per_query} allocations \
         (budget {MAX_ALLOCS_PER_WARM_QUERY})"
    );
    assert!(engine.stats().pruned_placements > 0);

    let cfg = bench_config(N_CHANNELS, WINDOW_M, N_CHANNELS);
    let ours = synthetic_context(21, 0, 480, N_CHANNELS);
    let theirs = synthetic_context(21, 20, 480, N_CHANNELS);
    for _ in 0..3 {
        find_best_syn(&ours, &theirs, &cfg).unwrap();
    }
    let before = allocations();
    let p = find_best_syn(&ours, &theirs, &cfg).unwrap();
    let per_search = allocations() - before;
    assert_eq!(p.self_end - p.other_end, 20);
    assert!(
        per_search < MAX_ALLOCS_PER_WARM_SEARCH,
        "warm find_best_syn performed {per_search} allocations \
         (budget {MAX_ALLOCS_PER_WARM_SEARCH}) — a search pass is allocating"
    );
}
