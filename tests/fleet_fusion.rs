//! Fleet fusion integration: a five-vehicle convoy exchanging context
//! beacons over a fault-injected link, every vehicle grading fixes
//! through the hardened inbox path, and the `rups-fuse` solver fusing
//! each epoch's fix graph into one consistent set of relative positions.
//!
//! The headline assertion is the ISSUE acceptance criterion: under 30 %
//! expected burst loss plus payload corruption, the fused estimate beats
//! the best single `GradedFix` available for the same pairs.

use std::sync::Arc;

use rups::core::prelude::*;
use rups::eval::rig::{acceptance_faults, best_fix, ConvoyRig, ConvoySpec, SPAN_RING};
use rups::fuse::{FuseConfig, Fuser};
use rups_obs::{FlightConfig, FlightRecorder, Registry};

const N_CHANNELS: usize = 48;
const N_VEHICLES: usize = 5;
const GAP_M: f64 = 40.0;
const CONTEXT_M: usize = 250;
const WARMUP_M: usize = 260;
const DRIVE_S: usize = 100;
const FUSE_STRIDE_S: usize = 10;

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: N_CHANNELS,
        window_channels: 24,
        max_context_m: CONTEXT_M + 150,
        ..RupsConfig::default()
    }
}

#[test]
fn fused_fleet_beats_best_single_fix_under_burst_loss() {
    let mut rig = ConvoyRig::new(ConvoySpec {
        cfg: cfg(),
        n_vehicles: N_VEHICLES,
        gap_m: GAP_M,
        field_seed: 0xF1EE7,
        context_m: CONTEXT_M,
        horizon_s: 10.0,
        faults: acceptance_faults(),
        link_seed: 20160523,
        span_capacity: SPAN_RING,
    });

    // Fusion observability: rejections must surface on the registry AND
    // in the flight recorder, not vanish silently.
    let registry = Arc::new(Registry::new());
    let flight = Arc::new(FlightRecorder::new(
        FlightConfig::default(),
        Arc::clone(&registry),
    ));
    let fuser = Fuser::new(FuseConfig {
        anchor: Some(1),
        ..FuseConfig::default()
    })
    .with_observability(Arc::clone(&registry))
    .with_flight_recorder(Arc::clone(&flight));

    // Vehicle k holds exactly (k−1)·GAP_M ahead of vehicle 1, all at 1 m/s.
    let truth = |a: u64, b: u64| (b as f64 - a as f64) * GAP_M;

    let mut solved_epochs = 0usize;
    let mut full_coverage_epochs = 0usize;
    let mut fuse_epochs = 0usize;
    let mut fused_errs: Vec<f64> = Vec::new();
    let mut best_errs: Vec<f64> = Vec::new();

    for metre in 0..WARMUP_M + DRIVE_S {
        let t = metre as f64;
        rig.drive(t);
        if metre < WARMUP_M {
            continue;
        }

        // Every vehicle beacons (1 Hz) through the shared faulty link and
        // drains its endpoint into its vetted inbox.
        for id in rig.ids() {
            rig.beacon(id, t);
        }
        rig.deliver(t);
        if !(metre - WARMUP_M).is_multiple_of(FUSE_STRIDE_S) {
            continue;
        }
        fuse_epochs += 1;

        // Epoch fix graph: every vehicle grades fixes against every
        // snapshot it holds; best direct fix per pair is the baseline.
        let direct = rig.grade_all(t);
        let Ok(solution) = fuser.solve(&rig.fix_graph(&direct)) else {
            continue;
        };
        solved_epochs += 1;
        if solution.unreachable.is_empty() {
            full_coverage_epochs += 1;
        }

        for a in rig.ids() {
            for b in a + 1..=N_VEHICLES as u64 {
                let Some(f) = best_fix(&direct, a, b) else {
                    continue;
                };
                let Some(fused) = solution.displacement(a, b) else {
                    continue;
                };
                best_errs.push((f.graded.fix.distance_m - truth(f.observer, f.neighbour)).abs());
                fused_errs.push((fused - truth(a, b)).abs());
            }
        }
    }

    // The convoy keeps fusing through the burst losses…
    assert!(fuse_epochs >= 10, "only {fuse_epochs} fuse epochs ran");
    assert!(
        solved_epochs * 2 > fuse_epochs,
        "solver succeeded on only {solved_epochs}/{fuse_epochs} epochs"
    );
    assert!(
        full_coverage_epochs > 0,
        "fusion never reached all {N_VEHICLES} vehicles"
    );
    assert!(
        best_errs.len() >= 20,
        "too few comparable pairs: {}",
        best_errs.len()
    );

    // …and the fused estimates beat the best single graded fix on the
    // very pairs where a direct fix exists — the acceptance criterion.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (fused_mean, best_mean) = (mean(&fused_errs), mean(&best_errs));
    assert!(
        fused_mean < best_mean,
        "fused mean |err| {fused_mean:.3} m did not beat best pairwise {best_mean:.3} m"
    );
    assert!(fused_mean < 3.0, "fused mean |err| {fused_mean:.3} m");

    // Every rejection the solver reported is visible end to end: counted
    // on the shared registry and recorded by the flight recorder.
    let rejected = registry
        .snapshot()
        .counter("rups_fuse_edges_rejected")
        .unwrap_or(0);
    let recorded = flight
        .dump()
        .fixes
        .iter()
        .filter(|v| {
            let serde::value::Value::Map(kv) = v else {
                return false;
            };
            kv.iter()
                .any(|(k, v)| k == "kind" && v.as_str() == Some("fuse_reject"))
        })
        .count() as u64;
    assert_eq!(recorded, rejected, "flight recorder missed rejections");
}
