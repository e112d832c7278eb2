//! Extension experiment: cooperative fix-graph fusion in an N-vehicle
//! convoy under channel faults (the `rups-fuse` crate end-to-end).
//!
//! Every vehicle of a [`ConvoyRig`] beacons its journey context once per
//! second through the rig's faulted link and runs the hardened receive
//! path (codec validation → inbox vetting). At each fuse epoch every
//! vehicle grades fixes against every snapshot it holds; the
//! epoch's graded fixes become a [`FixGraph`] and the [`Fuser`] solves it
//! into one consistent set of relative positions. Per severity cell we
//! compare, over the pairs that have at least one *direct* fix that
//! epoch:
//!
//! * **best pairwise error** — |estimate − truth| of the highest-weight
//!   direct fix of the pair (the strongest answer available without
//!   fusion), and
//! * **fused error** — |fused displacement − truth| for the same pair,
//!
//! plus the *coverage* of each approach: the fraction of all vehicle
//! pairs with any estimate at all. Fusion's two claims under test: cycle
//! redundancy averages independent errors down (fused mean error below
//! the best pairwise mean even at ≥30 % burst loss), and graph
//! connectivity answers pairs no direct fix covers (a chain of short
//! fixes reaches vehicles whose shared context is too small for a direct
//! SYN match).
//!
//! [`ConvoyRig`]: crate::rig::ConvoyRig
//! [`FixGraph`]: rups_fuse::FixGraph
//! [`Fuser`]: rups_fuse::Fuser

use crate::figures::{EvalScale, CONVOY_CONTEXT_M, CONVOY_HORIZON_S, CONVOY_WARMUP_M};
use crate::rig::{best_fix, ConvoyRig, ConvoySpec, SPAN_RING};
use crate::series::{Figure, Series};
use rups_fuse::{FuseConfig, Fuser};
use rups_obs::Registry;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use v2v_sim::fault::FaultConfig;

pub use super::ext_faults::Cell;

/// True gap between adjacent vehicles, metres (held exactly). Short gaps
/// keep several spans inside the shared-context window, so the graph gets
/// the chord redundancy fusion needs; the longest spans stay out of
/// direct reach, which is the coverage story.
const GAP_M: f64 = 40.0;
/// Seconds between fuse epochs (beaconing stays at 1 Hz).
const FUSE_STRIDE_S: usize = 10;

/// Parameters of the fusion experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (duration, band width, master seed).
    pub scale: EvalScale,
    /// Convoy size (ids `1..=n`, id 1 at the rear).
    pub n_vehicles: usize,
    /// The fault severities to sweep.
    pub cells: Vec<Cell>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            n_vehicles: 6,
            cells: default_cells(),
        }
    }
}

/// The default severity ladder: the paper's ideal channel, mild i.i.d.
/// loss, and the acceptance cell (30 % expected burst loss plus payload
/// corruption) — the ext-faults ladder without its heaviest cell.
pub fn default_cells() -> Vec<Cell> {
    let mut cells = super::ext_faults::default_cells();
    cells.truncate(3);
    cells
}

/// Smaller run for tests and `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        n_vehicles: 5,
        ..Params::default()
    }
}

/// Outcome of one severity cell.
struct CellOutcome {
    fuse_epochs: usize,
    /// Mean |error| of the best direct fix, over pairs with a direct fix.
    best_pairwise_mean_m: f64,
    /// Mean |fused − truth| over the same pairs.
    fused_mean_m: f64,
    /// Worst fused error on those pairs.
    fused_worst_m: f64,
    /// Fraction of (epoch × pair) slots with a direct fix.
    direct_coverage: f64,
    /// Fraction of (epoch × pair) slots the fused solution answers.
    fused_coverage: f64,
    /// `rups_fuse_*` counters accumulated over the cell.
    solves: u64,
    edges_rejected: u64,
}

/// Replays the convoy through one faulty link and fuses each epoch.
fn run_cell(p: &Params, faults: &FaultConfig, link_seed: u64) -> CellOutcome {
    let s = &p.scale;
    let mut rig = ConvoyRig::new(ConvoySpec {
        cfg: s.convoy_config(),
        n_vehicles: p.n_vehicles,
        gap_m: GAP_M,
        field_seed: s.seed ^ 0xF05E,
        context_m: CONVOY_CONTEXT_M,
        horizon_s: CONVOY_HORIZON_S,
        faults: *faults,
        link_seed,
        span_capacity: SPAN_RING,
    });

    let registry = Arc::new(Registry::new());
    let fuser = Fuser::new(FuseConfig {
        anchor: Some(1),
        ..FuseConfig::default()
    })
    .with_observability(Arc::clone(&registry));

    // Truth: vehicle k sits (k−1)·gap ahead of vehicle 1, all at 1 m/s.
    let truth = |a: u64, b: u64| (b as f64 - a as f64) * GAP_M;
    let n = p.n_vehicles;

    let mut fuse_epochs = 0usize;
    let mut best_errs = Vec::new();
    let mut fused_errs = Vec::new();
    let mut fused_worst: f64 = 0.0;
    let mut direct_slots = 0usize;
    let mut fused_slots = 0usize;
    let mut pair_slots = 0usize;

    let total_m = CONVOY_WARMUP_M + s.duration_s as usize;
    for metre in 0..total_m {
        let t = metre as f64;
        rig.drive(t);
        if metre < CONVOY_WARMUP_M {
            continue;
        }

        // Everyone beacons (1 Hz) and drains their endpoint.
        for id in rig.ids() {
            rig.beacon(id, t);
        }
        rig.deliver(t);

        if !(metre - CONVOY_WARMUP_M).is_multiple_of(FUSE_STRIDE_S) {
            continue;
        }
        fuse_epochs += 1;

        // Each vehicle grades fixes against every snapshot it holds; the
        // epoch's graded fixes become the fix graph.
        let fixes = rig.grade_all(t);
        let solution = fuser.solve(&rig.fix_graph(&fixes)).ok();
        for a in rig.ids() {
            for b in a + 1..=n as u64 {
                pair_slots += 1;
                let best = best_fix(&fixes, a, b);
                if let Some(d) = solution.as_ref().and_then(|sol| sol.displacement(a, b)) {
                    fused_slots += 1;
                    // Only pairs with a direct competitor enter the error
                    // comparison; fused-only pairs are the coverage story.
                    if best.is_some() {
                        let err = (d - truth(a, b)).abs();
                        fused_errs.push(err);
                        fused_worst = fused_worst.max(err);
                    }
                }
                if let Some(f) = best {
                    direct_slots += 1;
                    best_errs
                        .push((f.graded.fix.distance_m - truth(f.observer, f.neighbour)).abs());
                }
            }
        }
    }

    let snap = registry.snapshot();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    CellOutcome {
        fuse_epochs,
        best_pairwise_mean_m: mean(&best_errs),
        fused_mean_m: mean(&fused_errs),
        fused_worst_m: fused_worst,
        direct_coverage: direct_slots as f64 / pair_slots.max(1) as f64,
        fused_coverage: fused_slots as f64 / pair_slots.max(1) as f64,
        solves: snap.counter("rups_fuse_solves").unwrap_or(0),
        edges_rejected: snap.counter("rups_fuse_edges_rejected").unwrap_or(0),
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Figure {
    let mut x = Vec::new();
    let mut fused_y = Vec::new();
    let mut best_y = Vec::new();
    let mut fused_cov_y = Vec::new();
    let mut direct_cov_y = Vec::new();
    let mut notes = Vec::new();
    for (i, cell) in p.cells.iter().enumerate() {
        let out = run_cell(p, &cell.faults, p.scale.seed ^ 0xF0_5E ^ (i as u64 * 131));
        x.push(cell.faults.expected_loss());
        fused_y.push(out.fused_mean_m);
        best_y.push(out.best_pairwise_mean_m);
        fused_cov_y.push(out.fused_coverage);
        direct_cov_y.push(out.direct_coverage);
        notes.push(format!(
            "{}: fused mean |err| {:.2} m (worst {:.2} m) vs best pairwise {:.2} m \
             over {} fuse epochs; coverage fused {:.2} vs direct {:.2}; \
             {} solves, {} edges rejected",
            cell.label,
            out.fused_mean_m,
            out.fused_worst_m,
            out.best_pairwise_mean_m,
            out.fuse_epochs,
            out.fused_coverage,
            out.direct_coverage,
            out.solves,
            out.edges_rejected,
        ));
    }
    notes.push(format!(
        "{} vehicles, {:.0} m gaps; fused positions answer every connected pair, \
         including spans whose shared context is too short for any direct fix",
        p.n_vehicles, GAP_M
    ));
    Figure {
        id: "ext-fusion".into(),
        title: "Fix-graph fusion vs best pairwise fix under channel faults".into(),
        notes,
        series: vec![
            Series::new(
                "fused mean |error| (m) vs expected loss",
                x.clone(),
                fused_y,
            ),
            Series::new(
                "best pairwise mean |error| (m) vs expected loss",
                x.clone(),
                best_y,
            ),
            Series::new(
                "fused pair coverage vs expected loss",
                x.clone(),
                fused_cov_y,
            ),
            Series::new("direct pair coverage vs expected loss", x, direct_cov_y),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_beats_best_pairwise_under_burst_loss() {
        let p = quick_params();
        let fig = run(&p);
        let fused = &fig.series[0];
        let best = &fig.series[1];
        let fused_cov = &fig.series[2];
        let direct_cov = &fig.series[3];
        assert_eq!(fused.x.len(), p.cells.len());

        // The acceptance cell: ≥30 % expected burst loss + corruption.
        let accept = p
            .cells
            .iter()
            .position(|c| c.faults.expected_loss() >= 0.30 && c.faults.corrupt >= 0.01)
            .expect("default cells include the acceptance severity");
        assert!(
            fused.y[accept] < best.y[accept],
            "fused {} must beat best pairwise {}",
            fused.y[accept],
            best.y[accept]
        );
        // Fusion answers at least every pair a direct fix answers.
        for i in 0..p.cells.len() {
            assert!(
                fused_cov.y[i] >= direct_cov.y[i] - 1e-9,
                "cell {i}: fused coverage {} below direct {}",
                fused_cov.y[i],
                direct_cov.y[i]
            );
            assert!(fused.y[i] > 0.0 && fused.y[i] < 10.0, "cell {i} error sane");
        }
        // The ideal channel fuses (nearly) every pair.
        assert!(fused_cov.y[0] > 0.9, "ideal coverage {}", fused_cov.y[0]);
    }
}
