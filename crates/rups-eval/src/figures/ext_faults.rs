//! Extension experiment: end-to-end robustness of the exchange path under
//! channel faults (hardening of §V-B).
//!
//! Two vehicles of a [`ConvoyRig`] drive the same road at a fixed gap. The
//! front vehicle beacons its journey context once per second through the
//! rig's link, whose Gilbert–Elliott fault model injects burst loss,
//! duplication, reordering, payload damage and jitter. The rear vehicle
//! runs the full hardened receive path — time-aware delivery, codec
//! validation, inbox vetting, graded fixes — and we measure, per fault
//! severity:
//!
//! * **fix availability** — the fraction of query epochs with a usable
//!   (fresh, vetted) fix, and
//! * **fix error** — mean |estimate − truth| of the fixes produced.
//!
//! The hardening claim under test: even at ≥30 % expected burst loss plus
//! payload corruption, the node keeps producing fixes whenever valid
//! snapshots arrive — damaged input surfaces as typed rejections and
//! quality downgrades, never as panics or silent garbage.
//!
//! [`ConvoyRig`]: crate::rig::ConvoyRig

use crate::figures::{EvalScale, CONVOY_CONTEXT_M, CONVOY_HORIZON_S, CONVOY_WARMUP_M};
use crate::rig::{acceptance_faults, ConvoyRig, ConvoySpec, SPAN_RING};
use crate::series::{Figure, Series};
use serde::{Deserialize, Serialize};
use v2v_sim::fault::FaultConfig;

/// One fault-severity cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Legend label.
    pub label: String,
    /// The channel impairments of this cell.
    pub faults: FaultConfig,
}

/// True front–rear gap, metres (both vehicles hold it exactly).
const GAP_M: f64 = 60.0;

/// Parameters of the fault-robustness experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (duration, band width, master seed).
    pub scale: EvalScale,
    /// The fault severities to sweep.
    pub cells: Vec<Cell>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            cells: default_cells(),
        }
    }
}

/// The default severity ladder, from the paper's ideal channel to a deep
/// urban fade with every impairment on.
pub fn default_cells() -> Vec<Cell> {
    vec![
        Cell {
            label: "ideal channel".into(),
            faults: FaultConfig::ideal(),
        },
        Cell {
            label: "i.i.d. 10% loss".into(),
            faults: FaultConfig::iid_loss(0.10),
        },
        Cell {
            label: "burst 30% loss + 1% corruption".into(),
            faults: acceptance_faults(),
        },
        Cell {
            label: "burst 50% loss + heavy damage".into(),
            faults: FaultConfig {
                duplicate: 0.10,
                reorder: 0.10,
                truncate: 0.02,
                corrupt: 0.02,
                jitter_s: 0.05,
                ..FaultConfig::bursty(0.25, 0.25, 1.0)
            },
        },
    ]
}

/// Smaller run for tests and `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        ..Params::default()
    }
}

/// Outcome of one severity cell.
struct CellOutcome {
    epochs: usize,
    fixes: usize,
    mean_abs_err_m: f64,
    worst_abs_err_m: f64,
    codec_rejects: u64,
    inbox_rejects: u64,
    /// Low/medium/high fix grades, read off the node's metrics registry
    /// (`rups_core_quality_grade_*`) rather than re-counted by hand.
    quality: [u64; 3],
    graded_rejects: u64,
}

/// Replays the two-vehicle scenario through one faulty link.
fn run_cell(s: &EvalScale, faults: &FaultConfig, link_seed: u64) -> CellOutcome {
    // Rear vehicle 1 and front vehicle 2, exactly `GAP_M` apart.
    let mut rig = ConvoyRig::new(ConvoySpec {
        cfg: s.convoy_config(),
        n_vehicles: 2,
        gap_m: GAP_M,
        field_seed: s.seed ^ 0xFA17,
        context_m: CONVOY_CONTEXT_M,
        horizon_s: CONVOY_HORIZON_S,
        faults: *faults,
        link_seed,
        span_capacity: SPAN_RING,
    });

    let mut fixes = 0usize;
    let mut epochs = 0usize;
    let mut abs_errs = Vec::new();
    let mut worst: f64 = 0.0;

    let total_m = CONVOY_WARMUP_M + s.duration_s as usize;
    for metre in 0..total_m {
        let t = metre as f64;
        rig.drive(t);
        if metre < CONVOY_WARMUP_M {
            continue;
        }

        // Front vehicle beacons its recent context (1 Hz); the rear runs
        // the time-aware receive → codec → inbox → graded-fix path.
        rig.beacon(2, t);
        rig.deliver(t);
        epochs += 1;
        for (_, graded) in rig.grade(1, t) {
            if let Ok(graded) = graded {
                fixes += 1;
                let err = (graded.fix.distance_m - GAP_M).abs();
                abs_errs.push(err);
                worst = worst.max(err);
            }
        }
    }

    // Grades and codec rejections accumulate in the rear vehicle's
    // registry (`rups_core_quality_grade_*`, `rups_v2v_codec_rejected_*`);
    // read them back instead of tallying by hand.
    let rear = rig.vehicle(1);
    let metrics = rear.registry.snapshot();
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    CellOutcome {
        epochs,
        fixes,
        mean_abs_err_m: abs_errs.iter().sum::<f64>() / abs_errs.len().max(1) as f64,
        worst_abs_err_m: worst,
        codec_rejects: ["truncated", "bad_magic", "bad_version", "corrupt"]
            .iter()
            .map(|why| count(&format!("rups_v2v_codec_rejected_{why}")))
            .sum(),
        inbox_rejects: rear.inbox.stats().rejected(),
        quality: [
            count("rups_core_quality_grade_low"),
            count("rups_core_quality_grade_medium"),
            count("rups_core_quality_grade_high"),
        ],
        graded_rejects: count("rups_core_quality_rejected"),
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Figure {
    let mut x = Vec::new();
    let mut avail_y = Vec::new();
    let mut err_y = Vec::new();
    let mut notes = Vec::new();
    for (i, cell) in p.cells.iter().enumerate() {
        let out = run_cell(
            &p.scale,
            &cell.faults,
            p.scale.seed ^ 0xFA01 ^ (i as u64 * 131),
        );
        let avail = out.fixes as f64 / out.epochs.max(1) as f64;
        x.push(cell.faults.expected_loss());
        avail_y.push(avail);
        err_y.push(out.mean_abs_err_m);
        notes.push(format!(
            "{}: availability {:.2} ({}/{} epochs), mean |err| {:.2} m (worst {:.2} m), \
             quality H/M/L {}/{}/{}, rejects codec {} inbox {} graded {}",
            cell.label,
            avail,
            out.fixes,
            out.epochs,
            out.mean_abs_err_m,
            out.worst_abs_err_m,
            out.quality[2],
            out.quality[1],
            out.quality[0],
            out.codec_rejects,
            out.inbox_rejects,
            out.graded_rejects,
        ));
    }
    notes.push(
        "damaged input surfaces as typed rejections and quality downgrades; \
         the fix pipeline never panics and never consumes unvetted context"
            .into(),
    );
    Figure {
        id: "ext-faults".into(),
        title: "Fix availability and error under V2V channel faults".into(),
        notes,
        series: vec![
            Series::new("fix availability vs expected loss", x.clone(), avail_y),
            Series::new("mean |error| (m) vs expected loss", x, err_y),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_degrades_gracefully_under_burst_loss_and_corruption() {
        let p = quick_params();
        let fig = run(&p);
        let avail = &fig.series[0];
        let err = &fig.series[1];
        assert_eq!(avail.x.len(), p.cells.len());

        // The acceptance cell: ≥30 % expected burst loss + 1 % corruption.
        let accept = p
            .cells
            .iter()
            .position(|c| c.faults.expected_loss() >= 0.30 && c.faults.corrupt >= 0.01)
            .expect("default cells include the acceptance severity");
        assert!(
            (avail.x[accept] - 0.30).abs() < 1e-9,
            "expected loss {}",
            avail.x[accept]
        );
        // The node keeps producing fixes whenever valid snapshots arrive…
        assert!(
            avail.y[accept] > 0.3,
            "availability collapsed: {}",
            avail.y[accept]
        );
        // …and the fixes it does produce stay accurate.
        assert!(err.y[accept] < 5.0, "mean error {}", err.y[accept]);

        // The ideal channel is the ceiling: near-every epoch fixes, tightly.
        assert!(avail.y[0] > 0.9, "ideal availability {}", avail.y[0]);
        assert!(err.y[0] < 3.0, "ideal error {}", err.y[0]);
        // Faults only ever reduce availability relative to ideal.
        for (i, &a) in avail.y.iter().enumerate() {
            assert!(a <= avail.y[0] + 1e-9, "cell {i} beat the ideal channel");
        }
    }
}
