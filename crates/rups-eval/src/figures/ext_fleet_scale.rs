//! Extension experiment: many-vehicle serving throughput of the sharded
//! fleet layer (`rups-fleet`).
//!
//! The paper evaluates RUPS on a single vehicle pair; [`ext_scalability`]
//! sweeps all-neighbour queries in a small convoy on one engine. This
//! experiment measures the *system* path instead: hundreds of vehicles on
//! one 8-lane road, bucketed by a uniform-grid [`CellIndex`], owned by
//! geographic shards with cross-shard beacon routing, and queried by the
//! epoch scheduler, one observer per work item. Each `(fleet size × worker
//! count)` cell runs the same scenario and records:
//!
//! * **Sub-quadratic pair workload** — ordered halo candidates per epoch
//!   versus the all-pairs bound `n·(n−1)`; the committed artefact asserts
//!   the halo keeps a large fleet far below the quadratic bound.
//! * **Worker scaling** — successful fixes per query-phase wall second at
//!   1, 2, … workers, plus the per-core rate; the scheduler's determinism
//!   guarantee means every worker count produces the *same* fixes, so the
//!   curves measure pure execution speed.
//! * **Machinery coverage** — shard re-homings and cross-shard relays,
//!   proving the run exercised the layer rather than one degenerate
//!   shard.
//!
//! The sweep record ([`ScaleArtifact`]) is returned as the figure's
//! artefact: `evaluate --json DIR` writes it as `DIR/ext-fleet-scale.json`
//! in place of the figure series, and `results/ext-fleet-scale.json` is
//! that record.
//!
//! [`ext_scalability`]: crate::figures::ext_scalability
//! [`CellIndex`]: rups_fleet::CellIndex

use crate::figures::{Artefact, EvalScale};
use crate::series::{Figure, Series};
use rups_fleet::{FleetConfig, FleetSim};
use serde::{Deserialize, Serialize};

/// Lanes the fleet occupies round-robin.
const LANES: usize = 2;
/// Initial within-lane spacing, metres.
const INITIAL_GAP_M: f64 = 45.0;
/// Cell side of the spatial index, metres.
const CELL_M: f64 = 60.0;
/// Fix-query neighbour radius, metres (≤ `CELL_M`).
const RADIUS_M: f64 = 60.0;
/// Geographic shards.
const N_SHARDS: usize = 4;

/// Parameters of the fleet-scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (master seed; durations are fleet-specific below).
    pub scale: EvalScale,
    /// Fleet sizes swept (ids `1..=n`).
    pub vehicle_counts: Vec<usize>,
    /// Scheduler worker counts swept per fleet size.
    pub worker_counts: Vec<usize>,
    /// GSM channels carried in contexts.
    pub n_channels: usize,
    /// Snapshot length broadcast each epoch, metres.
    pub context_m: usize,
    /// Maximum retained context, metres.
    pub max_context_m: usize,
    /// Warm-up epochs before measurement.
    pub warmup_s: usize,
    /// Measured epochs per cell.
    pub epochs: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            vehicle_counts: vec![60, 120, 240],
            worker_counts: vec![1, 2, 4],
            n_channels: 48,
            context_m: 200,
            max_context_m: 280,
            warmup_s: 40,
            epochs: 4,
        }
    }
}

/// Smaller sweep for `--quick` smoke passes; still crosses the 200-vehicle
/// mark so the sub-quadratic claim is asserted at scale.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        vehicle_counts: vec![72, 216],
        worker_counts: vec![1, 2],
        n_channels: 32,
        context_m: 140,
        max_context_m: 220,
        warmup_s: 30,
        epochs: 2,
    }
}

/// One `(fleet size × worker count)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleCell {
    /// Fleet size.
    pub n_vehicles: usize,
    /// Scheduler workers.
    pub workers: usize,
    /// Measured epochs.
    pub epochs: usize,
    /// Successful graded fixes over all epochs.
    pub fixes_ok: usize,
    /// Fix queries scheduled over all epochs.
    pub tasks: usize,
    /// Ordered halo candidates over all epochs (the workload the index
    /// admitted for radius filtering).
    pub candidates: usize,
    /// The all-pairs bound `epochs · n · (n − 1)` the halo is measured
    /// against.
    pub pair_bound: usize,
    /// `candidates / pair_bound` — the sub-quadratic headline.
    pub halo_fraction: f64,
    /// Shard re-homings over all measured epochs.
    pub rehomes: usize,
    /// Cross-shard beacons relayed over all measured epochs.
    pub relayed: usize,
    /// Wall-clock seconds in the parallel query phase.
    pub query_wall_s: f64,
    /// Successful fixes per query-phase wall second.
    pub fixes_per_sec: f64,
    /// `fixes_per_sec / workers` — the per-core serving rate.
    pub fixes_per_sec_per_core: f64,
    /// Mean `|fix − truth|` over successful fixes of the final epoch,
    /// metres.
    pub mean_abs_err_m: f64,
}

/// The machine-readable artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleArtifact {
    /// Always `"ext-fleet-scale"`.
    pub figure_id: String,
    /// Hardware threads available where the artefact was generated.
    /// Worker-scaling comparisons are only meaningful when this is > 1 —
    /// on a single-core box the wall clock cannot show a speedup, so
    /// consumers (CI asserts, the in-crate test) gate on it.
    pub threads_available: usize,
    /// Geographic shards every cell ran with.
    pub n_shards: usize,
    /// Cell side of the spatial index, metres.
    pub cell_m: f64,
    /// Fix-query radius, metres.
    pub radius_m: f64,
    /// One entry per `(fleet size × worker count)` cell, fleet-size-major
    /// in sweep order.
    pub cells: Vec<ScaleCell>,
}

fn run_cell(p: &Params, n_vehicles: usize, workers: usize) -> ScaleCell {
    let run = FleetSim::run(FleetConfig {
        seed: p.scale.seed,
        n_vehicles,
        lanes: LANES,
        initial_gap_m: INITIAL_GAP_M,
        n_shards: N_SHARDS,
        workers,
        cell_m: CELL_M,
        radius_m: RADIUS_M,
        n_channels: p.n_channels,
        max_context_m: p.max_context_m,
        context_m: p.context_m,
        warmup_s: p.warmup_s,
        epochs: p.epochs,
        ..FleetConfig::default()
    });
    let fixes_ok = run.fixes_ok();
    let tasks: usize = run.epochs.iter().map(|e| e.tasks).sum();
    let candidates: usize = run.epochs.iter().map(|e| e.candidates).sum();
    let pair_bound = p.epochs * n_vehicles * (n_vehicles - 1);
    let query_wall_s = run.query_wall_s();
    let fixes_per_sec = run.fixes_per_sec();
    ScaleCell {
        n_vehicles,
        workers,
        epochs: p.epochs,
        fixes_ok,
        tasks,
        candidates,
        pair_bound,
        halo_fraction: candidates as f64 / pair_bound as f64,
        rehomes: run.epochs.iter().map(|e| e.rehomes).sum(),
        relayed: run.epochs.iter().map(|e| e.relayed).sum(),
        query_wall_s,
        fixes_per_sec,
        fixes_per_sec_per_core: fixes_per_sec / workers as f64,
        mean_abs_err_m: run
            .epochs
            .last()
            .and_then(|e| e.mean_abs_err_m())
            .unwrap_or(f64::NAN),
    }
}

/// Runs the sweep; returns the figure plus its sweep record.
pub fn run(p: &Params) -> (Figure, Vec<Artefact>) {
    let mut cells = Vec::new();
    for &n in &p.vehicle_counts {
        for &w in &p.worker_counts {
            cells.push(run_cell(p, n, w));
        }
    }
    let artifact = ScaleArtifact {
        figure_id: "ext-fleet-scale".into(),
        threads_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
        n_shards: N_SHARDS,
        cell_m: CELL_M,
        radius_m: RADIUS_M,
        cells,
    };

    let mut notes = Vec::new();
    for c in &artifact.cells {
        notes.push(format!(
            "n={} w={}: {} fixes in {:.3} s ({:.0}/s, {:.0}/s/core), halo {}/{} pairs ({:.1} %), \
             {} rehomes, {} relays, err {:.2} m",
            c.n_vehicles,
            c.workers,
            c.fixes_ok,
            c.query_wall_s,
            c.fixes_per_sec,
            c.fixes_per_sec_per_core,
            c.candidates,
            c.pair_bound,
            100.0 * c.halo_fraction,
            c.rehomes,
            c.relayed,
            c.mean_abs_err_m,
        ));
    }
    if let (Some(&n_max), Some(&w_max)) =
        (p.vehicle_counts.iter().max(), p.worker_counts.iter().max())
    {
        let rate = |w: usize| {
            artifact
                .cells
                .iter()
                .find(|c| c.n_vehicles == n_max && c.workers == w)
                .map(|c| c.fixes_per_sec)
        };
        if let (Some(one), Some(many)) = (rate(1), rate(w_max)) {
            if one > 0.0 {
                notes.push(format!(
                    "n={n_max}: {w_max}-worker speedup over 1 worker = {:.2}× \
                     ({} hardware threads available)",
                    many / one,
                    artifact.threads_available,
                ));
            }
        }
    }

    let x: Vec<f64> = p.vehicle_counts.iter().map(|&n| n as f64).collect();
    let mut series = Vec::new();
    for &w in &p.worker_counts {
        let y: Vec<f64> = p
            .vehicle_counts
            .iter()
            .map(|&n| {
                artifact
                    .cells
                    .iter()
                    .find(|c| c.n_vehicles == n && c.workers == w)
                    .map_or(0.0, |c| c.fixes_per_sec)
            })
            .collect();
        series.push(Series::new(
            format!("fixes per second, {w} worker(s)"),
            x.clone(),
            y,
        ));
    }
    series.push(Series::new(
        "halo candidates / all pairs",
        x.clone(),
        p.vehicle_counts
            .iter()
            .map(|&n| {
                artifact
                    .cells
                    .iter()
                    .find(|c| c.n_vehicles == n)
                    .map_or(0.0, |c| c.halo_fraction)
            })
            .collect(),
    ));

    let figure = Figure {
        id: "ext-fleet-scale".into(),
        title: "Sharded fleet serving throughput vs fleet size and workers".into(),
        notes,
        series,
    };
    let record = Artefact::pretty("ext-fleet-scale.json", &artifact);
    (figure, vec![record])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_stays_subquadratic_and_workers_agree() {
        // Small fleet so the debug-build test stays quick; the quick/paper
        // sweeps cross 200 vehicles in the release smoke run.
        let mut p = quick_params();
        p.vehicle_counts = vec![48];
        p.worker_counts = vec![1, 2];
        p.warmup_s = 20;
        p.epochs = 2;
        let (fig, artefacts) = run(&p);

        let [record] = &artefacts[..] else {
            panic!("expected the sweep record alone")
        };
        assert_eq!(record.file, "ext-fleet-scale.json");
        let art: ScaleArtifact = serde_json::from_str(&record.json).expect("artefact parses");
        assert_eq!(art.figure_id, "ext-fleet-scale");
        assert_eq!(art.cells.len(), 2);

        for c in &art.cells {
            assert!(c.fixes_ok > 0, "cell produced no fixes: {c:?}");
            // The tentpole claim: the 3×3 halo admits far fewer ordered
            // pairs than the quadratic bound.
            assert!(
                c.halo_fraction < 0.5,
                "halo fraction {:.3} not sub-quadratic: {c:?}",
                c.halo_fraction
            );
            assert!(c.tasks <= c.candidates);
            assert!(c.mean_abs_err_m.is_finite() && c.mean_abs_err_m < 15.0);
        }
        // Determinism: worker count changes throughput, never results.
        assert_eq!(art.cells[0].fixes_ok, art.cells[1].fixes_ok);
        assert_eq!(art.cells[0].tasks, art.cells[1].tasks);

        // Worker scaling is a wall-clock claim, only checkable where the
        // hardware can actually run workers side by side.
        if art.threads_available > 1 {
            assert!(
                art.cells[1].fixes_per_sec > art.cells[0].fixes_per_sec,
                "2 workers not faster than 1 on {} threads: {:?}",
                art.threads_available,
                art.cells
            );
        }

        // One throughput series per worker count plus the halo series.
        assert_eq!(fig.series.len(), p.worker_counts.len() + 1);
    }
}
