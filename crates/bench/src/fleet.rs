//! The `fleet` workload, measured by the `fleet` bench and by the CI
//! regression gate (`bench_gate`): one full sharded epoch (beacon →
//! route → relay → receive → query) of a 32-vehicle fleet at 1 and 4
//! scheduler workers, plus the cell-index maintenance and halo-query
//! microbenches underneath it.

use crate::baseline::{self, Baseline, BenchCase};
use rups_fleet::{CellIndex, FleetConfig, FleetSim};

/// Fleet size of the epoch cases.
pub const EPOCH_VEHICLES: usize = 32;
/// Scheduler worker counts measured, one `epoch/32v_<w>w` case each.
pub const EPOCH_WORKERS: [usize; 2] = [1, 4];
/// Vehicles in the cell-index microbenches.
pub const INDEX_VEHICLES: usize = 256;
/// Cell side of the microbench index, metres.
pub const INDEX_CELL_M: f64 = 50.0;

/// The epoch-case configuration: a 32-vehicle, 4-shard fleet on the
/// defaults (120 m cells, ideal links).
fn fleet_config(workers: usize, epochs: usize) -> FleetConfig {
    FleetConfig {
        seed: 7,
        n_vehicles: EPOCH_VEHICLES,
        workers,
        n_shards: 4,
        n_channels: 24,
        context_m: 140,
        max_context_m: 220,
        warmup_s: 25,
        epochs,
        ..FleetConfig::default()
    }
}

/// A 16×16 grid of positions at 35 m spacing: ~2 vehicles per 50 m cell,
/// so every 3×3 halo holds a realistic double-digit candidate set.
fn grid_positions(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| ((i % 16) as f64 * 35.0, (i / 16) as f64 * 35.0))
        .collect()
}

/// Measures every case with a plain wall clock and returns the
/// machine-readable baseline (the committed `results/BENCH_fleet.json`
/// is one of these with `samples = 15`): median ns per epoch for the
/// end-to-end cases, median ns per vehicle for the index microbenches.
pub fn measure(samples: usize) -> Baseline {
    let mut cases = Vec::new();
    for &w in &EPOCH_WORKERS {
        // A `FleetSim` only simulates a finite drive: one warmup call plus
        // `samples` timed calls fit a `samples + 2`-epoch scenario.
        let mut sim = FleetSim::new(fleet_config(w, samples + 2));
        sim.warm_up();
        let ns = baseline::measure_median_ns_per_op(samples, 1, 1, || {
            assert!(sim.step_epoch().fixes_ok() > 0, "epoch produced no fixes");
        });
        cases.push(BenchCase {
            id: format!("epoch/{EPOCH_VEHICLES}v_{w}w"),
            ops_per_iter: 1,
            median_ns_per_op: ns,
            samples,
        });
    }

    let n = INDEX_VEHICLES;
    let mut idx = CellIndex::new(INDEX_CELL_M);
    let mut positions = grid_positions(n);
    for (i, &p) in positions.iter().enumerate() {
        idx.update(i as u64, p);
    }
    // Every pass drifts the whole grid 3 m; a fixed fraction of vehicles
    // crosses a cell boundary each pass, exercising the re-bucket path.
    let upd = baseline::measure_median_ns_per_op(samples, 8, n, || {
        for (i, p) in positions.iter_mut().enumerate() {
            p.0 += 3.0;
            idx.update(i as u64, *p);
        }
    });
    cases.push(BenchCase {
        id: format!("cell_update/{n}v"),
        ops_per_iter: n,
        median_ns_per_op: upd,
        samples,
    });
    let query = baseline::measure_median_ns_per_op(samples, 8, n, || {
        let mut total = 0usize;
        for i in 0..n {
            total += idx.neighbours_within(i as u64, INDEX_CELL_M).len();
        }
        assert!(total > 0, "halo queries found nobody");
    });
    cases.push(BenchCase {
        id: format!("halo_query/{n}v"),
        ops_per_iter: n,
        median_ns_per_op: query,
        samples,
    });

    Baseline {
        bench: "fleet".into(),
        cases,
        engine: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_the_committed_shape() {
        let b = measure(1);
        assert_eq!(b.bench, "fleet");
        assert_eq!(b.cases.len(), EPOCH_WORKERS.len() + 2);
        assert!(b.cases.iter().all(|c| c.median_ns_per_op > 0.0));
        let ids: Vec<&str> = b.cases.iter().map(|c| c.id.as_str()).collect();
        assert!(ids.contains(&"epoch/32v_1w"));
        assert!(ids.contains(&"epoch/32v_4w"));
        assert!(ids.contains(&"cell_update/256v"));
        assert!(ids.contains(&"halo_query/256v"));
    }
}
