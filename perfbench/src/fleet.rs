//! The `fleet` workload: sharded [`FleetSim`]s stepped one epoch at a time.
//! Their phases run inside `step_epoch`, so the outside-in trace sees the
//! step and the query-phase wall time the program reports.

use rups_core::testfield::splitmix64;
use rups_fleet::{FleetConfig, FleetSim};
use urban_sim::{FleetLayout, FleetScenario, RoadClass, Route};

use crate::convoy::acceptance_faults;
use crate::trace::Tracer;
use crate::workload::{Counts, Fix, Workload};

/// Independent fleets served by the one process, taking turns: epoch `e`
/// steps fleet `e mod FLEETS`. A single drive spends tens of seconds
/// stopped at a signal or cruising, which moves the neighbour count and
/// the work per epoch by half; a run samples this many drives instead.
const FLEETS: usize = 16;
/// Vehicles per fleet: one lane of car-following vehicles ~35 m apart
/// spans several 120 m cells, so every shard owns cells and beacons cross
/// shard boundaries.
const N_VEHICLES: usize = 12;
/// Epochs each fleet's drive is built for.
const EPOCH_BUDGET: usize = 100;

pub struct Fleet {
    sims: Vec<FleetSim>,
    /// Each fleet's drives, rebuilt for scoring; empty until the first
    /// [`Workload::prepare`], so set-up time stays the program's.
    drives: Vec<FleetScenario>,
    stepped: usize,
    counts: Counts,
}

impl Fleet {
    /// Builds every fleet and runs its warm-up drive.
    pub fn setup(seed: u64) -> Self {
        let sims = (0..FLEETS as u64)
            .map(|i| {
                let mut sim = FleetSim::new(FleetConfig {
                    seed: splitmix64(seed ^ i << 40),
                    n_vehicles: N_VEHICLES,
                    lanes: 1,
                    workers: 2,
                    n_shards: 4,
                    n_channels: 24,
                    context_m: 140,
                    max_context_m: 220,
                    warmup_s: 25,
                    epochs: EPOCH_BUDGET,
                    faults: acceptance_faults(),
                    ..FleetConfig::default()
                });
                sim.warm_up();
                sim
            })
            .collect();
        Fleet {
            sims,
            drives: Vec::new(),
            stepped: 0,
            counts: Counts::default(),
        }
    }
}

/// The drives a [`FleetSim`] runs, rebuilt from its configuration the way
/// `FleetSim::new` builds them.
fn drives_of(cfg: &FleetConfig) -> FleetScenario {
    let route = Route::straight(RoadClass::Urban8Lane, cfg.road_len_m);
    let layout = FleetLayout {
        n_vehicles: cfg.n_vehicles,
        lanes: cfg.lanes,
        initial_gap_m: cfg.initial_gap_m,
        ..FleetLayout::default()
    };
    let duration_s = (cfg.warmup_s + cfg.epochs + 2) as f64;
    FleetScenario::simulate(&route, cfg.seed, &layout, duration_s)
}

/// Road position of vehicle `id`'s newest trajectory metre at time `t`:
/// `FleetSim` binds metre `m` at road position `m`, for every whole metre
/// the vehicle has reached.
fn newest_metre(drives: &FleetScenario, id: u64, t: f64) -> f64 {
    drives.arc_at(id as usize - 1, t).floor().max(0.0)
}

/// The gap a fix of `observer` against its held snapshot of `neighbour`
/// should report: from the observer's newest metre now to the neighbour's
/// newest metre in that snapshot, as on the convoy workloads. Both ends
/// sit on whole metres. `FleetFix::truth_m` is the fractional gap at
/// query time instead, which adds how far the neighbour drove since its
/// last beacon got through and where each vehicle sits within its metre.
fn end_to_end_gap(sim: &FleetSim, drives: &FleetScenario, observer: u64, neighbour: u64) -> f64 {
    let shards = sim.shards();
    let home = shards.home_of(observer).expect("observer is resident");
    let sent_s = shards.shard(home).vehicles[&observer]
        .inbox
        .neighbour(neighbour)
        .and_then(|s| s.geo.latest_timestamp())
        .expect("a fix task implies a held snapshot");
    assert!(
        sim.truth_gap_m(observer, neighbour, sent_s)
            == drives.truth_gap(neighbour as usize - 1, observer as usize - 1, sent_s),
        "the rebuilt drives differ from the fleet's"
    );
    newest_metre(drives, neighbour, sent_s) - newest_metre(drives, observer, sim.now_s())
}

impl Workload for Fleet {
    fn prepare(&mut self) {
        if self.drives.is_empty() {
            self.drives = self.sims.iter().map(|s| drives_of(s.config())).collect();
        }
    }

    fn epoch(&mut self, tr: &mut Tracer, fixes: &mut Vec<Fix>) {
        let i = self.stepped % FLEETS;
        let sim = &mut self.sims[i];
        self.stepped += 1;
        tr.begin("fleet.step");
        let out = sim.step_epoch();
        tr.record_ending_now("fleet.query", (out.query_wall_s * 1e9) as u64);
        tr.end();

        let c = &mut self.counts;
        c.fleet_tasks += out.tasks as u64;
        c.fleet_relayed += out.relayed as u64;
        c.fleet_rehomes += out.rehomes as u64;
        c.steals += out.steals.steals;
        let per_worker = &out.steals.per_worker;
        let busiest = per_worker.iter().copied().max().unwrap_or(0) as f64;
        let mean = per_worker.iter().sum::<u64>() as f64 / per_worker.len().max(1) as f64;
        if mean > 0.0 {
            c.imbalance_sum += busiest / mean;
        }
        for f in out.fixes {
            let graded = f.result.ok();
            if let Some(g) = &graded {
                c.add_grade(g.report.quality);
            }
            fixes.push(Fix {
                observer: f.observer,
                neighbour: f.neighbour,
                est_m: graded.as_ref().map(|g| g.fix.distance_m),
                truth_m: end_to_end_gap(sim, &self.drives[i], f.observer, f.neighbour),
            });
        }
    }

    fn counts(&self) -> Counts {
        let mut c = self.counts.clone();
        for sim in &self.sims {
            for shard in sim.shards().shards() {
                c.add_link(shard.link.stats());
                c.add_codec(&shard.registry);
                for v in shard.vehicles.values() {
                    c.add_engine(v.node.engine_stats());
                    c.add_inbox(v.inbox.stats());
                }
            }
            c.cell_moves += sim.index().stats().moves;
        }
        c
    }

    fn round(&self) -> usize {
        FLEETS
    }

    fn max_epochs(&self) -> Option<usize> {
        Some(FLEETS * EPOCH_BUDGET - self.stepped)
    }
}
