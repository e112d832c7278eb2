//! `FleetSim`: the city-scale driver tying the layer together.
//!
//! One simulated second is one epoch. Each epoch runs five strictly
//! ordered phases:
//!
//! 1. **advance** — every vehicle appends the GSM metres it crossed
//!    (shared synthetic field, per-metre `append_metre`), the cell index
//!    re-buckets incrementally, and vehicles whose cell changed owner are
//!    re-homed to the owning shard.
//! 2. **beacon** — every vehicle encodes its context snapshot and
//!    broadcasts it on its shard-local faulty link; the encoded payload is
//!    additionally routed (bounded channels) to every other shard owning
//!    an occupied cell of the sender's 3×3 halo.
//! 3. **relay** — each shard's relay re-broadcasts queued cross-shard
//!    beacons onto its local link.
//! 4. **receive** — every vehicle polls its endpoint, filters deliveries
//!    to its current halo candidates and feeds them through the shard
//!    codec into its vetted inbox.
//! 5. **query** — every observer's pending fix queries (its in-radius
//!    neighbours with a fresh snapshot) form one item, in ascending
//!    observer order; the scheduler ([`crate::sched`]) hands the items out
//!    from one cursor, so an observer's fixes run back to back on one
//!    worker, and results land in item order, so the output is
//!    deterministic for any worker count.
//!
//! Phases 1–4 are sequential and deterministic; phase 5 is the only
//! parallel section and each fix query is a pure function of the
//! observer's own context and the neighbour's decoded snapshot, which is
//! the whole determinism argument (see `tests/determinism.rs` for the
//! differential proof against an unsharded reference loop).

use crate::cell::{CellIndex, CellStats};
use crate::sched::{self, StealStats};
use crate::shard::{RoutedBeacon, ShardConfig, ShardSet, RELAY_ID_BASE};
use rups_core::config::RupsConfig;
use rups_core::error::RupsError;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::inbox::{InboxConfig, SnapshotInbox};
use rups_core::pipeline::{ContextSnapshot, GradedFix, RupsNode};
use rups_core::quality::{self, QualityConfig};
use rups_core::testfield;
use rups_obs::{FleetAggregator, FleetSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use urban_sim::{FleetLayout, FleetScenario, RoadClass, Route};
use v2v_sim::fault::FaultConfig;
use v2v_sim::try_encode_snapshot;

/// Full configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed for scenario, links and field.
    pub seed: u64,
    /// Fleet size.
    pub n_vehicles: usize,
    /// Lanes the fleet occupies (round-robin).
    pub lanes: usize,
    /// Initial within-lane spacing, metres.
    pub initial_gap_m: f64,
    /// Route length, metres.
    pub road_len_m: f64,
    /// Number of geographic shards.
    pub n_shards: usize,
    /// Scheduler worker threads for the query phase.
    pub workers: usize,
    /// Cell side of the spatial index, metres.
    pub cell_m: f64,
    /// Neighbour radius for fix queries, metres (≤ `cell_m`).
    pub radius_m: f64,
    /// GSM channels carried in contexts.
    pub n_channels: usize,
    /// Maximum retained context, metres.
    pub max_context_m: usize,
    /// Snapshot length broadcast each epoch, metres.
    pub context_m: usize,
    /// Warm-up epochs (drive + index only, no beaconing) before
    /// measurement.
    pub warmup_s: usize,
    /// Measured epochs.
    pub epochs: usize,
    /// Inbox staleness horizon, seconds.
    pub horizon_s: f64,
    /// How far past the epoch boundary receivers poll for arrivals,
    /// seconds (covers WSM latency + jitter).
    pub rx_slack_s: f64,
    /// Bounded capacity of each shard's cross-shard ingress channel.
    pub channel_capacity: usize,
    /// Fault model of every shard-local link.
    pub faults: FaultConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            n_vehicles: 12,
            lanes: 2,
            initial_gap_m: 45.0,
            road_len_m: 30_000.0,
            n_shards: 4,
            workers: 1,
            cell_m: 120.0,
            radius_m: 120.0,
            n_channels: 32,
            max_context_m: 400,
            context_m: 200,
            warmup_s: 40,
            epochs: 10,
            horizon_s: 15.0,
            rx_slack_s: 0.5,
            channel_capacity: 4096,
            faults: FaultConfig::ideal(),
        }
    }
}

impl FleetConfig {
    /// The node configuration every vehicle runs.
    pub fn rups_config(&self) -> RupsConfig {
        RupsConfig {
            n_channels: self.n_channels,
            max_context_m: self.max_context_m,
            ..RupsConfig::default()
        }
    }

    /// Validates cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_vehicles == 0 {
            return Err("n_vehicles must be positive".into());
        }
        if self.radius_m > self.cell_m {
            return Err(format!(
                "radius_m {} must not exceed cell_m {} (3×3 halo coverage)",
                self.radius_m, self.cell_m
            ));
        }
        if self.n_shards == 0 || self.workers == 0 {
            return Err("n_shards and workers must be positive".into());
        }
        Ok(())
    }
}

/// One graded pairwise fix produced by the query phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFix {
    /// Observing vehicle id.
    pub observer: u64,
    /// Neighbour whose snapshot was queried.
    pub neighbour: u64,
    /// Ground-truth along-road gap (`arc(neighbour) − arc(observer)`),
    /// metres, at the epoch time.
    pub truth_m: f64,
    /// The fix, or the typed pipeline error.
    pub result: Result<GradedFix, RupsError>,
}

/// Everything one measured epoch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Epoch time, seconds.
    pub t_s: f64,
    /// Graded fixes in deterministic `(observer, neighbour)` order.
    pub fixes: Vec<FleetFix>,
    /// Ordered halo candidate count over the fleet this epoch (the
    /// sub-quadratic workload measure; compare with `n·(n−1)`).
    pub candidates: usize,
    /// Fix queries actually scheduled (candidates within radius with a
    /// fresh snapshot in the observer's inbox).
    pub tasks: usize,
    /// Scheduler statistics: the fixes each worker ran.
    pub steals: StealStats,
    /// Vehicles migrated between shards this epoch.
    pub rehomes: usize,
    /// Cross-shard beacons relayed this epoch.
    pub relayed: usize,
    /// Wall-clock seconds spent in the parallel query phase.
    pub query_wall_s: f64,
}

impl EpochOutcome {
    /// Fixes that produced a graded estimate.
    pub fn fixes_ok(&self) -> usize {
        self.fixes.iter().filter(|f| f.result.is_ok()).count()
    }

    /// Mean `|fix − truth|` over successful fixes, metres (`None` when no
    /// fix succeeded).
    pub fn mean_abs_err_m(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .fixes
            .iter()
            .filter_map(|f| {
                f.result
                    .as_ref()
                    .ok()
                    .map(|g| (g.fix.distance_m - f.truth_m).abs())
            })
            .collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }
}

/// Aggregate result of [`FleetSim::run`].
#[derive(Debug)]
pub struct FleetRun {
    /// Per-epoch outcomes, in time order.
    pub epochs: Vec<EpochOutcome>,
    /// Shard registries merged by `rups_obs::FleetAggregator`
    /// (shard index as the node key).
    pub fleet: Option<FleetSnapshot>,
    /// Cell-index maintenance counters over the whole run.
    pub cell_stats: CellStats,
}

impl FleetRun {
    /// Total successful fixes across all epochs.
    pub fn fixes_ok(&self) -> usize {
        self.epochs.iter().map(EpochOutcome::fixes_ok).sum()
    }

    /// Total wall-clock seconds spent in query phases.
    pub fn query_wall_s(&self) -> f64 {
        self.epochs.iter().map(|e| e.query_wall_s).sum()
    }

    /// Successful fixes per query-phase wall second.
    pub fn fixes_per_sec(&self) -> f64 {
        let wall = self.query_wall_s();
        if wall > 0.0 {
            self.fixes_ok() as f64 / wall
        } else {
            0.0
        }
    }
}

/// One observer's share of the query phase: a fix against every
/// in-radius neighbour holding a fresh snapshot, in neighbour order.
struct ObserverTask<'a> {
    observer: u64,
    node: &'a RupsNode,
    /// `(neighbour, truth_m, snapshot)` per fix query.
    queries: Vec<(u64, f64, &'a ContextSnapshot)>,
}

/// The sharded many-vehicle simulation driver.
pub struct FleetSim {
    cfg: FleetConfig,
    route: Route,
    fleet: FleetScenario,
    index: CellIndex,
    shards: ShardSet,
    qcfg: QualityConfig,
    field_seed: u64,
    /// Whole metres already appended per vehicle (index = id − 1).
    appended_m: Vec<u64>,
    /// Simulated time, seconds; advances one epoch per step.
    now_s: f64,
}

impl FleetSim {
    /// Builds the fleet: scenario, shards, engines, inboxes, index.
    ///
    /// # Panics
    /// Panics when the configuration is invalid
    /// (see [`FleetConfig::validate`]).
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate().expect("invalid fleet configuration");
        let route = Route::straight(RoadClass::Urban8Lane, cfg.road_len_m);
        let layout = FleetLayout {
            n_vehicles: cfg.n_vehicles,
            lanes: cfg.lanes,
            initial_gap_m: cfg.initial_gap_m,
            ..FleetLayout::default()
        };
        let duration = (cfg.warmup_s + cfg.epochs + 2) as f64;
        let fleet = FleetScenario::simulate(&route, cfg.seed, &layout, duration);
        let mut index = CellIndex::new(cfg.cell_m);
        let mut shards = ShardSet::new(&ShardConfig {
            n_shards: cfg.n_shards,
            channel_capacity: cfg.channel_capacity,
            faults: cfg.faults,
            seed: cfg.seed,
        });
        let rcfg = cfg.rups_config();
        for k in 0..cfg.n_vehicles {
            let id = (k + 1) as u64;
            let pos = fleet.pos_at(&route, k, 0.0);
            index.update(id, pos);
            let owner = shards.shard_for_cell(index.home_cell(id).unwrap());
            shards.admit(
                id,
                owner,
                RupsNode::new(rcfg.clone()),
                SnapshotInbox::new(InboxConfig::for_rups(&rcfg, cfg.horizon_s)),
            );
        }
        let field_seed = cfg.seed ^ 0xF1E1D;
        FleetSim {
            cfg,
            route,
            fleet,
            index,
            shards,
            qcfg: QualityConfig::default(),
            field_seed,
            appended_m: vec![0; layout.n_vehicles],
            now_s: 0.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The spatial index (for candidate statistics).
    pub fn index(&self) -> &CellIndex {
        &self.index
    }

    /// The shard set (for telemetry inspection).
    pub fn shards(&self) -> &ShardSet {
        &self.shards
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Ground-truth along-road gap `arc(b) − arc(a)` at time `t`.
    pub fn truth_gap_m(&self, a: u64, b: u64, t: f64) -> f64 {
        self.fleet.truth_gap((b - 1) as usize, (a - 1) as usize, t)
    }

    /// Advances one second of driving: context appends, incremental
    /// re-bucketing and shard re-homing. Returns vehicles re-homed.
    fn advance(&mut self) -> usize {
        self.now_s += 1.0;
        let t = self.now_s;
        let n_channels = self.cfg.n_channels;
        let field_seed = self.field_seed;
        let mut rehomes = 0;
        for k in 0..self.cfg.n_vehicles {
            let id = (k + 1) as u64;
            // Append every whole metre crossed since the last epoch,
            // stamped at this epoch's time (1 Hz sampling granularity).
            let target = self.fleet.arc_at(k, t).floor().max(0.0) as u64;
            let home = self.shards.home_of(id).expect("resident vehicle");
            let vehicle = self
                .shards
                .shard_mut(home)
                .vehicles
                .get_mut(&id)
                .expect("home map in sync");
            for m in self.appended_m[k] + 1..=target {
                let heading = self.route.heading_at(m as f64);
                vehicle
                    .node
                    .append_metre(
                        GeoSample {
                            heading_rad: heading,
                            timestamp_s: t,
                        },
                        &PowerVector::from_fn(n_channels, |ch| {
                            Some(testfield::rssi(field_seed, m as f64, ch))
                        }),
                    )
                    .expect("synthetic metre must append");
            }
            self.appended_m[k] = self.appended_m[k].max(target);

            let pos = self.fleet.pos_at(&self.route, k, t);
            if self.index.update(id, pos) {
                let owner = self
                    .shards
                    .shard_for_cell(self.index.home_cell(id).unwrap());
                if owner != home {
                    self.shards.rehome(id, owner);
                    rehomes += 1;
                }
            }
        }
        rehomes
    }

    /// Runs the warm-up phase: driving and index maintenance only.
    pub fn warm_up(&mut self) {
        for _ in 0..self.cfg.warmup_s {
            self.advance();
        }
    }

    /// Runs one full measured epoch and returns its outcome.
    pub fn step_epoch(&mut self) -> EpochOutcome {
        let rehomes = self.advance();
        let t = self.now_s;

        // Beacon: broadcast locally, route encoded payloads to every
        // other shard owning an occupied halo cell of the sender.
        for id in self.shards.vehicle_ids() {
            let home = self.shards.home_of(id).unwrap();
            let snap = self.shards.shard(home).vehicles[&id]
                .node
                .snapshot(Some(self.cfg.context_m));
            let Ok(wire) = try_encode_snapshot(&snap) else {
                continue;
            };
            self.shards.shard(home).vehicles[&id]
                .endpoint
                .broadcast(t, wire.clone());
            let cell = self.index.home_cell(id).unwrap();
            let mut targets = BTreeSet::new();
            for dx in -1..=1i64 {
                for dy in -1..=1i64 {
                    let c = (cell.0 + dx, cell.1 + dy);
                    if self.index.cell_is_occupied(c) {
                        targets.insert(self.shards.shard_for_cell(c));
                    }
                }
            }
            targets.remove(&home);
            for shard in targets {
                self.shards.route(
                    shard,
                    RoutedBeacon {
                        from: id,
                        sent_s: t,
                        payload: wire.clone(),
                    },
                );
            }
        }

        // Relay queued cross-shard beacons onto their local links.
        let relayed = self.shards.drain_ingress();

        // Receive: poll, halo-filter, decode through the shard codec,
        // accept into the vetted inbox.
        let rx_until = t + self.cfg.rx_slack_s;
        for s in 0..self.shards.n_shards() {
            let ids: Vec<u64> = self.shards.shard(s).vehicles.keys().copied().collect();
            for id in ids {
                let halo: BTreeSet<u64> = self.index.halo_candidates(id).into_iter().collect();
                let deliveries = self.shards.shard(s).vehicles[&id]
                    .endpoint
                    .poll_until(rx_until);
                for d in deliveries {
                    // Direct frames identify their sender at the link
                    // level; relayed frames only via the decoded snapshot.
                    if d.from < RELAY_ID_BASE && !halo.contains(&d.from) {
                        continue;
                    }
                    let Ok(snap) = self.shards.shard(s).codec.decode(&d.payload) else {
                        continue;
                    };
                    match snap.vehicle_id {
                        Some(from) if halo.contains(&from) => {
                            let shard = self.shards.shard_mut(s);
                            let _ = shard
                                .vehicles
                                .get_mut(&id)
                                .unwrap()
                                .inbox
                                .accept(snap, d.arrival_s);
                        }
                        _ => {}
                    }
                }
            }
        }

        // Query: one item per observer, in ascending observer order, each
        // holding its fix queries in neighbour order.
        let candidates = self.index.candidate_count();
        let mut tasks: Vec<ObserverTask<'_>> = Vec::new();
        for id in self.shards.vehicle_ids() {
            let home = self.shards.home_of(id).unwrap();
            let vehicle = &self.shards.shard(home).vehicles[&id];
            let mut by_sender = BTreeMap::new();
            for snap in vehicle.inbox.fresh(t) {
                if let Some(from) = snap.vehicle_id {
                    by_sender.insert(from, snap);
                }
            }
            let queries: Vec<_> = self
                .index
                .neighbours_within(id, self.cfg.radius_m)
                .into_iter()
                .filter_map(|nb| {
                    let snap = *by_sender.get(&nb)?;
                    Some((nb, self.truth_gap_m(id, nb, t), snap))
                })
                .collect();
            if !queries.is_empty() {
                tasks.push(ObserverTask {
                    observer: id,
                    node: &vehicle.node,
                    queries,
                });
            }
        }
        let qcfg = self.qcfg;
        let started = std::time::Instant::now();
        let (results, steals) = sched::run_tasks(&tasks, self.cfg.workers, |task| {
            task.queries
                .iter()
                .map(|&(_, _, snap)| {
                    task.node.fix_distance(snap).map(|fix| GradedFix {
                        report: quality::assess(&fix, &qcfg),
                        fix,
                    })
                })
                .collect()
        });
        let query_wall_s = started.elapsed().as_secs_f64();
        let fixes: Vec<FleetFix> = tasks
            .iter()
            .zip(results)
            .flat_map(|(task, results)| {
                task.queries
                    .iter()
                    .zip(results)
                    .map(|(&(neighbour, truth_m, _), result)| FleetFix {
                        observer: task.observer,
                        neighbour,
                        truth_m,
                        result,
                    })
            })
            .collect();

        EpochOutcome {
            t_s: t,
            tasks: fixes.len(),
            fixes,
            candidates,
            steals,
            rehomes,
            relayed,
            query_wall_s,
        }
    }

    /// Runs warm-up plus every measured epoch and aggregates shard
    /// telemetry into one fleet snapshot.
    pub fn run(cfg: FleetConfig) -> FleetRun {
        let mut sim = FleetSim::new(cfg);
        sim.warm_up();
        let mut epochs = Vec::with_capacity(sim.cfg.epochs);
        for _ in 0..sim.cfg.epochs {
            epochs.push(sim.step_epoch());
        }
        let parts: Vec<_> = sim
            .shards
            .shards()
            .iter()
            .map(|s| (s.id as u64, s.registry.snapshot()))
            .collect();
        let fleet = FleetAggregator::new().aggregate(&parts).ok();
        FleetRun {
            epochs,
            fleet,
            cell_stats: sim.index.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FleetConfig {
        FleetConfig {
            n_vehicles: 6,
            n_shards: 2,
            n_channels: 12,
            max_context_m: 220,
            context_m: 140,
            warmup_s: 25,
            epochs: 3,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn run_produces_fixes_and_telemetry() {
        let run = FleetSim::run(tiny_cfg());
        assert_eq!(run.epochs.len(), 3);
        assert!(run.fixes_ok() > 0, "no fixes produced: {:?}", run.epochs);
        // Telemetry merged across shards.
        let fleet = run.fleet.expect("aggregation succeeds");
        assert!(!fleet.nodes.is_empty());
        // The index was maintained incrementally, not rebuilt.
        assert!(run.cell_stats.updates > run.cell_stats.moves);
    }

    #[test]
    fn the_scheduler_counts_every_fix_once() {
        let workers = 3;
        let run = FleetSim::run(FleetConfig {
            workers,
            ..tiny_cfg()
        });
        for e in &run.epochs {
            assert_eq!(e.steals.per_worker.iter().sum::<u64>(), e.tasks as u64);
            assert!(e.steals.per_worker.len() <= workers);
            assert_eq!(e.steals.steals, 0);
        }
    }

    #[test]
    fn fixes_are_reasonably_accurate() {
        let run = FleetSim::run(tiny_cfg());
        let last = run.epochs.last().unwrap();
        let err = last.mean_abs_err_m().expect("fixes in final epoch");
        assert!(err < 10.0, "mean |error| {err} m too large");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(FleetConfig {
            radius_m: 200.0,
            cell_m: 100.0,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            n_vehicles: 0,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
    }
}
