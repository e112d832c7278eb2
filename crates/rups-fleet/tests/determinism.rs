//! Differential proof of the sharded layer's determinism claim.
//!
//! Part A: the same fleet configuration run with 1, 2 and 4 scheduler
//! workers — under bursty link faults — must produce bit-identical
//! per-epoch fix sets. Worker count may only change wall-clock time and
//! which worker ran each observer's fixes, never results.
//!
//! Part B: with ideal links, the full sharded machinery (cell index,
//! cross-shard routing, relays, re-homing, parallel queries) must produce
//! exactly the fixes of a straight-line unsharded reference loop that
//! delivers every in-radius beacon directly and queries a sorted double
//! loop sequentially. Sharding is an execution strategy, not a model
//! change.

use rups_core::error::RupsError;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::inbox::{InboxConfig, SnapshotInbox};
use rups_core::pipeline::{GradedFix, RupsNode};
use rups_core::quality::{self, QualityConfig};
use rups_core::testfield;
use rups_fleet::{FleetConfig, FleetSim};
use std::collections::BTreeMap;
use urban_sim::{FleetLayout, FleetScenario, RoadClass, Route};
use v2v_sim::{decode_snapshot, exchange_time_s, try_encode_snapshot, FaultConfig, WsmConfig};

fn base_cfg() -> FleetConfig {
    FleetConfig {
        seed: 11,
        n_vehicles: 12,
        lanes: 3,
        n_shards: 3,
        cell_m: 100.0,
        radius_m: 100.0,
        n_channels: 12,
        max_context_m: 220,
        context_m: 140,
        warmup_s: 25,
        epochs: 5,
        ..FleetConfig::default()
    }
}

fn burst_faults() -> FaultConfig {
    FaultConfig {
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.01,
        jitter_s: 0.02,
        ..FaultConfig::bursty(0.15, 0.35, 1.0)
    }
}

#[test]
fn worker_count_never_changes_the_output() {
    let mk = |workers| FleetConfig {
        workers,
        faults: burst_faults(),
        ..base_cfg()
    };
    let reference = FleetSim::run(mk(1));
    assert!(
        reference.fixes_ok() > 0,
        "faulted baseline produced no fixes"
    );
    for workers in [2, 4] {
        let run = FleetSim::run(mk(workers));
        assert_eq!(run.epochs.len(), reference.epochs.len());
        for (a, b) in reference.epochs.iter().zip(&run.epochs) {
            assert_eq!(a.fixes, b.fixes, "workers={workers}, t={}", a.t_s);
            assert_eq!(a.candidates, b.candidates, "workers={workers}");
            assert_eq!(a.tasks, b.tasks, "workers={workers}");
            assert_eq!(a.rehomes, b.rehomes, "workers={workers}");
            assert_eq!(a.relayed, b.relayed, "workers={workers}");
        }
    }
}

struct RefVehicle {
    node: RupsNode,
    inbox: SnapshotInbox,
}

type RefFix = (u64, u64, Result<GradedFix, RupsError>);

/// The unsharded reference: one flat loop, direct in-radius delivery,
/// sequential sorted queries. No cells, shards, channels or threads.
// Index loops are deliberate: `within` and the pairwise fix bookkeeping
// relate *two* positions, which iterator adapters would only obscure.
#[allow(clippy::needless_range_loop)]
fn reference_run(cfg: &FleetConfig) -> Vec<Vec<RefFix>> {
    let route = Route::straight(RoadClass::Urban8Lane, cfg.road_len_m);
    let layout = FleetLayout {
        n_vehicles: cfg.n_vehicles,
        lanes: cfg.lanes,
        initial_gap_m: cfg.initial_gap_m,
        ..FleetLayout::default()
    };
    let duration = (cfg.warmup_s + cfg.epochs + 2) as f64;
    let fleet = FleetScenario::simulate(&route, cfg.seed, &layout, duration);
    let rcfg = cfg.rups_config();
    let field_seed = cfg.seed ^ 0xF1E1D;
    let qcfg = QualityConfig::default();
    let wsm = WsmConfig::default();
    let mut vehicles: Vec<RefVehicle> = (0..cfg.n_vehicles)
        .map(|k| RefVehicle {
            node: RupsNode::new(rcfg.clone()).with_vehicle_id((k + 1) as u64),
            inbox: SnapshotInbox::new(InboxConfig::for_rups(&rcfg, cfg.horizon_s)),
        })
        .collect();
    let mut appended = vec![0u64; cfg.n_vehicles];
    let mut out = Vec::with_capacity(cfg.epochs);
    for step in 1..=(cfg.warmup_s + cfg.epochs) {
        let t = step as f64;
        for (k, vehicle) in vehicles.iter_mut().enumerate() {
            let target = fleet.arc_at(k, t).floor().max(0.0) as u64;
            for m in appended[k] + 1..=target {
                vehicle
                    .node
                    .append_metre(
                        GeoSample {
                            heading_rad: route.heading_at(m as f64),
                            timestamp_s: t,
                        },
                        &PowerVector::from_fn(cfg.n_channels, |ch| {
                            Some(testfield::rssi(field_seed, m as f64, ch))
                        }),
                    )
                    .expect("synthetic metre must append");
            }
            appended[k] = appended[k].max(target);
        }
        if step <= cfg.warmup_s {
            continue;
        }

        let pos: Vec<(f64, f64)> = (0..cfg.n_vehicles)
            .map(|k| fleet.pos_at(&route, k, t))
            .collect();
        let r2 = cfg.radius_m * cfg.radius_m;
        // Mirrors `CellIndex::neighbours_within` arithmetic exactly:
        // dx = other − me, squared-distance comparison.
        let within = |me: usize, other: usize| {
            let (dx, dy) = (pos[other].0 - pos[me].0, pos[other].1 - pos[me].1);
            dx * dx + dy * dy <= r2
        };

        // Beacon: codec round-trip (the wire quantises RSSI) delivered
        // directly to every in-radius receiver at the WSM arrival time.
        for k in 0..cfg.n_vehicles {
            let snap = vehicles[k].node.snapshot(Some(cfg.context_m));
            let Ok(wire) = try_encode_snapshot(&snap) else {
                continue;
            };
            let arrival = t + exchange_time_s(wire.len(), &wsm);
            for r in 0..cfg.n_vehicles {
                if r == k || !within(r, k) {
                    continue;
                }
                let decoded = decode_snapshot(&wire).expect("codec round-trip");
                let _ = vehicles[r].inbox.accept(decoded, arrival);
            }
        }

        // Query: sorted observer × neighbour double loop, sequential.
        let mut fixes: Vec<RefFix> = Vec::new();
        for obs in 0..cfg.n_vehicles {
            let by_sender: BTreeMap<u64, _> = vehicles[obs]
                .inbox
                .fresh(t)
                .into_iter()
                .filter_map(|s| s.vehicle_id.map(|id| (id, s.clone())))
                .collect();
            for nb in 0..cfg.n_vehicles {
                if nb == obs || !within(obs, nb) {
                    continue;
                }
                let Some(snap) = by_sender.get(&((nb + 1) as u64)) else {
                    continue;
                };
                let result = vehicles[obs].node.fix_distance(snap).map(|fix| GradedFix {
                    report: quality::assess(&fix, &qcfg),
                    fix,
                });
                fixes.push(((obs + 1) as u64, (nb + 1) as u64, result));
            }
        }
        out.push(fixes);
    }
    out
}

#[test]
fn sharded_run_matches_unsharded_reference() {
    // Ideal links so delivery sets are provably equal; multiple shards,
    // multiple workers and cell_m == radius_m so routing, parallel queries
    // and re-homing all actually fire while matching the reference.
    let cfg = FleetConfig {
        workers: 2,
        ..base_cfg()
    };
    let sharded = FleetSim::run(cfg.clone());
    let reference = reference_run(&cfg);

    assert_eq!(sharded.epochs.len(), reference.len());
    let mut total = 0;
    for (epoch, want) in sharded.epochs.iter().zip(&reference) {
        let got: Vec<RefFix> = epoch
            .fixes
            .iter()
            .map(|f| (f.observer, f.neighbour, f.result.clone()))
            .collect();
        assert_eq!(&got, want, "t={}", epoch.t_s);
        total += got.len();
    }
    assert!(total > 0, "differential ran but produced no fixes");

    // The sharded machinery was genuinely exercised, not bypassed.
    assert!(
        sharded.epochs.iter().map(|e| e.relayed).sum::<usize>() > 0,
        "no beacon ever crossed a shard boundary"
    );
    assert!(
        sharded.epochs.iter().map(|e| e.rehomes).sum::<usize>() > 0,
        "no vehicle was ever re-homed"
    );
}
