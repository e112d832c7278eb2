//! Golden tracked fixes: `RupsNode::tracked_fix` over a small convoy,
//! pinned bit for bit.
//!
//! Four vehicles drive the testfield at 10 m/s with ±2 dB scanner noise
//! (32 channels, a 16-channel window, 300 m contexts) and beacon every
//! simulated second through the wire codec, so every neighbour context is
//! quantised exactly as it would be on the air. From epoch 30 to 59 every
//! vehicle tracks every other one, and each follower also tracks an
//! anonymous copy of the leader's beacon. At epoch 45 the leader jumps
//! 80 m ahead: its context becomes the 300 m behind its new position, the
//! followers' anchored checks lose it and the full search re-acquires. Every outcome
//! (mode, distance bits and score bits, or the error) is compared with
//! `tests/fixtures/tracked_golden.json`.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test tracked_golden
//! ```

use rups::core::prelude::*;
use rups::core::testfield::{self, splitmix64};
use rups::v2v::{decode_snapshot, encode_snapshot};
use serde::Serialize;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/tracked_golden.json"
);

const N_CHANNELS: usize = 32;
const CONTEXT_M: usize = 300;
const SPEED_MPS: usize = 10;
const NOISE_DB: f64 = 2.0;
const FIELD_SEED: u64 = 0x7AC6;
/// Road position of each vehicle's first trajectory metre; id `k + 1` is
/// vehicle `k`, the leader is the last one. The fractional parts make the
/// metre marks of any two vehicles interleave differently.
const OFFSETS_M: [f64; 4] = [0.0, 45.25, 95.5, 150.75];
const LEADER: usize = 3;
const JUMP_EPOCH: usize = 45;
const JUMP_M: f64 = 80.0;
const TRACK_FROM: usize = 30;
const LAST_EPOCH: usize = 59;

/// One `tracked_fix` call and its outcome.
#[derive(Serialize)]
struct Outcome {
    epoch: usize,
    observer: u64,
    /// The neighbour's vehicle id; `None` for the anonymous leader copy.
    neighbour: Option<u64>,
    /// `Full` or `Incremental`; `None` when the call errored.
    mode: Option<String>,
    /// `f64::to_bits` of the distance and score, in hex.
    distance_bits: Option<String>,
    score_bits: Option<String>,
    error: Option<String>,
}

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: N_CHANNELS,
        window_channels: 16,
        max_context_m: CONTEXT_M,
        ..RupsConfig::default()
    }
}

/// Uniform draw in `[0, 1)` keyed by `key`.
fn unit(key: u64) -> f64 {
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// The reading vehicle `k` takes at trajectory metre `i` from road
/// position `road_m`: the field plus triangular scanner noise.
fn power(k: usize, i: usize, road_m: f64) -> PowerVector {
    let key = (k as u64) << 48 ^ (i as u64) << 8;
    PowerVector::from_fn(N_CHANNELS, |ch| {
        let noise = NOISE_DB * (unit(key ^ ch as u64) + unit(key ^ ch as u64 ^ 0xB0B0 << 40) - 1.0);
        Some(testfield::rssi(FIELD_SEED, road_m, ch) + noise as f32)
    })
}

/// Appends trajectory metres `metres` of vehicle `k`, whose first metre
/// sits at road position `offset_m`.
fn drive(node: &mut RupsNode, k: usize, offset_m: f64, metres: std::ops::Range<usize>) {
    for i in metres {
        let geo = GeoSample {
            heading_rad: 0.0,
            timestamp_s: i as f64 / SPEED_MPS as f64,
        };
        node.append_metre(geo, &power(k, i, offset_m + i as f64))
            .expect("synthetic metre matches the band");
    }
}

/// A beacon as the receiver decodes it.
fn on_the_wire(snap: &ContextSnapshot) -> ContextSnapshot {
    decode_snapshot(&encode_snapshot(snap)).expect("an undamaged frame decodes")
}

fn record() -> Vec<Outcome> {
    let mut offsets = OFFSETS_M;
    let mut nodes: Vec<RupsNode> = (0..offsets.len())
        .map(|k| RupsNode::new(cfg()).with_vehicle_id(k as u64 + 1))
        .collect();
    let mut out = Vec::new();
    for epoch in 1..=LAST_EPOCH {
        let driven = epoch * SPEED_MPS;
        for (k, node) in nodes.iter_mut().enumerate() {
            if k == LEADER && epoch == JUMP_EPOCH {
                // The leader's context is replaced by the 300 m behind a
                // position 80 m further on.
                offsets[k] += JUMP_M;
                *node = RupsNode::new(cfg()).with_vehicle_id(k as u64 + 1);
                drive(node, k, offsets[k], driven - CONTEXT_M..driven);
            } else {
                drive(node, k, offsets[k], driven - SPEED_MPS..driven);
            }
        }
        if epoch < TRACK_FROM {
            continue;
        }
        let beacons: Vec<ContextSnapshot> = nodes
            .iter()
            .map(|n| on_the_wire(&n.snapshot(None)))
            .collect();
        let anonymous = ContextSnapshot {
            vehicle_id: None,
            ..beacons[LEADER].clone()
        };
        for (k, node) in nodes.iter_mut().enumerate() {
            let others = beacons.iter().enumerate().filter(|&(j, _)| j != k);
            let mut targets: Vec<&ContextSnapshot> = others.map(|(_, b)| b).collect();
            if k != LEADER {
                targets.push(&anonymous);
            }
            for snap in targets {
                let res = node.tracked_fix(snap);
                let bits = |v: f64| Some(format!("{:016x}", v.to_bits()));
                out.push(Outcome {
                    epoch,
                    observer: k as u64 + 1,
                    neighbour: snap.vehicle_id,
                    mode: res.as_ref().ok().map(|f| format!("{:?}", f.mode)),
                    distance_bits: res.as_ref().ok().and_then(|f| bits(f.distance_m)),
                    score_bits: res.as_ref().ok().and_then(|f| bits(f.score)),
                    error: res.err().map(|e| e.to_string()),
                });
            }
        }
    }
    out
}

#[test]
fn tracked_fixes_reproduce_the_golden_fixture() {
    let outcomes = record();
    assert_eq!(outcomes.len(), (LAST_EPOCH - TRACK_FROM + 1) * 15);
    let count = |mode: &str| {
        outcomes
            .iter()
            .filter(|o| o.mode.as_deref() == Some(mode))
            .count()
    };
    // Both paths must be exercised, or the fixture pins too little.
    assert!(count("Incremental") > 100 && count("Full") > 100);
    let json = serde_json::to_string_pretty(&outcomes).expect("outcomes must serialise");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &json).unwrap();
    }
    let on_disk = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — regenerate with UPDATE_GOLDEN=1");
    // Deliberately not assert_eq!: on drift that would dump the full JSON.
    assert!(
        on_disk == json,
        "the tracked fixes no longer reproduce the golden fixture \
         byte-for-byte (lengths: fixture {} vs regenerated {}); if the \
         change is intentional, refresh with UPDATE_GOLDEN=1",
        on_disk.len(),
        json.len()
    );
}
