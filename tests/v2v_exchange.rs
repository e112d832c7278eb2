//! V2V integration: broadcast link + wire codec + tracking sessions across
//! several vehicles, including threaded exchange.

use bytes::Bytes;
use rups::core::prelude::*;
use rups::core::testfield;
use rups::v2v::wsm::{exchange_time_s, fragment, reassemble, WsmConfig};
use rups::v2v::{decode_snapshot, encode_snapshot, FaultConfig, TrackingSession, Update, V2vLink};

const N_CHANNELS: usize = 48;

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: N_CHANNELS,
        window_channels: 24,
        ..RupsConfig::default()
    }
}

fn drive_node(start: usize, len: usize, id: u64) -> RupsNode {
    let mut node = RupsNode::new(cfg()).with_vehicle_id(id);
    for i in 0..len {
        let s = (start + i) as f64;
        let pv = PowerVector::from_fn(N_CHANNELS, |ch| Some(testfield::rssi(17, s, ch)));
        node.append_metre(
            GeoSample {
                heading_rad: 0.0,
                timestamp_s: s / 10.0,
            },
            &pv,
        )
        .unwrap();
    }
    node
}

#[test]
fn five_vehicle_platoon_over_the_link() {
    let offsets = [0usize, 30, 65, 95, 140];
    let nodes: Vec<RupsNode> = offsets
        .iter()
        .enumerate()
        .map(|(i, &o)| drive_node(o, 400, i as u64 + 1))
        .collect();

    let link = V2vLink::new();
    let endpoints: Vec<_> = (1..=5u64).map(|id| link.join(id)).collect();
    for (node, ep) in nodes.iter().zip(&endpoints) {
        ep.broadcast(0.0, encode_snapshot(&node.snapshot(None)));
    }

    // Every vehicle hears the other four and resolves all gaps correctly.
    for (i, (node, ep)) in nodes.iter().zip(&endpoints).enumerate() {
        let snaps: Vec<ContextSnapshot> = ep
            .poll()
            .iter()
            .map(|d| decode_snapshot(&d.payload).unwrap())
            .collect();
        assert_eq!(
            snaps.len(),
            4,
            "vehicle {} heard {} broadcasts",
            i + 1,
            snaps.len()
        );
        for (snap, fix) in snaps.iter().zip(node.fix_distances_parallel(&snaps)) {
            let j = snap.vehicle_id.unwrap() as usize - 1;
            let truth = offsets[j] as f64 - offsets[i] as f64;
            let d = fix.expect("platoon members share the road").distance_m;
            assert!(
                (d - truth).abs() < 2.0,
                "{} → {}: got {d:.1}, truth {truth}",
                i + 1,
                j + 1
            );
        }
    }
}

#[test]
fn fragmentation_respects_wsm_mtu_end_to_end() {
    let node = drive_node(0, 800, 1);
    let wire = encode_snapshot(&node.snapshot(None));
    let wsm = WsmConfig::default();
    let frags = fragment(&wire, &wsm);
    assert!(frags.iter().all(|f| f.len() <= wsm.payload_bytes));
    // Latency model: a 48-channel 800 m context still transfers in well
    // under a second.
    let t = exchange_time_s(wire.len(), &wsm);
    assert!(t < 0.5, "exchange time {t:.3} s");
    // Reassembly and decode still work after fragmentation.
    let snap = decode_snapshot(&reassemble(&frags)).unwrap();
    assert_eq!(snap.len(), 800);
}

#[test]
fn lossy_link_degrades_but_does_not_corrupt() {
    let link = V2vLink::with_faults(FaultConfig::iid_loss(0.4), 7);
    let a = link.join(1);
    let b = link.join(2);
    let node = drive_node(0, 300, 1);
    let wire = encode_snapshot(&node.snapshot(None));
    let mut received = 0;
    for i in 0..50 {
        a.broadcast(i as f64, wire.clone());
        for d in b.poll() {
            // Whatever arrives must decode cleanly (loss is whole-message).
            let snap = decode_snapshot(&d.payload).unwrap();
            assert_eq!(snap.len(), 300);
            received += 1;
        }
    }
    assert!(
        received > 15 && received < 45,
        "≈60% of 50 expected, got {received}"
    );
}

#[test]
fn tracking_session_supports_continuous_queries() {
    // A follower keeps a tracking session against a moving leader: full
    // context once, then tails; the reconstructed remote context keeps
    // answering distance queries.
    let mut leader = drive_node(60, 500, 1);
    let follower = drive_node(0, 500, 2);
    let mut session = TrackingSession::new(400);

    // Receiver-side reconstruction of the leader context.
    let mut remote: Option<ContextSnapshot> = None;
    let apply = |u: Update, remote: &mut Option<ContextSnapshot>| match u {
        Update::Full(bytes) => *remote = Some(decode_snapshot(&bytes).unwrap()),
        Update::Tail { payload, .. } => {
            let tail = decode_snapshot(&payload).unwrap();
            let r = remote.as_mut().expect("tail before full");
            for i in 0..tail.len() {
                r.geo.push(tail.geo.samples()[i]);
                r.gsm.push(&tail.gsm.power_at(i));
            }
        }
    };

    apply(
        session.next_update(&leader.snapshot(None)).unwrap(),
        &mut remote,
    );
    let d0 = follower
        .fix_distance(remote.as_ref().unwrap())
        .unwrap()
        .distance_m;
    assert!((d0 - 60.0).abs() < 2.0);

    // Leader advances 30 m; the session ships only the tail.
    for i in 0..30usize {
        let s = (560 + i) as f64;
        let pv = PowerVector::from_fn(N_CHANNELS, |ch| Some(testfield::rssi(17, s, ch)));
        leader
            .append_metre(
                GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: s / 10.0,
                },
                &pv,
            )
            .unwrap();
    }
    let update = session.next_update(&leader.snapshot(None)).unwrap();
    assert!(matches!(update, Update::Tail { new_metres: 30, .. }));
    let tail_bytes = update.wire_bytes();
    apply(update, &mut remote);
    let d1 = follower
        .fix_distance(remote.as_ref().unwrap())
        .unwrap()
        .distance_m;
    assert!(
        (d1 - 90.0).abs() < 2.0,
        "after 30 m advance the gap is 90 m, got {d1:.1}"
    );
    // And the tail was cheap.
    assert!(tail_bytes < 3_000, "tail update cost {tail_bytes} bytes");
}

#[test]
fn threaded_vehicles_exchange_concurrently() {
    let link = V2vLink::new();
    let eps: Vec<_> = (1..=3u64).map(|id| link.join(id)).collect();
    let payloads: Vec<Bytes> = (0..3)
        .map(|i| encode_snapshot(&drive_node(i * 40, 200, i as u64 + 1).snapshot(None)))
        .collect();

    let handles: Vec<_> = eps
        .into_iter()
        .zip(payloads)
        .map(|(ep, payload)| {
            std::thread::spawn(move || {
                ep.broadcast(0.0, payload);
                let mut got = 0;
                while got < 2 {
                    if ep.recv_blocking().is_some() {
                        got += 1;
                    }
                }
                got
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 2);
    }
}
