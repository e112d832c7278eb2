//! Property: a causal trace survives the hostile wire intact.
//!
//! Beacons cross a fault-injected link that duplicates, reorders, drops,
//! truncates and bit-flips payloads. Whatever the channel does, the merged
//! fleet trace must stay sound:
//!
//! - **no duplicate intakes** — per receiver, at most one `inbox.validate`
//!   span is tagged with a given trace id, no matter how many copies of
//!   the beacon arrive;
//! - **no orphans** — every trace id attached to any span resolves to a
//!   `v2v.beacon` root span recorded by the sender (corrupt payloads must
//!   never plant a trace id nobody minted).
//!
//! The first property rests on the inbox's tagged-trace ring, the second
//! on the codec's self-verifying trace ids (a hash of sender id + beacon
//! sequence, recomputed on decode).

use proptest::prelude::*;
use rups_core::config::RupsConfig;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::inbox::{InboxConfig, SnapshotInbox};
use rups_core::pipeline::RupsNode;
use rups_obs::{merged_chrome_trace, NodeTrace, SpanRecorder, TRACE_ARG};
use std::sync::Arc;
use v2v_sim::codec::{decode_snapshot, encode_snapshot};
use v2v_sim::fault::FaultConfig;
use v2v_sim::link::V2vLink;

const N_CHANNELS: usize = 8;
const SENDER: u64 = 1;
const RECEIVERS: [u64; 2] = [2, 3];

fn fault_strategy() -> impl Strategy<Value = FaultConfig> {
    (
        0.0f64..0.4,  // duplicate
        0.0f64..0.4,  // reorder
        0.0f64..0.25, // corrupt
        0.0f64..0.2,  // truncate
        0.0f64..0.3,  // loss (uniform)
    )
        .prop_map(
            |(duplicate, reorder, corrupt, truncate, loss)| FaultConfig {
                duplicate,
                reorder,
                corrupt,
                truncate,
                jitter_s: 0.02,
                ..FaultConfig::iid_loss(loss)
            },
        )
}

/// Runs `n_beacons` traced broadcasts through a faulty link and returns
/// the merged multi-vehicle Chrome trace.
fn run_convoy(faults: FaultConfig, seed: u64, n_beacons: u32) -> rups_obs::ChromeTrace {
    let cfg = RupsConfig {
        n_channels: N_CHANNELS,
        window_channels: N_CHANNELS,
        ..RupsConfig::default()
    };
    let mut sender = RupsNode::new(cfg.clone()).with_vehicle_id(SENDER);
    let sender_spans = Arc::new(SpanRecorder::new(4096));

    let link = V2vLink::with_faults(faults, seed).with_spans(Arc::clone(&sender_spans));
    let tx = link.join(SENDER);
    let rx: Vec<_> = RECEIVERS.iter().map(|&id| link.join(id)).collect();

    let mut inboxes: Vec<(Arc<SpanRecorder>, SnapshotInbox)> = RECEIVERS
        .iter()
        .map(|_| {
            let spans = Arc::new(SpanRecorder::new(4096));
            let inbox = SnapshotInbox::new(InboxConfig::for_rups(&cfg, 30.0))
                .with_spans(Arc::clone(&spans));
            (spans, inbox)
        })
        .collect();

    // Seed the sender's journey context.
    fn append(node: &mut RupsNode, metre: &mut usize, metres: usize) {
        for _ in 0..metres {
            let s = *metre as f64;
            node.append_metre(
                GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: s,
                },
                &PowerVector::from_fn(N_CHANNELS, |ch| Some(rups_core::testfield::rssi(5, s, ch))),
            )
            .unwrap();
            *metre += 1;
        }
    }
    let mut metre = 0usize;
    append(&mut sender, &mut metre, 40);

    for seq in 0..n_beacons {
        append(&mut sender, &mut metre, 3);
        let now_s = metre as f64;
        let (snap, ctx) = sender.traced_snapshot(None, seq);
        let ctx = ctx.expect("sender has a vehicle id");
        {
            let mut g = sender_spans.span("v2v.beacon");
            g.set_args(ctx.args());
        }
        tx.broadcast_traced(now_s, encode_snapshot(&snap), ctx);
    }

    // Drain everything the channel delivered (reordering can push arrivals
    // past the last beacon's send time).
    let t_end = metre as f64 + FaultConfig::default().reorder_delay_s + 10.0;
    for (ep, (_, inbox)) in rx.iter().zip(inboxes.iter_mut()) {
        for delivery in ep.poll_until(t_end) {
            if let Ok(snap) = decode_snapshot(&delivery.payload) {
                let _ = inbox.accept(snap, delivery.arrival_s);
            }
        }
    }

    let mut nodes = vec![NodeTrace::new(SENDER, "vehicle-1", sender_spans.recent())];
    for (&id, (spans, _)) in RECEIVERS.iter().zip(inboxes.iter()) {
        nodes.push(NodeTrace::new(id, format!("vehicle-{id}"), spans.recent()));
    }
    merged_chrome_trace(&nodes)
}

/// The `trace` arg of a merged event, when present.
fn trace_of(event: &rups_obs::ChromeTraceEvent) -> Option<i64> {
    match &event.args {
        serde::value::Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == TRACE_ARG)
            .and_then(|(_, v)| v.as_i64()),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24),
    })]

    #[test]
    fn merged_trace_has_no_duplicate_or_orphan_spans(
        faults in fault_strategy(),
        seed in any::<u64>(),
        n_beacons in 2u32..7,
    ) {
        let merged = run_convoy(faults, seed, n_beacons);
        if !cfg!(feature = "obs") {
            // Without the obs feature span recording compiles to no-ops;
            // nothing to check.
            return Ok(());
        }

        let roots: std::collections::HashSet<i64> = merged
            .span_events()
            .filter(|e| e.name == "v2v.beacon")
            .filter_map(trace_of)
            .collect();
        prop_assert!(!roots.is_empty(), "sender must record beacon roots");

        let mut validated: std::collections::HashMap<(u64, i64), usize> =
            std::collections::HashMap::new();
        for event in merged.span_events() {
            let Some(trace) = trace_of(event) else { continue };
            // Orphan check: every tagged span's trace id was minted by the
            // sender, bit-flipped payloads notwithstanding.
            prop_assert!(
                roots.contains(&trace),
                "span {:?} on pid {} carries unminted trace {trace}",
                event.name,
                event.pid,
            );
            if event.name == "inbox.validate" {
                *validated.entry((event.pid, trace)).or_default() += 1;
            }
        }
        // Duplicate check: however often the link re-delivers a beacon,
        // each receiver validates its trace at most once.
        for ((pid, trace), count) in validated {
            prop_assert!(
                count <= 1,
                "receiver {pid} tagged trace {trace} {count} times",
            );
        }
    }
}

#[test]
fn tagged_validate_spans_appear_on_a_clean_link() {
    if !cfg!(feature = "obs") {
        return;
    }
    let merged = run_convoy(v2v_sim::fault::FaultConfig::ideal(), 7, 4);
    let tagged: Vec<_> = merged
        .span_events()
        .filter(|e| e.name == "inbox.validate")
        .filter_map(trace_of)
        .collect();
    // 2 receivers × 4 beacons, lossless: every intake is tagged exactly once.
    assert_eq!(tagged.len(), 8, "every beacon tags one intake per receiver");
    let beacons = merged
        .span_events()
        .filter(|e| e.name == "v2v.beacon")
        .count();
    assert_eq!(beacons, 4);
}
