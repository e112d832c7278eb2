//! Automated diagnosis: from a fleet-level [`Alarm`] to the node and
//! pipeline stage that caused it.
//!
//! An alarm says *something* degraded *somewhere*; localisation is the
//! cross-node correlation step a human would otherwise do by hand. Given
//! the per-node window deltas of the firing window and of a healthy
//! baseline window, [`diagnose`] scores every `(node, stage)` pair of the
//! beacon → link → inbox → engine → fuse pipeline on how far that node's
//! stage moved from its own baseline, picks the worst pair, and pulls
//! exemplar traces (by [`TraceContext`](crate::TraceContext) id) from the
//! guilty node's span ring so the report carries evidence, not just a
//! verdict. The caller may attach the matching flight-recorder dump.
//!
//! Stage evidence is one [`Signal`] per stage ([`Stage::signal`]),
//! compared between the two windows and normalised into `[0, 1]`:
//!
//! | stage  | signal                                | evidence                     |
//! |--------|---------------------------------------|------------------------------|
//! | beacon | [`Signal::ClockOffset`]               | jump of the clock offset     |
//! | link   | [`Signal::InboxArrivals`]             | collapse of arrivals         |
//! | inbox  | [`Signal::ValidationRejectionRate`]   | rise of the rejection ratio  |
//! | engine | [`Signal::FixP99Latency`]             | inflation of the query p99   |
//! | fuse   | [`Signal::FuseRejectionsPerSolve`]    | rise of rejections per solve |

use crate::detect::Alarm;
use crate::flight::{FlightDump, SpanDump};
use crate::registry::MetricsSnapshot;
use crate::signal::Signal;
use crate::span::SpanRecord;
use serde::{Deserialize, Serialize};

/// Clock-offset jump (ns) scoring as full evidence: half a second.
const CLOCK_JUMP_FULL_NS: f64 = 5e8;
/// Engine p99 inflation factor scoring as full evidence (10×).
const ENGINE_SLOWDOWN_FULL: f64 = 9.0;
/// Fuse edge-rejections per solve scoring as full evidence.
const FUSE_REJECTS_FULL: f64 = 4.0;
/// Exemplar traces attached to a report.
const MAX_EXEMPLAR_TRACES: usize = 3;
/// Exemplar spans attached to a report.
const MAX_EXEMPLAR_SPANS: usize = 64;

/// The RUPS pipeline stages a fault can be localised to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Periodic broadcast of the node's own context (clock faults land
    /// here: the node stamps its beacons wrong).
    Beacon,
    /// The V2V channel into the node (loss, corruption, truncation).
    Link,
    /// Beacon validation and admission on the receiver.
    Inbox,
    /// The SYN-search fix engine.
    Engine,
    /// Cooperative fix-graph fusion.
    Fuse,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Beacon,
        Stage::Link,
        Stage::Inbox,
        Stage::Engine,
        Stage::Fuse,
    ];

    /// The signal this stage's evidence reads.
    pub fn signal(self) -> Signal {
        match self {
            Stage::Beacon => Signal::ClockOffset,
            Stage::Link => Signal::InboxArrivals,
            Stage::Inbox => Signal::ValidationRejectionRate,
            Stage::Engine => Signal::FixP99Latency,
            Stage::Fuse => Signal::FuseRejectionsPerSolve,
        }
    }
}

/// One node's per-window metric snapshots, as [`diagnose`] consumes them.
#[derive(Debug, Clone)]
pub struct NodeWindow {
    /// Vehicle/node id.
    pub node_id: u64,
    /// The node's window delta from a healthy reference window.
    pub baseline: MetricsSnapshot,
    /// The node's window delta from the window the alarm fired on.
    pub firing: MetricsSnapshot,
}

/// Evidence strength for one `(node, stage)` pair, in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageScore {
    /// Vehicle/node id.
    pub node_id: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Normalised deviation from the node's own baseline.
    pub score: f64,
}

/// One exemplar span pulled from a node's ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExemplarSpan {
    /// Node whose ring held the span.
    pub node_id: u64,
    /// The span, in flight-dump form (owned strings, JSON args).
    pub span: SpanDump,
}

/// The structured output of [`diagnose`]: a localised, evidence-carrying
/// account of one alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisReport {
    /// The alarm being explained.
    pub alarm: Alarm,
    /// The localisation verdict: the node whose stage moved furthest.
    pub worst_node: u64,
    /// The pipeline stage the fault is localised to.
    pub worst_stage: Stage,
    /// The winning score (0 when no evidence scored at all).
    pub worst_score: f64,
    /// Every scored `(node, stage)` pair, strongest first.
    pub scores: Vec<StageScore>,
    /// Trace ids implicating the worst node, longest spans first.
    pub exemplar_traces: Vec<u64>,
    /// Spans of those traces across *all* nodes (the cross-node view of
    /// the exemplar traces), chronological per node.
    pub exemplar_spans: Vec<ExemplarSpan>,
    /// The worst node's flight-recorder dump, when the caller attached
    /// one via [`DiagnosisReport::with_flight`].
    pub flight: Option<FlightDump>,
}

impl DiagnosisReport {
    /// Attaches the worst node's flight-recorder dump.
    pub fn with_flight(mut self, dump: FlightDump) -> Self {
        self.flight = Some(dump);
        self
    }
}

/// Scores one `(node, stage)` pair; `None` when the stage's signal has no
/// reading in one of the node's two windows (it then simply does not
/// rank).
fn stage_score(stage: Stage, w: &NodeWindow) -> Option<f64> {
    let before = stage.signal().read(&w.baseline)?.value;
    let after = stage.signal().read(&w.firing)?.value;
    let score = match stage {
        Stage::Beacon => (after - before).abs() / CLOCK_JUMP_FULL_NS,
        Stage::Link if before == 0.0 => return None,
        Stage::Link => 1.0 - after / before,
        Stage::Inbox => after - before,
        Stage::Engine if before <= 0.0 => return None,
        Stage::Engine => (after / before - 1.0) / ENGINE_SLOWDOWN_FULL,
        Stage::Fuse => (after - before) / FUSE_REJECTS_FULL,
    };
    Some(score.clamp(0.0, 1.0))
}

/// Localises `alarm` to the worst `(node, stage)` pair and assembles a
/// [`DiagnosisReport`]. `nodes` carries each node's baseline and firing
/// window deltas; `spans` carries `(node_id, ring contents)` pairs used to
/// pull exemplar traces for the guilty node. Returns `None` only when
/// `nodes` is empty.
pub fn diagnose(
    alarm: &Alarm,
    nodes: &[NodeWindow],
    spans: &[(u64, Vec<SpanRecord>)],
) -> Option<DiagnosisReport> {
    if nodes.is_empty() {
        return None;
    }
    let mut scores: Vec<StageScore> = Vec::new();
    for w in nodes {
        for stage in Stage::ALL {
            if let Some(score) = stage_score(stage, w) {
                scores.push(StageScore {
                    node_id: w.node_id,
                    stage,
                    score,
                });
            }
        }
    }
    scores.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (worst_node, worst_stage, worst_score) = scores
        .first()
        .map(|s| (s.node_id, s.stage, s.score))
        .unwrap_or((nodes[0].node_id, Stage::Link, 0.0));

    // Exemplar traces: the worst node's longest traced spans.
    let mut traced: Vec<(u64, u64)> = spans
        .iter()
        .filter(|(id, _)| *id == worst_node)
        .flat_map(|(_, recs)| recs.iter())
        .filter_map(|r| {
            r.args
                .get(crate::context::TRACE_ARG)
                .map(|t| (t as u64, r.dur_ns))
        })
        .collect();
    traced.sort_by_key(|&(_, dur)| std::cmp::Reverse(dur));
    let mut exemplar_traces: Vec<u64> = Vec::new();
    for (t, _) in traced {
        if !exemplar_traces.contains(&t) {
            exemplar_traces.push(t);
            if exemplar_traces.len() >= MAX_EXEMPLAR_TRACES {
                break;
            }
        }
    }
    let mut exemplar_spans: Vec<ExemplarSpan> = Vec::new();
    'outer: for (node_id, recs) in spans {
        for r in recs {
            let Some(t) = r.args.get(crate::context::TRACE_ARG) else {
                continue;
            };
            if exemplar_traces.contains(&(t as u64)) {
                exemplar_spans.push(ExemplarSpan {
                    node_id: *node_id,
                    span: r.into(),
                });
                if exemplar_spans.len() >= MAX_EXEMPLAR_SPANS {
                    break 'outer;
                }
            }
        }
    }

    Some(DiagnosisReport {
        alarm: alarm.clone(),
        worst_node,
        worst_stage,
        worst_score,
        scores,
        exemplar_traces,
        exemplar_spans,
        flight: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::DetectorKind;
    use crate::registry::Registry;
    use crate::signal::{CLOCK_OFFSET_GAUGE, INBOX_REJECTED};
    use crate::span::SpanArgs;

    fn alarm() -> Alarm {
        Alarm {
            detector: "fix_availability".into(),
            signal: Signal::FixAvailability,
            kind: DetectorKind::EwmaZScore,
            t_s: 100.0,
            window_index: 5,
            value: 0.2,
            baseline: 0.9,
            score: 9.0,
            threshold: 6.0,
        }
    }

    /// A healthy node window: steady arrivals, low rejections, ~1 ms p99.
    fn healthy(node_id: u64) -> NodeWindow {
        let mk = || {
            let reg = Registry::new();
            reg.counter("rups_core_inbox_accepted").add(95);
            reg.counter(INBOX_REJECTED[3]).add(5);
            let h = reg.histogram("rups_core_engine_query_ns");
            for _ in 0..16 {
                h.record(1_000_000);
            }
            reg.counter("rups_fuse_solves").add(10);
            reg.counter("rups_fuse_edges_rejected").add(1);
            reg.gauge(CLOCK_OFFSET_GAUGE).set(1_000.0);
            reg.snapshot()
        };
        NodeWindow {
            node_id,
            baseline: mk(),
            firing: mk(),
        }
    }

    #[test]
    fn arrival_collapse_localises_to_the_link_stage() {
        let mut nodes = vec![healthy(1), healthy(2), healthy(3)];
        // Node 2's arrivals collapse in the firing window.
        let reg = Registry::new();
        reg.counter("rups_core_inbox_accepted").add(4);
        reg.counter(INBOX_REJECTED[3]).add(1);
        let h = reg.histogram("rups_core_engine_query_ns");
        for _ in 0..16 {
            h.record(1_000_000);
        }
        reg.gauge(CLOCK_OFFSET_GAUGE).set(1_000.0);
        nodes[1].firing = reg.snapshot();
        let report = diagnose(&alarm(), &nodes, &[]).unwrap();
        assert_eq!(report.worst_node, 2);
        assert_eq!(report.worst_stage, Stage::Link);
        assert!(report.worst_score > 0.9, "{}", report.worst_score);
        assert!(report.scores.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn a_window_without_arrivals_is_full_link_evidence() {
        // A blacked-out receiver records no inbox counters at all; its
        // compacted delta must still score the Link stage, at 1.0.
        let mut nodes = vec![healthy(1)];
        let reg = Registry::new();
        reg.histogram("rups_core_engine_query_ns").record(1_000_000);
        nodes[0].firing = reg.snapshot().compact();
        let report = diagnose(&alarm(), &nodes, &[]).unwrap();
        assert_eq!((report.worst_stage, report.worst_score), (Stage::Link, 1.0));
    }

    #[test]
    fn clock_jump_localises_to_the_beacon_stage() {
        let mut nodes = vec![healthy(1), healthy(2)];
        let reg = Registry::new();
        reg.counter("rups_core_inbox_accepted").add(95);
        reg.counter(INBOX_REJECTED[3]).add(5);
        let h = reg.histogram("rups_core_engine_query_ns");
        for _ in 0..16 {
            h.record(1_000_000);
        }
        reg.gauge(CLOCK_OFFSET_GAUGE).set(6e8); // ~0.6 s jump
        nodes[0].firing = reg.snapshot();
        let report = diagnose(&alarm(), &nodes, &[]).unwrap();
        assert_eq!(report.worst_node, 1);
        assert_eq!(report.worst_stage, Stage::Beacon);
        assert_eq!(report.worst_score, 1.0, "jump past full evidence clamps");
    }

    #[test]
    fn engine_slowdown_localises_with_exemplar_traces() {
        let mut nodes = vec![healthy(1), healthy(2)];
        let reg = Registry::new();
        reg.counter("rups_core_inbox_accepted").add(95);
        reg.counter(INBOX_REJECTED[3]).add(5);
        let h = reg.histogram("rups_core_engine_query_ns");
        for _ in 0..16 {
            h.record(50_000_000); // 50× the healthy 1 ms
        }
        reg.gauge(CLOCK_OFFSET_GAUGE).set(1_000.0);
        nodes[1].firing = reg.snapshot();

        let slow = SpanRecord {
            name: "engine.query",
            start_ns: 10,
            dur_ns: 50_000_000,
            args: SpanArgs::new().with(crate::context::TRACE_ARG, 77),
        };
        let remote = SpanRecord {
            name: "v2v.beacon",
            start_ns: 5,
            dur_ns: 1_000,
            args: SpanArgs::new().with(crate::context::TRACE_ARG, 77),
        };
        let unrelated = SpanRecord {
            name: "engine.query",
            start_ns: 20,
            dur_ns: 500,
            args: SpanArgs::new(),
        };
        let report = diagnose(
            &alarm(),
            &nodes,
            &[(1, vec![remote]), (2, vec![slow, unrelated])],
        )
        .unwrap();
        assert_eq!(report.worst_node, 2);
        assert_eq!(report.worst_stage, Stage::Engine);
        assert_eq!(report.exemplar_traces, vec![77]);
        // The cross-node view pulls trace 77's spans from both rings.
        let nodes_seen: Vec<u64> = report.exemplar_spans.iter().map(|e| e.node_id).collect();
        assert!(nodes_seen.contains(&1) && nodes_seen.contains(&2));
        assert!(report
            .exemplar_spans
            .iter()
            .all(|e| e.span.name != "engine.query" || e.span.dur_ns == 50_000_000));
    }

    #[test]
    fn healthy_fleet_scores_near_zero_and_empty_fleet_declines() {
        let nodes = vec![healthy(1), healthy(2)];
        let report = diagnose(&alarm(), &nodes, &[]).unwrap();
        assert!(
            report.worst_score < 0.05,
            "healthy fleet scored {}",
            report.worst_score
        );
        assert!(diagnose(&alarm(), &[], &[]).is_none());
    }

    #[test]
    fn report_round_trips_through_json() {
        let nodes = vec![healthy(1)];
        let report = diagnose(&alarm(), &nodes, &[]).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: DiagnosisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
