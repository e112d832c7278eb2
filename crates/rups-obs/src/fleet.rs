//! Fleet aggregation: folding N per-node registries into one snapshot.
//!
//! Every `RupsNode` owns a private [`Registry`](crate::Registry); a fleet
//! run therefore produces N [`MetricsSnapshot`]s per window. The
//! [`FleetAggregator`] merges them into a single fleet-level snapshot —
//! counters sum, same-named log₂ histograms bucket-merge exactly (so
//! fleet quantiles are computed over the union distribution, not averaged
//! per node), gauges average weighted by each node's sample count — and
//! ranks the top-k *worst* nodes under declarative [`Criterion`]s, each
//! reading one [`Signal`] (p99 latency, error rates, gauges such as
//! per-node fix error).
//!
//! The merged snapshot is an ordinary [`MetricsSnapshot`]: per-window
//! fleet deltas come from [`MetricsSnapshot::delta`] and feed the same
//! [`TriggerRule`](crate::TriggerRule)s the per-node
//! [`FlightRecorder`](crate::FlightRecorder) evaluates — see
//! [`check_fleet_rules`](crate::check_fleet_rules).

use crate::hist::{HistogramSample, ShapeMismatch};
use crate::registry::{escape_label_value, CounterSample, GaugeSample, MetricsSnapshot};
use crate::signal::{Signal, FIX_ERROR_GAUGE};
use serde::{Deserialize, Serialize};

/// How to rank the fleet's worst nodes: by one signal, worst first in the
/// signal's own [`Direction`](crate::Direction) (highest latency first,
/// lowest availability first). A node without a reading does not rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Criterion {
    /// Label this ranking is published under.
    pub label: String,
    /// The signal each node is scored by.
    pub signal: Signal,
}

impl Criterion {
    /// A ranking of `signal` published as `label`.
    pub fn new(label: &str, signal: Signal) -> Self {
        Criterion {
            label: label.to_string(),
            signal,
        }
    }
}

/// One node's score under a criterion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeScore {
    /// Vehicle/node id.
    pub node_id: u64,
    /// The node's reading of the criterion's signal.
    pub value: f64,
}

/// The worst nodes under one criterion, worst first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstList {
    /// The criterion's label.
    pub criterion: String,
    /// The signal the nodes were scored by.
    pub signal: Signal,
    /// Top-k nodes, worst first.
    pub ranked: Vec<NodeScore>,
}

/// A fleet-level snapshot: the merged metrics plus worst-node rankings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Node ids that contributed, in input order.
    pub nodes: Vec<u64>,
    /// The merged metrics (counters summed, histograms bucket-merged,
    /// gauges sample-weighted averaged).
    pub merged: MetricsSnapshot,
    /// Top-k worst nodes per configured criterion.
    pub worst: Vec<WorstList>,
}

impl FleetSnapshot {
    /// The fleet-window delta against an earlier fleet snapshot (merged
    /// metrics only; rankings are point-in-time and do not subtract).
    pub fn delta(&self, earlier: &FleetSnapshot) -> MetricsSnapshot {
        self.merged.delta(&earlier.merged)
    }

    /// Prometheus exposition of the fleet: a `rups_fleet_nodes` gauge,
    /// one `rups_fleet_worst{criterion="…",node="…"}` sample per ranked
    /// node (label values escaped), then the merged metrics.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE rups_fleet_nodes gauge");
        let _ = writeln!(out, "rups_fleet_nodes {}", self.nodes.len());
        if self.worst.iter().any(|w| !w.ranked.is_empty()) {
            let _ = writeln!(out, "# TYPE rups_fleet_worst gauge");
        }
        for w in &self.worst {
            for s in &w.ranked {
                let _ = writeln!(
                    out,
                    "rups_fleet_worst{{criterion=\"{}\",node=\"{}\"}} {}",
                    escape_label_value(&w.criterion),
                    escape_label_value(&s.node_id.to_string()),
                    s.value
                );
            }
        }
        out.push_str(&self.merged.to_prometheus());
        out
    }
}

/// Merges per-node snapshots and ranks worst nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAggregator {
    /// How many nodes each worst-list retains.
    pub top_k: usize,
    /// The rankings to compute.
    pub criteria: Vec<Criterion>,
}

impl Default for FleetAggregator {
    /// Ranks by engine-query p99, fix-rejection rate and the per-node
    /// fix-error gauge (set by fleet harnesses), keeping the worst 3.
    fn default() -> Self {
        FleetAggregator {
            top_k: 3,
            criteria: vec![
                Criterion::new("rups_core_engine_query_ns", Signal::FixP99Latency),
                Criterion::new("fix_reject_rate", Signal::FixRejectionRate),
                Criterion::new(FIX_ERROR_GAUGE, Signal::FixError),
            ],
        }
    }
}

impl FleetAggregator {
    /// An aggregator with the default criteria.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregates `(node_id, snapshot)` pairs into a [`FleetSnapshot`].
    ///
    /// Counters sum over every node holding the name; histograms
    /// bucket-merge (a bucket-shape disagreement — e.g. a compacted
    /// snapshot slipped in among full ones — aborts with the typed
    /// [`ShapeMismatch`] rather than misattributing counts); gauges
    /// average over the nodes holding them, weighted by each node's
    /// sample count so a node that set its gauge once does not count as
    /// much as one that set it ten thousand times. When no contributing
    /// node carries a sample count (all weights zero — e.g. snapshots
    /// deserialised from a pre-weighting artefact), the merge degrades to
    /// the unweighted mean.
    pub fn aggregate(
        &self,
        parts: &[(u64, MetricsSnapshot)],
    ) -> Result<FleetSnapshot, ShapeMismatch> {
        struct GaugeAcc {
            name: String,
            weighted_sum: f64,
            weight: u64,
            plain_sum: f64,
            nodes: u32,
        }
        let mut counters: Vec<CounterSample> = Vec::new();
        let mut gauge_accs: Vec<GaugeAcc> = Vec::new();
        let mut histograms: Vec<HistogramSample> = Vec::new();
        for (_, snap) in parts {
            for c in &snap.counters {
                match counters.iter_mut().find(|x| x.name == c.name) {
                    Some(x) => x.value = x.value.saturating_add(c.value),
                    None => counters.push(c.clone()),
                }
            }
            for g in &snap.gauges {
                match gauge_accs.iter_mut().find(|a| a.name == g.name) {
                    Some(a) => {
                        a.weighted_sum += g.value * g.samples as f64;
                        a.weight += g.samples;
                        a.plain_sum += g.value;
                        a.nodes += 1;
                    }
                    None => gauge_accs.push(GaugeAcc {
                        name: g.name.clone(),
                        weighted_sum: g.value * g.samples as f64,
                        weight: g.samples,
                        plain_sum: g.value,
                        nodes: 1,
                    }),
                }
            }
            for h in &snap.histograms {
                match histograms.iter_mut().find(|x| x.name == h.name) {
                    Some(x) => *x = x.try_merge(h)?,
                    None => histograms.push(h.clone()),
                }
            }
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSample> = gauge_accs
            .into_iter()
            .map(|a| GaugeSample {
                value: if a.weight > 0 {
                    a.weighted_sum / a.weight as f64
                } else {
                    a.plain_sum / f64::from(a.nodes)
                },
                samples: a.weight,
                name: a.name,
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));

        let worst = self
            .criteria
            .iter()
            .map(|c| {
                let mut ranked: Vec<NodeScore> = parts
                    .iter()
                    .filter_map(|(id, snap)| {
                        c.signal.read(snap).map(|r| NodeScore {
                            node_id: *id,
                            value: r.value,
                        })
                    })
                    .collect();
                let dir = c.signal.direction();
                ranked.sort_by(|a, b| {
                    dir.badness(b.value)
                        .partial_cmp(&dir.badness(a.value))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                ranked.truncate(self.top_k);
                WorstList {
                    criterion: c.label.clone(),
                    signal: c.signal,
                    ranked,
                }
            })
            .collect();

        Ok(FleetSnapshot {
            nodes: parts.iter().map(|(id, _)| *id).collect(),
            merged: MetricsSnapshot {
                counters,
                gauges,
                histograms,
            },
            worst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{check_fleet_rules, TriggerRule};
    use crate::registry::Registry;

    fn node_snapshot(queries: u64, rejected: u64, latency_ns: &[u64]) -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("rups_core_engine_queries").add(queries);
        reg.counter("rups_core_quality_rejected").add(rejected);
        reg.counter("rups_core_quality_grade_high")
            .add(queries.saturating_sub(rejected));
        let h = reg.histogram("rups_core_engine_query_ns");
        for &v in latency_ns {
            h.record(v);
        }
        reg.gauge(FIX_ERROR_GAUGE).set(rejected as f64 * 0.5);
        reg.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_buckets_and_averages_gauges() {
        let parts = vec![
            (1u64, node_snapshot(10, 1, &[1_000, 1_000])),
            (2u64, node_snapshot(20, 2, &[1_000_000])),
            (3u64, node_snapshot(30, 9, &[8_000_000, 9_000_000])),
        ];
        let fleet = FleetAggregator::new().aggregate(&parts).unwrap();
        assert_eq!(fleet.nodes, vec![1, 2, 3]);
        assert_eq!(fleet.merged.counter("rups_core_engine_queries"), Some(60));
        let h = fleet.merged.histogram("rups_core_engine_query_ns").unwrap();
        assert_eq!(h.count, 5, "all nodes' samples in one distribution");
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
        // Fleet p99 reflects the slowest node's tail, not a per-node mean.
        assert!(h.p99 >= 8_000_000.0, "p99 {}", h.p99);
        // Each helper snapshot sets its gauge exactly once, so the
        // sample-weighted mean equals the plain mean: (0.5 + 1.0 + 4.5) / 3.
        let g = fleet.merged.gauge("rups_node_fix_error_m").unwrap();
        assert!((g - 2.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn gauge_merge_weights_by_sample_count() {
        let busy = Registry::new();
        let g = busy.gauge("rups_node_fix_error_m");
        for _ in 0..99 {
            g.set(1.0); // a node reporting continuously at 1 m
        }
        g.set(1.0);
        let quiet = Registry::new();
        quiet.gauge("rups_node_fix_error_m").set(101.0); // one wild reading
        let fleet = FleetAggregator::new()
            .aggregate(&[(1, busy.snapshot()), (2, quiet.snapshot())])
            .unwrap();
        let merged = fleet
            .merged
            .gauges
            .iter()
            .find(|g| g.name == "rups_node_fix_error_m")
            .unwrap();
        // Weighted: (100·1 + 1·101) / 101 ≈ 1.99 — not the unweighted 51.
        assert!(
            (merged.value - 201.0 / 101.0).abs() < 1e-9,
            "{}",
            merged.value
        );
        assert_eq!(merged.samples, 101, "merged weight sums node weights");
        // All-zero weights (never-set gauges) degrade to the plain mean.
        let a = Registry::new();
        a.gauge("idle");
        let b = Registry::new();
        b.gauge("idle");
        let fleet = FleetAggregator::new()
            .aggregate(&[(1, a.snapshot()), (2, b.snapshot())])
            .unwrap();
        let idle = fleet
            .merged
            .gauges
            .iter()
            .find(|g| g.name == "idle")
            .unwrap();
        assert_eq!((idle.value, idle.samples), (0.0, 0));
    }

    #[test]
    fn worst_lists_rank_descending_and_truncate() {
        let parts = vec![
            (1u64, node_snapshot(10, 1, &[1_000])),
            (2u64, node_snapshot(10, 5, &[1_000_000])),
            (3u64, node_snapshot(10, 9, &[8_000_000])),
            (4u64, node_snapshot(10, 2, &[2_000])),
        ];
        let agg = FleetAggregator {
            top_k: 2,
            ..FleetAggregator::new()
        };
        let fleet = agg.aggregate(&parts).unwrap();
        let by_label = |l: &str| fleet.worst.iter().find(|w| w.criterion == l).unwrap();
        let p99 = by_label("rups_core_engine_query_ns");
        assert_eq!(p99.ranked.len(), 2, "top-k truncates");
        assert_eq!(p99.ranked[0].node_id, 3, "slowest node first");
        assert_eq!(p99.ranked[1].node_id, 2);
        let rej = by_label("fix_reject_rate");
        assert_eq!(rej.ranked[0].node_id, 3);
        assert!(rej.ranked[0].value > rej.ranked[1].value);
        let err = by_label("rups_node_fix_error_m");
        assert_eq!(err.ranked[0].node_id, 3);
        assert_eq!(
            fleet.worst.iter().map(|w| w.signal).collect::<Vec<_>>(),
            [
                Signal::FixP99Latency,
                Signal::FixRejectionRate,
                Signal::FixError
            ]
        );
        // A signal that degrades downwards ranks its lowest readings first.
        let avail = FleetAggregator {
            top_k: 2,
            criteria: vec![Criterion::new("availability", Signal::FixAvailability)],
        }
        .aggregate(&parts)
        .unwrap();
        let ids: Vec<u64> = avail.worst[0].ranked.iter().map(|s| s.node_id).collect();
        assert_eq!(ids, [3, 2]);
    }

    #[test]
    fn shape_mismatch_aborts_with_the_offending_name() {
        let full = node_snapshot(10, 1, &[1_000]);
        let compacted = full.compact();
        let err = FleetAggregator::new()
            .aggregate(&[(1, full), (2, compacted)])
            .unwrap_err();
        assert_eq!(err.name, "rups_core_engine_query_ns");
    }

    #[test]
    fn empty_fleet_aggregates_to_an_empty_snapshot() {
        let fleet = FleetAggregator::new().aggregate(&[]).unwrap();
        assert!(fleet.nodes.is_empty());
        assert!(fleet.merged.counters.is_empty());
        assert!(fleet.worst.iter().all(|w| w.ranked.is_empty()));
    }

    #[test]
    fn fleet_delta_feeds_trigger_rules() {
        let agg = FleetAggregator::new();
        let before = agg
            .aggregate(&[(1, node_snapshot(10, 0, &[1_000]))])
            .unwrap();
        let after = agg
            .aggregate(&[(1, node_snapshot(30, 15, &[1_000]))])
            .unwrap();
        let delta = after.delta(&before);
        assert_eq!(delta.counter("rups_core_quality_rejected"), Some(15));
        let rules = vec![TriggerRule::new(
            "fleet_reject_spike",
            Signal::FixRejectionRate,
            0.5,
            1,
        )];
        let fired = check_fleet_rules(&rules, 42.0, &delta);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "fleet_reject_spike");
        assert_eq!(fired[0].signal, Signal::FixRejectionRate);
        assert_eq!(fired[0].value, 0.75, "15 rejected of 20 assessed");
        assert_eq!(fired[0].t_s, 42.0);
        // Below threshold → silent.
        assert!(check_fleet_rules(&rules, 43.0, &before.delta(&before)).is_empty());
    }

    #[test]
    fn fleet_prometheus_exposition_labels_are_escaped() {
        let agg = FleetAggregator {
            top_k: 1,
            criteria: vec![Criterion::new(
                "weird \"label\"\nwith\\stuff",
                Signal::FixRejectionRate,
            )],
        };
        let fleet = agg
            .aggregate(&[(7, node_snapshot(10, 5, &[1_000]))])
            .unwrap();
        let text = fleet.to_prometheus();
        assert!(text.contains("rups_fleet_nodes 1"));
        assert!(text.contains("node=\"7\""));
        assert!(
            text.contains(r#"criterion="weird \"label\"\nwith\\stuff""#),
            "{text}"
        );
        assert!(
            !text.lines().any(|l| l.contains("label\"\n")),
            "raw newline leaked into a label"
        );
        assert!(text.contains("rups_core_engine_queries 10"));
    }
}
