//! Extension experiment: fleet-wide distributed tracing and metrics
//! aggregation over a 6-vehicle convoy at the fault acceptance cell.
//!
//! Extends [`ext_observability`] (one shared registry, one vehicle pair)
//! to the production-shaped layout: every vehicle of the [`ConvoyRig`]
//! owns a *private* registry and span ring, beacons a **traced**
//! snapshot ([`RupsNode::traced_snapshot`]) through the rig's faulted
//! link, and runs the hardened receive path plus per-epoch fusion
//! on the anchor vehicle. The harness then does what a fleet backend
//! would do:
//!
//! * **Merged tracing** — per-node span rings are aligned onto one
//!   timebase through [`ClockModel`]s recovered by a [`SkewEstimator`]
//!   (one `clock.sync` fencepost per fuse epoch, paired against the
//!   anchor ring) and exported as one multi-process Chrome trace
//!   (`pid` = vehicle id, `pid` 0 = the wire). Because beacons carry a
//!   [`TraceContext`], one causal trace crosses
//!   the sender's `v2v.beacon` span, the wire's `link.*` fault events,
//!   and every receiver's `inbox.validate` / `engine.query` spans down
//!   to the anchor's `fuse.solve`.
//! * **Fleet aggregation** — per-window [`FleetAggregator`] merges the N
//!   registries (counters sum, histograms bucket-merge, gauges average),
//!   ranks worst nodes (p99, rejection rate, per-node fix-error gauge),
//!   feeds the window deltas to the PR 4 trigger rules via
//!   [`check_fleet_rules`], and renders a Prometheus exposition.
//! * **SLOs** — the declarative [`default_slos`] set is evaluated from
//!   the fleet timeline alone ([`evaluate_slos`]); the verdict ships in
//!   the artefact.
//!
//! Two artefacts ride along with the figure, written by `evaluate --json`:
//! `ext-fleet-observability-trace.json` (the merged Chrome trace,
//! loadable in Perfetto) and `ext-fleet-observability-fleet.json`
//! (windows, worst-node rankings, clock models, SLO verdict,
//! trace-crossing summary).
//!
//! [`ext_observability`]: crate::figures::ext_observability
//! [`ConvoyRig`]: crate::rig::ConvoyRig
//! [`RupsNode::traced_snapshot`]: rups_core::pipeline::RupsNode::traced_snapshot
//! [`ClockModel`]: rups_obs::ClockModel
//! [`SkewEstimator`]: rups_obs::SkewEstimator
//! [`FleetAggregator`]: rups_obs::FleetAggregator
//! [`check_fleet_rules`]: rups_obs::check_fleet_rules
//! [`default_slos`]: rups_obs::default_slos
//! [`evaluate_slos`]: rups_obs::evaluate_slos

use crate::figures::{Artefact, EvalScale, CONVOY_CONTEXT_M, CONVOY_HORIZON_S, CONVOY_WARMUP_M};
use crate::rig::{acceptance_faults, tag_beacon, ConvoyRig, ConvoySpec};
use crate::series::{Figure, Series};
use rups_core::report::default_flight_config;
use rups_fuse::{FuseConfig, Fuser};
use rups_obs::{
    check_fleet_rules, default_slos, evaluate_slos, merged_chrome_trace, ChromeTrace, ClockModel,
    FleetSnapshot, MetricsSnapshot, NodeTrace, Signal, SkewEstimator, SloSpec, SloVerdict,
    SpanRecorder, TraceContext, TriggerEvent, FIX_ERROR_GAUGE, TRACE_ARG,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use v2v_sim::fault::FaultConfig;

/// Convoy size (ids `1..=n`, id 1 is the fusion anchor).
const N_VEHICLES: usize = 6;
/// True gap between adjacent vehicles, metres (held exactly).
const GAP_M: f64 = 40.0;
/// Seconds between fix/fuse epochs (beaconing stays at 1 Hz).
const FUSE_STRIDE_S: usize = 10;
/// Capacity of each vehicle's span ring.
const SPAN_CAPACITY: usize = 8192;
/// p99 ceiling of the `fix_p99_latency` SLO, nanoseconds (generous so
/// debug smoke runs judge health, not build optimisation).
const SLO_P99_MAX_NS: f64 = 500e6;

/// Parameters of the fleet-observability run. The channel is the
/// acceptance cell ([`acceptance_faults`]: ~30 % expected burst loss plus
/// duplication, reordering and 1 % corruption).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (duration, band width, master seed).
    pub scale: EvalScale,
    /// Seconds per fleet-aggregation window.
    pub window_stride_s: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            window_stride_s: 60,
        }
    }
}

/// Smaller run for tests and `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        window_stride_s: 30,
    }
}

/// One fleet-aggregation window of the artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetWindow {
    /// Simulated time at the end of this window, seconds.
    pub t_s: f64,
    /// Fleet-merged metrics recorded during this window only, slimmed via
    /// [`MetricsSnapshot::compact`].
    pub delta: MetricsSnapshot,
    /// PR 4 trigger rules that fired on this window's fleet delta.
    pub triggers: Vec<TriggerEvent>,
}

/// One vehicle's recovered clock, relative to the anchor's timebase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeClock {
    /// Vehicle id (0 = the wire's span ring).
    pub node: u64,
    /// Recovered phase error, nanoseconds.
    pub offset_ns: f64,
    /// Recovered rate error, parts per million.
    pub drift_ppm: f64,
    /// `clock.sync` fenceposts the estimate rests on.
    pub sync_points: usize,
}

/// How far the best causal trace travelled through the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Distinct trace ids tagged anywhere in the merged trace.
    pub traces_tagged: usize,
    /// The trace id crossing the most vehicles among those that reached
    /// fusion (0 when none did).
    pub best_trace_id: i64,
    /// Distinct vehicle pids (wire excluded) the best trace appears on.
    pub vehicles_crossed: usize,
    /// Span/event names the best trace appears under, sorted.
    pub stages: Vec<String>,
    /// Whether the best trace was also stamped on a `link.*` fault event.
    pub crossed_the_wire: bool,
}

/// The machine-readable fleet artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetArtifact {
    /// Always `"ext-fleet-observability"`.
    pub figure_id: String,
    /// Convoy size.
    pub n_vehicles: usize,
    /// The channel impairments the run was recorded under.
    pub faults: FaultConfig,
    /// Seconds per aggregation window.
    pub window_stride_s: usize,
    /// Per-window fleet deltas plus fired trigger rules, oldest first.
    pub windows: Vec<FleetWindow>,
    /// The end-of-run fleet snapshot: merged metrics plus worst-node
    /// rankings.
    pub fleet: FleetSnapshot,
    /// Prometheus exposition of the final fleet snapshot.
    pub prometheus: String,
    /// Recovered per-node clock models (node 0 = the wire ring).
    pub clocks: Vec<NodeClock>,
    /// The SLO spec set the run was judged against.
    pub slo_specs: Vec<SloSpec>,
    /// The verdict, from telemetry alone.
    pub slo: SloVerdict,
    /// The causal-trace crossing summary of the merged Chrome trace.
    pub trace_summary: TraceSummary,
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

/// Summarises how far each causal trace travelled and picks the best:
/// among traces that reached `fuse.solve` with the full beacon →
/// validate → query chain, the one crossing the most vehicles (wire
/// crossings break ties).
fn summarise_traces(merged: &ChromeTrace) -> TraceSummary {
    struct Info {
        pids: BTreeSet<u64>,
        names: BTreeSet<String>,
    }
    let mut traces: BTreeMap<i64, Info> = BTreeMap::new();
    for event in merged.span_events() {
        let Some(trace) = trace_of(event) else {
            continue;
        };
        let info = traces.entry(trace).or_insert_with(|| Info {
            pids: BTreeSet::new(),
            names: BTreeSet::new(),
        });
        info.pids.insert(event.pid);
        info.names.insert(event.name.clone());
    }
    let vehicles = |info: &Info| info.pids.iter().filter(|&&p| p != 0).count();
    let best = traces
        .iter()
        .filter(|(_, info)| {
            ["fuse.solve", "v2v.beacon", "inbox.validate", "engine.query"]
                .iter()
                .all(|n| info.names.contains(*n))
        })
        .max_by_key(|(_, info)| {
            let wire = info.names.iter().any(|n| n.starts_with("link."));
            (vehicles(info), wire)
        });
    match best {
        Some((&id, info)) => TraceSummary {
            traces_tagged: traces.len(),
            best_trace_id: id,
            vehicles_crossed: vehicles(info),
            stages: info.names.iter().cloned().collect(),
            crossed_the_wire: info.names.iter().any(|n| n.starts_with("link.")),
        },
        None => TraceSummary {
            traces_tagged: traces.len(),
            best_trace_id: 0,
            vehicles_crossed: 0,
            stages: Vec::new(),
            crossed_the_wire: false,
        },
    }
}

/// Recovers each ring's clock against the anchor ring by pairing the
/// newest common `clock.sync` fenceposts.
fn estimate_clock(node_syncs: &[u64], anchor_syncs: &[u64]) -> (ClockModel, usize) {
    let k = node_syncs.len().min(anchor_syncs.len());
    let mut est = SkewEstimator::new();
    for i in 0..k {
        let local = node_syncs[node_syncs.len() - k + i] as f64;
        let fleet = anchor_syncs[anchor_syncs.len() - k + i] as f64;
        est.observe(local, fleet);
    }
    (est.estimate(), k)
}

/// Runs the experiment; returns the figure plus its merged Chrome trace
/// and fleet record.
pub fn run(p: &Params) -> (Figure, Vec<Artefact>) {
    let s = &p.scale;
    let faults = acceptance_faults();
    let n = N_VEHICLES;
    // Every vehicle owns a registry and span ring; the wire's fault events
    // become pid 0 of the merged trace, tagged with the trace of the beacon
    // they damaged, and its counters land in the anchor's registry (the
    // sim's one wire has no node of its own to meter it).
    let mut rig = ConvoyRig::new(ConvoySpec {
        cfg: s.convoy_config(),
        n_vehicles: n,
        gap_m: GAP_M,
        field_seed: s.seed ^ 0xF1EE7,
        context_m: CONVOY_CONTEXT_M,
        horizon_s: CONVOY_HORIZON_S,
        faults,
        link_seed: s.seed ^ 0xF1EE7,
        span_capacity: SPAN_CAPACITY,
    });
    // The anchor vehicle runs the fuser; its solves land in its own
    // registry and span ring.
    let anchor = rig.vehicle(1);
    let fuser = Fuser::new(FuseConfig {
        anchor: Some(1),
        ..FuseConfig::default()
    })
    .with_observability(Arc::clone(&anchor.registry))
    .with_spans(Arc::clone(&anchor.spans));

    let truth = |a: u64, b: u64| (b as f64 - a as f64) * GAP_M;
    let fleet_rules = default_flight_config().rules;
    let close_window = |t_s: f64, delta: MetricsSnapshot| FleetWindow {
        t_s,
        triggers: check_fleet_rules(&fleet_rules, t_s, &delta),
        delta: delta.compact(),
    };
    let mut windows: Vec<FleetWindow> = Vec::new();
    let mut last_anchor_ctx: Option<TraceContext> = None;
    // Per-vehicle running |fix error| stats feeding the worst-node gauge.
    let mut err_sum = vec![0.0f64; n];
    let mut err_n = vec![0u64; n];

    let total_m = CONVOY_WARMUP_M + s.duration_s as usize;
    for metre in 0..total_m {
        let t = metre as f64;
        rig.drive(t);
        if metre < CONVOY_WARMUP_M {
            continue;
        }

        // Everyone beacons a traced snapshot (1 Hz), tagging its own
        // `v2v.beacon` span, and drains its inbox.
        for id in rig.ids() {
            let ring = &rig.vehicle(id).spans;
            rig.beacon_traced(id, t, |snap| tag_beacon(ring, snap));
        }
        for a in rig.deliver(t) {
            // The anchor tags its next solve with the freshest beacon it
            // accepted, closing the causal chain.
            if a.receiver == 1 && a.accepted == Ok(true) && a.trace.is_some() {
                last_anchor_ctx = a.trace;
            }
        }

        let epoch_m = metre - CONVOY_WARMUP_M;
        if epoch_m.is_multiple_of(FUSE_STRIDE_S) {
            // One `clock.sync` fencepost per ring per epoch: the pairs
            // against the anchor ring recover each clock's offset/drift.
            for id in rig.ids() {
                rig.vehicle(id).spans.event("clock.sync");
            }
            rig.wire().event("clock.sync");

            let fixes = rig.grade_all(t);
            for f in &fixes {
                let k = f.observer as usize - 1;
                err_sum[k] += (f.graded.fix.distance_m - truth(f.observer, f.neighbour)).abs();
                err_n[k] += 1;
            }
            for id in rig.ids() {
                let k = id as usize - 1;
                if err_n[k] > 0 {
                    let mean = err_sum[k] / err_n[k] as f64;
                    rig.vehicle(id).registry.gauge(FIX_ERROR_GAUGE).set(mean);
                }
            }
            let _ = fuser.solve_traced(&rig.fix_graph(&fixes), last_anchor_ctx);
        }

        if epoch_m > 0 && epoch_m.is_multiple_of(p.window_stride_s) {
            windows.push(close_window(t, rig.fleet_window().1));
        }
    }

    // Final fleet snapshot, trailing window, SLO verdict.
    let (fleet, tail_delta) = rig.fleet_window();
    if tail_delta.counters.iter().any(|c| c.value > 0) {
        windows.push(close_window((total_m - 1) as f64, tail_delta));
    }
    let slo_specs = default_slos(SLO_P99_MAX_NS);
    let window_deltas: Vec<MetricsSnapshot> = windows.iter().map(|w| w.delta.clone()).collect();
    let slo = evaluate_slos(&slo_specs, &fleet.merged, &window_deltas);

    // Align every ring onto the anchor's timebase and merge.
    let sync_ts = |ring: &SpanRecorder| -> Vec<u64> {
        ring.recent()
            .iter()
            .filter(|r| r.name == "clock.sync")
            .map(|r| r.start_ns)
            .collect()
    };
    let anchor_syncs = sync_ts(&rig.vehicle(1).spans);
    let mut clocks = Vec::new();
    let mut node_traces = Vec::new();
    for id in rig.ids() {
        let ring = &rig.vehicle(id).spans;
        let (model, sync_points) = if id == 1 {
            (ClockModel::IDENTITY, anchor_syncs.len())
        } else {
            estimate_clock(&sync_ts(ring), &anchor_syncs)
        };
        clocks.push(NodeClock {
            node: id,
            offset_ns: model.offset_ns,
            drift_ppm: model.drift_ppm,
            sync_points,
        });
        node_traces
            .push(NodeTrace::new(id, format!("vehicle-{id}"), ring.recent()).with_clock(model));
    }
    let (wire_model, wire_points) = estimate_clock(&sync_ts(rig.wire()), &anchor_syncs);
    clocks.push(NodeClock {
        node: 0,
        offset_ns: wire_model.offset_ns,
        drift_ppm: wire_model.drift_ppm,
        sync_points: wire_points,
    });
    node_traces.push(NodeTrace::new(0, "wire", rig.wire().recent()).with_clock(wire_model));
    let merged = merged_chrome_trace(&node_traces);
    let trace_summary = summarise_traces(&merged);

    let artifact = FleetArtifact {
        figure_id: "ext-fleet-observability".into(),
        n_vehicles: n,
        faults,
        window_stride_s: p.window_stride_s,
        windows,
        prometheus: fleet.to_prometheus(),
        fleet,
        clocks,
        slo_specs,
        slo,
        trace_summary,
    };

    let mut notes = vec![format!(
        "merged chrome trace of {} events over {} processes",
        merged.traceEvents.len(),
        n + 1
    )];

    let ts = &artifact.trace_summary;
    notes.push(format!(
        "best causal trace {:#x} crossed {} of {} vehicles ({}the wire): {}",
        ts.best_trace_id,
        ts.vehicles_crossed,
        n,
        if ts.crossed_the_wire { "and " } else { "not " },
        ts.stages.join(" → "),
    ));
    let max_abs_offset = artifact
        .clocks
        .iter()
        .map(|c| c.offset_ns.abs())
        .fold(0.0f64, f64::max);
    notes.push(format!(
        "{} traces tagged; clocks recovered from {} sync points/ring, worst |offset| {:.1} µs",
        ts.traces_tagged,
        artifact.clocks[0].sync_points,
        max_abs_offset / 1_000.0,
    ));
    for w in &artifact.fleet.worst {
        if let Some(worst) = w.ranked.first() {
            notes.push(format!(
                "worst node by {}: vehicle {} at {:.3}",
                w.criterion, worst.node_id, worst.value
            ));
        }
    }
    let fired: usize = artifact.windows.iter().map(|w| w.triggers.len()).sum();
    notes.push(format!(
        "{} fleet windows, {} trigger firings",
        artifact.windows.len(),
        fired
    ));
    for r in &artifact.slo.reports {
        notes.push(format!(
            "slo {}: {} (observed {:.4} vs {:.4}, {} events{})",
            r.name,
            if r.pass { "pass" } else { "FAIL" },
            r.observed,
            r.threshold,
            r.events,
            if r.armed { "" } else { "; never armed" },
        ));
    }

    // Figure view: fleet health per aggregation window.
    let x: Vec<f64> = artifact.windows.iter().map(|w| w.t_s).collect();
    let series_of = |label: &str, f: &dyn Fn(&MetricsSnapshot) -> f64| {
        Series::new(
            label,
            x.clone(),
            artifact.windows.iter().map(|w| f(&w.delta)).collect(),
        )
    };
    let series = vec![
        series_of("fleet link delivery rate per window", &|d| {
            Signal::LinkDeliveryRate.read(d).map_or(0.0, |r| r.value)
        }),
        series_of("fleet snapshots accepted per window", &|d| {
            d.counter("rups_core_inbox_accepted").unwrap_or(0) as f64
        }),
        series_of("fleet engine query p99 per window (µs)", &|d| {
            Signal::FixP99Latency
                .read(d)
                .map_or(0.0, |r| r.value / 1_000.0)
        }),
        series_of("fleet fix availability per window", &|d| {
            Signal::FixAvailability.read(d).map_or(0.0, |r| r.value)
        }),
    ];

    let figure = Figure {
        id: "ext-fleet-observability".into(),
        title: "Fleet-wide tracing, aggregation and SLOs over a faulted convoy".into(),
        notes,
        series,
    };
    let artefacts = vec![
        Artefact::compact("ext-fleet-observability-trace.json", &merged),
        Artefact::pretty("ext-fleet-observability-fleet.json", &artifact),
    ];
    (figure, artefacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_causal_trace_crosses_the_convoy_and_slos_hold() {
        let (fig, artefacts) = run(&quick_params());

        // Both artefacts parse back into their typed forms.
        let [trace, fleet] = &artefacts[..] else {
            panic!("expected the trace and the fleet record")
        };
        assert_eq!(trace.file, "ext-fleet-observability-trace.json");
        assert_eq!(fleet.file, "ext-fleet-observability-fleet.json");
        let merged: ChromeTrace = serde_json::from_str(&trace.json).expect("trace parses");
        let art: FleetArtifact = serde_json::from_str(&fleet.json).expect("fleet artefact parses");
        assert_eq!(art.figure_id, "ext-fleet-observability");

        // The merged trace is multi-process: all vehicles plus the wire
        // named, spans present.
        let process_names: std::collections::BTreeSet<u64> = merged
            .traceEvents
            .iter()
            .filter(|e| e.ph == "M" && e.name == "process_name")
            .map(|e| e.pid)
            .collect();
        assert_eq!(process_names.len(), N_VEHICLES + 1);
        assert!(merged.traceEvents.iter().any(|e| e.ph == "X"));

        // The acceptance claim: one causal trace crosses ≥3 vehicles and
        // every pipeline stage, beacon → wire → validation → query →
        // fusion.
        let ts = &art.trace_summary;
        assert!(
            ts.vehicles_crossed >= 3,
            "best trace crossed only {} vehicles",
            ts.vehicles_crossed
        );
        for stage in ["v2v.beacon", "inbox.validate", "engine.query", "fuse.solve"] {
            assert!(ts.stages.iter().any(|s| s == stage), "missing {stage}");
        }
        assert!(ts.crossed_the_wire, "no link.* event tagged on {ts:?}");
        assert!(ts.traces_tagged > 10);

        // Recomputing the summary from the committed trace agrees with
        // the artefact (CI asserts from the files alone).
        assert_eq!(&summarise_traces(&merged), ts);

        // Fleet aggregation is live: counters from all six vehicles,
        // worst-node rankings populated, prometheus exposition rendered.
        assert_eq!(art.fleet.nodes.len(), N_VEHICLES);
        assert!(
            art.fleet
                .merged
                .counter("rups_core_inbox_accepted")
                .unwrap()
                > 0
        );
        assert!(art.fleet.merged.counter("rups_v2v_link_dropped").unwrap() > 0);
        assert!(art
            .fleet
            .worst
            .iter()
            .any(|w| w.criterion == FIX_ERROR_GAUGE && !w.ranked.is_empty()));
        assert!(art
            .prometheus
            .contains(&format!("rups_fleet_nodes {}", N_VEHICLES)));
        assert!(!art.windows.is_empty());

        // Clocks were recovered for every ring from the sync fenceposts.
        assert_eq!(art.clocks.len(), N_VEHICLES + 1);
        assert!(art.clocks.iter().all(|c| c.sync_points >= 2));

        // The SLO verdict holds at the acceptance fault cell, judged from
        // telemetry alone.
        assert_eq!(art.slo.reports.len(), art.slo_specs.len());
        assert!(art.slo.pass, "SLO breach: {:?}", art.slo.reports);
        assert!(art.slo.reports.iter().any(|r| r.armed));

        // The figure view mirrors the windows.
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].x.len(), art.windows.len());
    }
}
