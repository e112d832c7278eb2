//! Extension experiment: the unified telemetry layer under fault injection.
//!
//! Re-runs the two-vehicle faulted exchange of [`ext_faults`] with every
//! stage metered by **one registry**, the rear vehicle's in the
//! [`ConvoyRig`]: its node's SYN engine and quality grading, its codec
//! validator and inbox, and the link's fault model. The rear's span ring
//! records the hot-path trace events; the link's fault events land in
//! the rig's wire ring. While the scenario replays, the
//! harness samples the registry every `epoch_stride` query epochs and
//! emits the per-window [`MetricsSnapshot::delta`]s as a machine-readable
//! timeline (`ext-observability-metrics.json`).
//!
//! The timeline is the observability acceptance artefact: it carries the
//! engine context/window cache hit and miss counters, the SYN-stage
//! latency histograms (p50/p95/p99 of `rups_core_engine_query_ns` and
//! friends), the link fault counters (`rups_v2v_link_dropped`, …) and the
//! per-grade fix-quality counters, per window and cumulatively. Window
//! deltas are slimmed ([`MetricsSnapshot::compact`]) and capped at
//! `MAX_WINDOWS` so the committed artefact stays reviewable; the
//! cumulative snapshot stays complete.
//!
//! Two forensic artefacts ride along: the rear and wire rings are exported
//! as one Chrome trace-event JSON (`ext-observability-trace.json`,
//! loadable in `chrome://tracing`/Perfetto), and a
//! [`FlightRecorder`] wired into the rear node
//! watches the run. Two thirds in, a burst of structurally valid but
//! unrelated "rogue" snapshots is injected into the inbox; the resulting
//! fix-error spike trips the recorder and its black box — registry
//! deltas, recent spans, per-fix [`FixReport`](rups_core::report::FixReport)s
//! — becomes `ext-observability-flight.json`. The figure returns all three
//! files as [`Artefact`]s; `evaluate --json DIR` writes them.
//!
//! [`ext_faults`]: crate::figures::ext_faults
//! [`ConvoyRig`]: crate::rig::ConvoyRig
//! [`MetricsSnapshot::delta`]: rups_obs::MetricsSnapshot::delta

use crate::figures::{Artefact, EvalScale, CONVOY_CONTEXT_M, CONVOY_HORIZON_S, CONVOY_WARMUP_M};
use crate::rig::{acceptance_faults, ConvoyRig, ConvoySpec, SPAN_RING};
use crate::series::{Figure, Series};
use rups_core::config::RupsConfig;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::pipeline::{ContextSnapshot, RupsNode};
use rups_core::report::default_flight_config;
use rups_core::testfield;
use rups_obs::{chrome_trace, FlightRecorder, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use v2v_sim::fault::FaultConfig;

/// True front–rear gap, metres.
const GAP_M: f64 = 60.0;
/// Hard cap on timeline windows in the artefact (the committed file must
/// stay diff-reviewable; see EXPERIMENTS.md).
const MAX_WINDOWS: usize = 24;
/// Newest span records exported into the Chrome trace.
const TRACE_MAX_EVENTS: usize = 2048;
/// Rogue (structurally valid, unrelated-field) snapshots injected two
/// thirds into the run to demonstrate the flight recorder.
const ROGUE_BURST: u64 = 4;

/// Parameters of the telemetry-under-faults run. The channel is the
/// ext-faults acceptance cell ([`acceptance_faults`]: ~30 % expected
/// burst loss plus 1 % corruption).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (duration, band width, master seed).
    pub scale: EvalScale,
    /// Query epochs aggregated into one timeline window. The effective
    /// stride grows as needed to keep the timeline under `MAX_WINDOWS`.
    pub epoch_stride: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            epoch_stride: 60,
        }
    }
}

/// Smaller run for tests and `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        epoch_stride: 30,
    }
}

/// One aggregation window of the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Query epoch index at the end of this window (1-based, inclusive).
    pub epoch_end: usize,
    /// Simulated time at the end of this window, seconds.
    pub t_s: f64,
    /// Metrics recorded during this window only (counters and histograms
    /// are deltas; gauges are last-value), slimmed via
    /// [`MetricsSnapshot::compact`]: zero counters and empty histograms
    /// are dropped and bucket arrays cleared — quantiles and counts
    /// remain. The cumulative snapshot keeps everything.
    pub delta: MetricsSnapshot,
}

/// The machine-readable artefact of the run: per-window metric deltas
/// plus the cumulative snapshot they sum to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsTimeline {
    /// Always `"ext-observability"`.
    pub figure_id: String,
    /// Query epochs per timeline window.
    pub epoch_stride: usize,
    /// The channel impairments the run was recorded under.
    pub faults: FaultConfig,
    /// The per-window deltas, oldest first.
    pub entries: Vec<TimelineEntry>,
    /// The registry at the end of the run; window deltas of any counter
    /// sum to its cumulative value here.
    pub cumulative: MetricsSnapshot,
    /// Spans recorded into the rear and wire rings over the whole run (may
    /// exceed the ring capacity; each ring keeps its newest).
    pub spans_recorded: u64,
}

/// The counter-derived hit/delivery ratio `num / (num + miss)`; 0 when
/// the window saw no events.
fn ratio(snap: &MetricsSnapshot, num: &str, miss: &str) -> f64 {
    let n = snap.counter(num).unwrap_or(0);
    let m = snap.counter(miss).unwrap_or(0);
    if n + m == 0 {
        0.0
    } else {
        n as f64 / (n + m) as f64
    }
}

/// Runs the experiment; returns the figure plus its metrics timeline,
/// Chrome trace and (when a trigger fired) flight dump.
pub fn run(p: &Params) -> (Figure, Vec<Artefact>) {
    let s = &p.scale;
    let cfg = s.convoy_config();
    let faults = acceptance_faults();
    let field_seed = s.seed ^ 0xFA17;

    // Rear vehicle 1 receives: its registry also meters the link and its
    // ring holds engine and inbox spans; a flight recorder watches its
    // fix pipeline. Front vehicle 2 beacons.
    let mut rig = ConvoyRig::with_extras(
        ConvoySpec {
            cfg: cfg.clone(),
            n_vehicles: 2,
            gap_m: GAP_M,
            field_seed,
            context_m: CONVOY_CONTEXT_M,
            horizon_s: CONVOY_HORIZON_S,
            faults,
            link_seed: s.seed ^ 0x0B5E,
            span_capacity: SPAN_RING,
        },
        |id, node, registry, spans| match id {
            1 => node.with_flight_recorder(Arc::new(
                FlightRecorder::new(default_flight_config(), Arc::clone(registry))
                    .with_spans(Arc::clone(spans)),
            )),
            _ => node,
        },
    );
    let rear = rig.vehicle(1);
    let (registry, spans) = (Arc::clone(&rear.registry), Arc::clone(&rear.spans));
    let flight = Arc::clone(rear.node.flight_recorder().expect("wired above"));

    // One query epoch per metre after warmup; the stride grows as needed
    // so the committed timeline never exceeds `MAX_WINDOWS` entries.
    let duration_epochs = s.duration_s as usize;
    let stride = p
        .epoch_stride
        .max(1)
        .max(duration_epochs.div_ceil(MAX_WINDOWS));
    let inject_epoch = duration_epochs * 2 / 3;
    let mut entries = Vec::new();
    let mut prev = registry.snapshot();
    let mut epochs = 0usize;

    let total_m = CONVOY_WARMUP_M + duration_epochs;
    for metre in 0..total_m {
        let t = metre as f64;
        rig.drive(t);
        if metre < CONVOY_WARMUP_M {
            continue;
        }

        rig.beacon(2, t);
        rig.deliver(t);
        epochs += 1;
        if epochs == inject_epoch {
            for i in 0..ROGUE_BURST {
                let rogue = rogue_snapshot(&cfg, field_seed ^ (0x60D + i), 100 + i, t);
                let _ = rig.accept(1, rogue, t);
            }
        }
        // Grading feeds the registry and the flight recorder; the fixes
        // themselves are not needed.
        rig.grade(1, t);

        if epochs.is_multiple_of(stride) {
            let now = registry.snapshot();
            entries.push(TimelineEntry {
                epoch_end: epochs,
                t_s: t,
                delta: now.delta(&prev).compact(),
            });
            prev = now;
        }
    }

    let cumulative = registry.snapshot();
    if !epochs.is_multiple_of(stride) {
        entries.push(TimelineEntry {
            epoch_end: epochs,
            t_s: (total_m - 1) as f64,
            delta: cumulative.delta(&prev).compact(),
        });
    }

    let timeline = MetricsTimeline {
        figure_id: "ext-observability".into(),
        epoch_stride: stride,
        faults,
        entries,
        cumulative,
        spans_recorded: spans.recorded_total() + rig.wire().recorded_total(),
    };
    // The rear ring and the wire's fault events, in recording order.
    let mut records = spans.recent();
    records.extend(rig.wire().recent());
    records.sort_by_key(|r| r.start_ns + r.dur_ns);
    let trace = chrome_trace(&records[records.len().saturating_sub(TRACE_MAX_EVENTS)..]);
    let mut notes = vec![
        format!("chrome trace of {} events", trace.traceEvents.len()),
        format!(
            "{ROGUE_BURST} rogue snapshots injected at epoch {inject_epoch} to trip the flight recorder"
        ),
    ];
    let mut artefacts = vec![
        Artefact::pretty("ext-observability-metrics.json", &timeline),
        Artefact::compact("ext-observability-trace.json", &trace),
    ];
    if flight.has_triggered() {
        artefacts.push(Artefact::compact(
            "ext-observability-flight.json",
            &flight.dump(),
        ));
        notes.push("flight recorder triggered; black box attached".into());
    } else {
        notes.push("flight recorder armed but never triggered; no black box".into());
    }

    // The figure view of the timeline: cache/delivery health per window.
    let x: Vec<f64> = timeline.entries.iter().map(|e| e.t_s).collect();
    let series_of = |label: &str, f: &dyn Fn(&MetricsSnapshot) -> f64| {
        Series::new(
            label,
            x.clone(),
            timeline.entries.iter().map(|e| f(&e.delta)).collect(),
        )
    };
    let series = vec![
        series_of("engine context hit rate per window", &|d| {
            ratio(
                d,
                "rups_core_engine_context_hits",
                "rups_core_engine_context_rebuilds",
            )
        }),
        series_of("engine window-memo hit rate per window", &|d| {
            ratio(
                d,
                "rups_core_engine_window_hits",
                "rups_core_engine_window_misses",
            )
        }),
        series_of("link delivery rate per window", &|d| {
            let offered = d.counter("rups_v2v_link_offered").unwrap_or(0);
            let delivered = d.counter("rups_v2v_link_delivered").unwrap_or(0);
            if offered == 0 {
                0.0
            } else {
                delivered as f64 / offered as f64
            }
        }),
        series_of("engine query p95 per window (µs)", &|d| {
            d.histogram("rups_core_engine_query_ns")
                .map_or(0.0, |h| h.p95 / 1_000.0)
        }),
    ];

    let cum = &timeline.cumulative;
    notes.push(format!(
        "engine: {} queries, context hit rate {:.2}, window hit rate {:.2}",
        cum.counter("rups_core_engine_queries").unwrap_or(0),
        ratio(
            cum,
            "rups_core_engine_context_hits",
            "rups_core_engine_context_rebuilds"
        ),
        ratio(
            cum,
            "rups_core_engine_window_hits",
            "rups_core_engine_window_misses"
        ),
    ));
    if let Some(h) = cum.histogram("rups_core_engine_query_ns") {
        notes.push(format!(
            "query latency: p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs over {} queries",
            h.p50 / 1_000.0,
            h.p95 / 1_000.0,
            h.p99 / 1_000.0,
            h.count,
        ));
    }
    notes.push(format!(
        "link: {} offered, {} delivered, {} dropped, {} duplicated, {} corrupted",
        cum.counter("rups_v2v_link_offered").unwrap_or(0),
        cum.counter("rups_v2v_link_delivered").unwrap_or(0),
        cum.counter("rups_v2v_link_dropped").unwrap_or(0),
        cum.counter("rups_v2v_link_duplicated").unwrap_or(0),
        cum.counter("rups_v2v_link_corrupted").unwrap_or(0),
    ));
    notes.push(format!(
        "intake: {} codec ok, {} inbox accepted; quality H/M/L {}/{}/{}, {} rejected",
        cum.counter("rups_v2v_codec_decode_ok").unwrap_or(0),
        cum.counter("rups_core_inbox_accepted").unwrap_or(0),
        cum.counter("rups_core_quality_grade_high").unwrap_or(0),
        cum.counter("rups_core_quality_grade_medium").unwrap_or(0),
        cum.counter("rups_core_quality_grade_low").unwrap_or(0),
        cum.counter("rups_core_quality_rejected").unwrap_or(0),
    ));
    notes.push(format!(
        "{} spans recorded into the rear and wire rings ({} slots each; {} timeline windows of {} epochs)",
        timeline.spans_recorded,
        SPAN_RING,
        timeline.entries.len(),
        stride,
    ));

    let figure = Figure {
        id: "ext-observability".into(),
        title: "Unified telemetry under V2V channel faults".into(),
        notes,
        series,
    };
    (figure, artefacts)
}

/// A structurally valid snapshot whose GSM field comes from an unrelated
/// seed: the SYN search against it can only miss, so a burst of these in
/// the inbox drives the fix-error rate up and trips the flight recorder's
/// `fix_error_spike` rule.
fn rogue_snapshot(cfg: &RupsConfig, seed: u64, vehicle_id: u64, t: f64) -> ContextSnapshot {
    let mut rogue = RupsNode::new(cfg.clone()).with_vehicle_id(vehicle_id);
    for j in 0..CONVOY_CONTEXT_M {
        rogue
            .append_metre(
                GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: t - (CONVOY_CONTEXT_M - 1 - j) as f64,
                },
                &PowerVector::from_fn(cfg.n_channels, |ch| {
                    Some(testfield::rssi(seed, j as f64, ch))
                }),
            )
            .expect("rogue synthetic drive never mismatches");
    }
    rogue.snapshot(Some(CONVOY_CONTEXT_M))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_trace_and_black_box_carry_live_counters() {
        let (fig, artefacts) = run(&quick_params());
        let file = |name: &str| {
            &artefacts
                .iter()
                .find(|a| a.file == name)
                .unwrap_or_else(|| panic!("{name} returned"))
                .json
        };

        // The artefact parses back into the typed timeline.
        let tl: MetricsTimeline =
            serde_json::from_str(file("ext-observability-metrics.json")).expect("timeline parses");
        assert_eq!(tl.figure_id, "ext-observability");
        assert!(!tl.entries.is_empty());

        // Key counters are live: the engine queried, the link faulted.
        let cum = &tl.cumulative;
        let queries = cum.counter("rups_core_engine_queries").unwrap();
        assert!(queries > 0);
        assert!(cum.counter("rups_v2v_link_offered").unwrap() > 0);
        assert!(
            cum.counter("rups_v2v_link_dropped").unwrap() > 0,
            "a 30% burst-loss channel must drop frames"
        );
        assert!(cum.counter("rups_core_inbox_accepted").unwrap() > 0);
        let grades = cum.counter("rups_core_quality_grade_high").unwrap()
            + cum.counter("rups_core_quality_grade_medium").unwrap()
            + cum.counter("rups_core_quality_grade_low").unwrap();
        assert!(grades > 0, "faulted run still grades fixes");

        // SYN-stage latency histograms carry quantiles (obs is on by
        // default throughout the eval stack).
        let h = cum.histogram("rups_core_engine_query_ns").unwrap();
        assert!(h.count > 0);
        assert!(h.p99 >= h.p50);
        assert!(tl.spans_recorded > 0);

        // Window deltas of a counter sum exactly to its cumulative value.
        let windowed: u64 = tl
            .entries
            .iter()
            .map(|e| e.delta.counter("rups_core_engine_queries").unwrap_or(0))
            .sum();
        assert_eq!(windowed, queries);

        // The stride cap bounded the committed artefact.
        assert!(tl.entries.len() <= MAX_WINDOWS);

        // The Chrome trace parses back and carries both complete spans and
        // the per-component thread-name metadata.
        let trace: rups_obs::ChromeTrace =
            serde_json::from_str(file("ext-observability-trace.json")).expect("trace parses");
        assert!(!trace.traceEvents.is_empty());
        assert!(trace.traceEvents.iter().any(|e| e.ph == "X"));
        assert!(trace
            .traceEvents
            .iter()
            .any(|e| e.ph == "M" && e.name == "thread_name"));
        assert!(trace.traceEvents.len() <= TRACE_MAX_EVENTS + 16);

        // The rogue burst tripped the flight recorder: the black box holds
        // registry deltas, recent spans and per-fix reports.
        let dump: rups_obs::FlightDump =
            serde_json::from_str(file("ext-observability-flight.json"))
                .expect("flight dump parses");
        assert!(dump.triggered.iter().any(|t| t.rule == "fix_error_spike"));
        assert!(!dump.windows.is_empty());
        assert!(!dump.spans.is_empty());
        assert!(!dump.fixes.is_empty());

        // The figure view mirrors the timeline shape.
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].x.len(), tl.entries.len());
    }
}
