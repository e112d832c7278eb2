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
//! timeline (`results/ext-observability-metrics.json` by default).
//!
//! The timeline is the observability acceptance artefact: it carries the
//! engine context/window cache hit and miss counters, the SYN-stage
//! latency histograms (p50/p95/p99 of `rups_core_engine_query_ns` and
//! friends), the link fault counters (`rups_v2v_link_dropped`, …) and the
//! per-grade fix-quality counters, per window and cumulatively. Window
//! deltas are slimmed ([`MetricsSnapshot::compact`]) and capped at
//! [`Params::max_windows`] so the committed artefact stays reviewable;
//! the cumulative snapshot stays complete.
//!
//! Two forensic artefacts ride along: the rear and wire rings are exported
//! as one Chrome trace-event JSON (`results/ext-observability-trace.json`,
//! loadable in `chrome://tracing`/Perfetto), and a
//! [`FlightRecorder`] wired into the rear node
//! watches the run. Two thirds in, a burst of structurally valid but
//! unrelated "rogue" snapshots is injected into the inbox; the resulting
//! fix-error spike trips the recorder and its black box — registry
//! deltas, recent spans, per-fix [`FixReport`](rups_core::report::FixReport)s
//! — lands in `results/ext-observability-flight.json`.
//!
//! [`ext_faults`]: crate::figures::ext_faults
//! [`ConvoyRig`]: crate::rig::ConvoyRig
//! [`MetricsSnapshot::delta`]: rups_obs::MetricsSnapshot::delta

use crate::figures::{results_path, write_json, EvalScale};
use crate::rig::{acceptance_faults, ConvoyRig, ConvoySpec};
use crate::series::{Figure, Series};
use rups_core::config::RupsConfig;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::pipeline::{ContextSnapshot, RupsNode};
use rups_core::report::default_flight_config;
use rups_core::testfield;
use rups_obs::{chrome_trace, write_chrome_trace, FlightRecorder, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use v2v_sim::fault::FaultConfig;

/// Parameters of the telemetry-under-faults run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (duration, band width, master seed).
    pub scale: EvalScale,
    /// True front–rear gap, metres.
    pub gap_m: f64,
    /// Journey context the front vehicle beacons, metres.
    pub context_m: usize,
    /// Metres driven before the first beacon (context build-up).
    pub warmup_m: usize,
    /// Staleness horizon of the receiver's inbox, seconds.
    pub horizon_s: f64,
    /// Channel impairments (default: the ext-faults acceptance cell,
    /// ~30 % expected burst loss plus 1 % corruption).
    pub faults: FaultConfig,
    /// Query epochs aggregated into one timeline window. The effective
    /// stride grows as needed to keep the timeline under `max_windows`.
    pub epoch_stride: usize,
    /// Hard cap on timeline windows in the artefact (the committed file
    /// must stay diff-reviewable; see EXPERIMENTS.md).
    pub max_windows: usize,
    /// Capacity of each span ring.
    pub span_capacity: usize,
    /// Newest span records exported into the Chrome trace.
    pub trace_max_events: usize,
    /// Rogue (structurally valid, unrelated-field) snapshots injected two
    /// thirds into the run to demonstrate the flight recorder; 0 disables
    /// the injection.
    pub rogue_burst: usize,
    /// Where to write the metrics timeline JSON; `None` skips the write.
    pub out_path: Option<String>,
    /// Where to write the Chrome trace-event JSON; `None` skips it.
    pub trace_out_path: Option<String>,
    /// Where to write the flight-recorder dump (written only when a
    /// trigger fired); `None` skips it.
    pub flight_out_path: Option<String>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            gap_m: 60.0,
            context_m: 250,
            warmup_m: 260,
            horizon_s: 10.0,
            faults: acceptance_faults(),
            epoch_stride: 60,
            max_windows: 24,
            span_capacity: 4096,
            trace_max_events: 2048,
            rogue_burst: 4,
            out_path: Some(results_path("ext-observability-metrics.json")),
            trace_out_path: Some(results_path("ext-observability-trace.json")),
            flight_out_path: Some(results_path("ext-observability-flight.json")),
        }
    }
}

/// Smaller run for tests and `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        epoch_stride: 30,
        ..Params::default()
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

/// Runs the experiment, writing the timeline to `p.out_path` when set.
pub fn run(p: &Params) -> Figure {
    let s = &p.scale;
    let mut cfg = s.rups_config();
    cfg.max_context_m = p.context_m + 150;
    let field_seed = s.seed ^ 0xFA17;

    // Rear vehicle 1 receives: its registry also meters the link and its
    // ring holds engine and inbox spans; a flight recorder watches its
    // fix pipeline. Front vehicle 2 beacons.
    let mut rig = ConvoyRig::with_extras(
        ConvoySpec {
            cfg: cfg.clone(),
            n_vehicles: 2,
            gap_m: p.gap_m,
            field_seed,
            context_m: p.context_m,
            horizon_s: p.horizon_s,
            faults: p.faults,
            link_seed: s.seed ^ 0x0B5E,
            span_capacity: p.span_capacity,
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
    // so the committed timeline never exceeds `max_windows` entries.
    let duration_epochs = s.duration_s as usize;
    let stride = p
        .epoch_stride
        .max(1)
        .max(duration_epochs.div_ceil(p.max_windows.max(1)));
    let inject_epoch = duration_epochs * 2 / 3;
    let mut entries = Vec::new();
    let mut prev = registry.snapshot();
    let mut epochs = 0usize;

    let total_m = p.warmup_m + duration_epochs;
    for metre in 0..total_m {
        let t = metre as f64;
        rig.drive(t);
        if metre < p.warmup_m {
            continue;
        }

        rig.beacon(2, t);
        rig.deliver(t);
        epochs += 1;
        if p.rogue_burst > 0 && epochs == inject_epoch {
            for i in 0..p.rogue_burst as u64 {
                let rogue = rogue_snapshot(&cfg, p.context_m, field_seed ^ (0x60D + i), 100 + i, t);
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
        faults: p.faults,
        entries,
        cumulative,
        spans_recorded: spans.recorded_total() + rig.wire().recorded_total(),
    };
    let mut notes = Vec::new();
    if let Some(path) = &p.out_path {
        write_json(path, &timeline);
        notes.push(format!("metrics timeline written to {path}"));
    }
    if let Some(path) = &p.trace_out_path {
        // The rear ring and the wire's fault events, in recording order.
        let mut records = spans.recent();
        records.extend(rig.wire().recent());
        records.sort_by_key(|r| r.start_ns + r.dur_ns);
        let trace = chrome_trace(&records[records.len().saturating_sub(p.trace_max_events)..]);
        write_chrome_trace(path, &trace);
        notes.push(format!(
            "chrome trace ({} events) written to {path}",
            trace.traceEvents.len()
        ));
    }
    if p.rogue_burst > 0 {
        notes.push(format!(
            "{} rogue snapshots injected at epoch {inject_epoch} to trip the flight recorder",
            p.rogue_burst
        ));
    }
    if let Some(path) = &p.flight_out_path {
        if flight.has_triggered() {
            flight.dump_to(path);
            notes.push(format!(
                "flight recorder triggered; black box written to {path}"
            ));
        } else {
            notes.push("flight recorder armed but never triggered; no black box written".into());
        }
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
        p.span_capacity,
        timeline.entries.len(),
        stride,
    ));

    Figure {
        id: "ext-observability".into(),
        title: "Unified telemetry under V2V channel faults".into(),
        notes,
        series,
    }
}

/// A structurally valid snapshot whose GSM field comes from an unrelated
/// seed: the SYN search against it can only miss, so a burst of these in
/// the inbox drives the fix-error rate up and trips the flight recorder's
/// `fix_error_spike` rule.
fn rogue_snapshot(
    cfg: &RupsConfig,
    context_m: usize,
    seed: u64,
    vehicle_id: u64,
    t: f64,
) -> ContextSnapshot {
    let mut rogue = RupsNode::new(cfg.clone()).with_vehicle_id(vehicle_id);
    for j in 0..context_m {
        rogue
            .append_metre(
                GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: t - (context_m - 1 - j) as f64,
                },
                &PowerVector::from_fn(cfg.n_channels, |ch| {
                    Some(testfield::rssi(seed, j as f64, ch))
                }),
            )
            .expect("rogue synthetic drive never mismatches");
    }
    rogue.snapshot(Some(context_m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_lands_on_disk_with_live_counters() {
        let mut p = quick_params();
        let dir = std::env::temp_dir();
        let path = dir.join("rups-ext-observability-test-metrics.json");
        let trace_path = dir.join("rups-ext-observability-test-trace.json");
        let flight_path = dir.join("rups-ext-observability-test-flight.json");
        p.out_path = Some(path.to_string_lossy().into_owned());
        p.trace_out_path = Some(trace_path.to_string_lossy().into_owned());
        p.flight_out_path = Some(flight_path.to_string_lossy().into_owned());
        let fig = run(&p);

        // The artefact parses back into the typed timeline.
        let raw = std::fs::read_to_string(&path).expect("timeline written");
        std::fs::remove_file(&path).ok();
        let tl: MetricsTimeline = serde_json::from_str(&raw).expect("timeline parses");
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
        assert!(tl.entries.len() <= p.max_windows);

        // The Chrome trace parses back and carries both complete spans and
        // the per-component thread-name metadata.
        let raw = std::fs::read_to_string(&trace_path).expect("trace written");
        std::fs::remove_file(&trace_path).ok();
        let trace: rups_obs::ChromeTrace = serde_json::from_str(&raw).expect("trace parses");
        assert!(!trace.traceEvents.is_empty());
        assert!(trace.traceEvents.iter().any(|e| e.ph == "X"));
        assert!(trace
            .traceEvents
            .iter()
            .any(|e| e.ph == "M" && e.name == "thread_name"));
        assert!(trace.traceEvents.len() <= p.trace_max_events + 16);

        // The rogue burst tripped the flight recorder: the black box holds
        // registry deltas, recent spans and per-fix reports.
        let raw = std::fs::read_to_string(&flight_path).expect("flight dump written");
        std::fs::remove_file(&flight_path).ok();
        let dump: rups_obs::FlightDump = serde_json::from_str(&raw).expect("flight dump parses");
        assert!(dump.triggered.iter().any(|t| t.rule == "fix_error_spike"));
        assert!(!dump.windows.is_empty());
        assert!(!dump.spans.is_empty());
        assert!(!dump.fixes.is_empty());

        // The figure view mirrors the timeline shape.
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].x.len(), tl.entries.len());
    }
}
