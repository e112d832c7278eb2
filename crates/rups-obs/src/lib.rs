//! Workspace-wide observability for the RUPS pipeline.
//!
//! Three pieces, deliberately small and dependency-free:
//!
//! - [`Registry`] — a lock-light metrics registry of named [`Counter`]s,
//!   [`Gauge`]s and log-scale latency [`Histogram`]s. Handles are
//!   pre-registered once (the only place a lock is taken) and recording is
//!   a relaxed atomic add: allocation-free and wait-free on the hot path.
//! - [`SpanRecorder`] — a span/tracing facade with a fixed ring buffer of
//!   completed spans. Gated on the `obs` cargo feature; with the feature
//!   off it compiles to no-ops (no clock reads, no storage).
//! - Exporters — [`Registry::snapshot`] yields a serializable
//!   [`MetricsSnapshot`] (JSON via serde, Prometheus text via
//!   [`MetricsSnapshot::to_prometheus`]) and supports
//!   [`MetricsSnapshot::delta`] for per-epoch timelines.
//!
//! On top sits a "self-driving" layer that watches the telemetry stream
//! itself, reading every metric through one closed vocabulary of
//! [`Signal`]s:
//!
//! - [`DetectorBank`] — streaming robust detectors (EWMA z-score, CUSUM)
//!   over per-window deltas, emitting typed [`Alarm`]s online.
//! - [`diagnose`](mod@diagnose) — correlates an alarm across per-node snapshots and
//!   span rings to localise the worst node and pipeline stage into a
//!   [`DiagnosisReport`].
//! - [`TailSampler`] — tail-based trace sampling under a measured
//!   overhead budget: anomalous traces always commit, ordinary traces are
//!   head-sampled, and the sampler sheds its own load when over budget.
//!
//! Metric names follow the convention `rups_<crate>_<subsystem>_<metric>`,
//! with latency histograms suffixed `_ns` (see DESIGN.md § Observability).
//!
//! # Example
//!
//! ```
//! use rups_obs::Registry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! let queries = reg.counter("rups_core_engine_queries");
//! let latency = reg.histogram("rups_core_engine_query_ns");
//!
//! queries.inc();
//! latency.record(1_250);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("rups_core_engine_queries"), Some(1));
//! assert!(snap.to_prometheus().contains("rups_core_engine_query_ns_bucket"));
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod detect;
pub mod diagnose;
pub mod fleet;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod sample;
pub mod signal;
pub mod skew;
pub mod slo;
pub mod span;
pub mod trace;

pub use context::{TraceContext, CLOCK_ARG, TRACE_ARG, TRACE_CONTEXT_WIRE_BYTES};
pub use detect::{default_detectors, Alarm, DetectorBank, DetectorKind, DetectorSpec};
pub use diagnose::{diagnose, DiagnosisReport, ExemplarSpan, NodeWindow, Stage, StageScore};
pub use fleet::{Criterion, FleetAggregator, FleetSnapshot, NodeScore, WorstList};
pub use flight::{
    check_fleet_rules, FlightConfig, FlightDump, FlightRecorder, SpanDump, TriggerEvent,
    TriggerRule, WindowDelta,
};
pub use hist::{
    bucket_hi, bucket_index, bucket_lo, Histogram, HistogramSample, ShapeMismatch, Timer,
    N_BUCKETS, TOP_BUCKET_LO,
};
pub use registry::{
    escape_label_value, sanitize_metric_name, Counter, CounterSample, Gauge, GaugeSample,
    MetricsSnapshot, Registry,
};
pub use sample::{SampleConfig, SamplerStats, TailSampler};
pub use signal::{Direction, Reading, Signal, CLOCK_OFFSET_GAUGE, FIX_ERROR_GAUGE};
pub use skew::{ClockModel, SkewEstimator};
pub use slo::{default_slos, evaluate_slos, SloReport, SloSpec, SloVerdict};
pub use span::{SpanArgs, SpanGuard, SpanRecord, SpanRecorder};
pub use trace::{
    chrome_trace, component_of, merged_chrome_trace, merged_chrome_trace_bounded, ChromeTrace,
    ChromeTraceEvent, MergeLimits, NodeTrace,
};
