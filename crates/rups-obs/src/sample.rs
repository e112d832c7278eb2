//! Tail-based trace sampling with a measured overhead budget.
//!
//! Recording every span of every vehicle is exactly the telemetry cost the
//! north star cannot afford, yet *head* sampling (deciding at trace start)
//! throws away the interesting traces: the ones that turn out anomalous.
//! The [`TailSampler`] defers the decision to trace *end*: spans buffer in
//! a short provisional ring per trace id and are committed to the durable
//! store only when the finished trace is anomalous — its caller flagged it
//! (validation rejection, Low grade, missed fix), or a span ran past an
//! adaptive latency threshold — or when the trace wins a deterministic
//! head-sample draw at a configured rate, keeping an unbiased background
//! sample for baselines.
//!
//! The sampler also watches *itself*. Every ingest batch is timed and
//! charged to the `rups_obs_overhead_record_ns` histogram, committed bytes
//! accumulate on `rups_obs_overhead_retained_bytes`, and a degradation
//! ladder halves the effective head-sample rate (counting
//! `rups_obs_overhead_demotions`, publishing the current rate on the
//! `rups_obs_overhead_head_rate` gauge) whenever the measured per-span
//! record cost exceeds the configured budget — the telemetry sheds its own
//! load before it can perturb the pipeline it observes.
//!
//! ```
//! use rups_obs::{SampleConfig, SpanArgs, SpanRecord, TailSampler, TRACE_ARG};
//!
//! let sampler = TailSampler::new(SampleConfig::default());
//! let span = SpanRecord {
//!     name: "engine.query",
//!     start_ns: 10,
//!     dur_ns: 1_000,
//!     args: SpanArgs::new().with(TRACE_ARG, 42),
//! };
//! sampler.ingest(&[span]);
//! assert!(sampler.finish_trace(42, true), "anomalous traces always commit");
//! assert_eq!(sampler.committed().len(), 1);
//! ```

use crate::context::TRACE_ARG;
use crate::registry::{Counter, Gauge, Registry};
use crate::span::SpanRecord;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Histogram of the sampler's own per-batch record-path cost, nanoseconds
/// per ingested span.
pub const OVERHEAD_RECORD_NS: &str = "rups_obs_overhead_record_ns";
/// Counter of bytes committed to the durable store.
pub const OVERHEAD_RETAINED_BYTES: &str = "rups_obs_overhead_retained_bytes";
/// Counter of spans offered to the sampler.
pub const OVERHEAD_SPANS_INGESTED: &str = "rups_obs_overhead_spans_ingested";
/// Counter of spans committed to the durable store.
pub const OVERHEAD_SPANS_COMMITTED: &str = "rups_obs_overhead_spans_committed";
/// Counter of degradation-ladder steps taken (head-rate halvings).
pub const OVERHEAD_DEMOTIONS: &str = "rups_obs_overhead_demotions";
/// Gauge publishing the effective head-sample rate after degradation.
pub const OVERHEAD_HEAD_RATE: &str = "rups_obs_overhead_head_rate";

/// Tail-sampling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleConfig {
    /// Configured head-sample rate in `[0, 1]`: the fraction of ordinary
    /// traces committed as an unbiased background sample.
    pub head_rate: f64,
    /// A span is latency-anomalous when `dur_ns` exceeds this multiple of
    /// the adaptive (EWMA) duration baseline.
    pub latency_factor: f64,
    /// EWMA smoothing factor for the duration baseline.
    pub latency_alpha: f64,
    /// Spans observed before the adaptive latency threshold arms (early
    /// spans define the baseline rather than being judged by it).
    pub latency_warmup: u64,
    /// Provisional spans buffered per in-flight trace; excess spans of the
    /// same trace are dropped (counted as ingested, never committed).
    pub provisional_cap: usize,
    /// In-flight traces buffered at once; the oldest trace is resolved
    /// (latency/head rules only) when a new trace would exceed this.
    pub max_traces: usize,
    /// Durable-store capacity in spans; oldest committed spans fall off.
    pub committed_cap: usize,
    /// Overhead budget: measured mean record-path cost per span, in
    /// nanoseconds, above which the degradation ladder steps down.
    pub budget_ns_per_span: f64,
    /// Ingested spans per ladder evaluation window.
    pub ladder_window: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            head_rate: 0.05,
            latency_factor: 8.0,
            latency_alpha: 0.05,
            latency_warmup: 64,
            provisional_cap: 64,
            max_traces: 256,
            committed_cap: 16_384,
            budget_ns_per_span: 2_000.0,
            ladder_window: 1_024,
        }
    }
}

/// Point-in-time sampler statistics, for harness reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SamplerStats {
    /// Spans offered via [`TailSampler::ingest`].
    pub spans_ingested: u64,
    /// Spans committed to the durable store (before cap eviction).
    pub spans_committed: u64,
    /// Distinct traces resolved via [`TailSampler::finish_trace`] or
    /// buffer eviction.
    pub traces_finished: u64,
    /// Resolved traces that committed.
    pub traces_committed: u64,
    /// Bytes committed to the durable store.
    pub retained_bytes: u64,
    /// Effective head-sample rate after degradation.
    pub head_rate: f64,
    /// Degradation-ladder steps taken.
    pub demotions: u64,
    /// Mean measured record-path cost per span over the last ladder
    /// window, nanoseconds (0 until a window completes).
    pub mean_record_ns: f64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Per-trace provisional buffers.
    pending: HashMap<u64, Vec<SpanRecord>>,
    /// Trace ids in arrival order, for FIFO eviction.
    order: VecDeque<u64>,
    /// The durable store, oldest first.
    committed: VecDeque<SpanRecord>,
    /// EWMA of span durations (the adaptive latency baseline).
    dur_ewma: f64,
    /// Spans folded into the baseline so far.
    dur_seen: u64,
    /// Ladder accounting: spans and self-measured nanoseconds this window.
    window_spans: u64,
    window_ns: u64,
    /// Counters, plus the effective head rate and last window's mean
    /// record cost the ladder reads and steps.
    stats: SamplerStats,
}

/// Pre-registered meta-metric handles (absent on an unmetered sampler).
#[derive(Debug)]
struct Meta {
    /// Only recorded by the self-timing path, which needs the `obs` clock.
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    record_ns: crate::hist::Histogram,
    retained_bytes: Counter,
    ingested: Counter,
    committed: Counter,
    demotions: Counter,
    head_rate: Gauge,
}

/// Tail-based trace sampler; see the [module docs](self).
#[derive(Debug)]
pub struct TailSampler {
    cfg: SampleConfig,
    inner: Mutex<Inner>,
    meta: Option<Meta>,
}

impl TailSampler {
    /// A sampler with no meta-metrics registry attached.
    pub fn new(cfg: SampleConfig) -> Self {
        let head_rate = cfg.head_rate.clamp(0.0, 1.0);
        let inner = Inner {
            // Pre-size the durable ring so long-running hosts (the soak
            // harness asserts allocation-flatness) never see it regrow.
            committed: VecDeque::with_capacity(cfg.committed_cap),
            stats: SamplerStats {
                head_rate,
                ..SamplerStats::default()
            },
            ..Inner::default()
        };
        TailSampler {
            cfg,
            inner: Mutex::new(inner),
            meta: None,
        }
    }

    /// Publishes the sampler's meta-metrics (`rups_obs_overhead_*`) into
    /// `registry`.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        let meta = Meta {
            record_ns: registry.histogram(OVERHEAD_RECORD_NS),
            retained_bytes: registry.counter(OVERHEAD_RETAINED_BYTES),
            ingested: registry.counter(OVERHEAD_SPANS_INGESTED),
            committed: registry.counter(OVERHEAD_SPANS_COMMITTED),
            demotions: registry.counter(OVERHEAD_DEMOTIONS),
            head_rate: registry.gauge(OVERHEAD_HEAD_RATE),
        };
        meta.head_rate
            .set(self.inner.lock().expect("sampler poisoned").stats.head_rate);
        self.meta = Some(meta);
        self
    }

    /// The configured policy.
    pub fn config(&self) -> SampleConfig {
        self.cfg
    }

    /// Offers a batch of completed spans. Spans carrying a
    /// [`TRACE_ARG`] buffer provisionally under their trace id until
    /// [`finish_trace`](Self::finish_trace); untraced spans resolve
    /// immediately (latency/head rules only).
    pub fn ingest(&self, spans: &[SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        #[cfg(feature = "obs")]
        let t0 = std::time::Instant::now();
        let mut inner = self.inner.lock().expect("sampler poisoned");
        let inner = &mut *inner;
        for span in spans {
            inner.stats.spans_ingested += 1;
            // Fold into the adaptive baseline (non-zero spans only: point
            // events carry no latency information).
            if span.dur_ns > 0 {
                let d = span.dur_ns as f64;
                if inner.dur_seen == 0 {
                    inner.dur_ewma = d;
                } else {
                    inner.dur_ewma += self.cfg.latency_alpha * (d - inner.dur_ewma);
                }
                inner.dur_seen += 1;
            }
            match span.args.get(TRACE_ARG) {
                Some(trace) => {
                    let trace = trace as u64;
                    let buf = match inner.pending.entry(trace) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            inner.order.push_back(trace);
                            e.insert(Vec::new())
                        }
                    };
                    if buf.len() < self.cfg.provisional_cap {
                        buf.push(*span);
                    }
                }
                None => {
                    // No trace to defer on: decide now.
                    let keep = self.latency_anomalous(inner, span)
                        || head_draw(span.start_ns ^ span.dur_ns, inner.stats.head_rate);
                    if keep {
                        Self::commit(&self.cfg, inner, &self.meta, &[*span]);
                    }
                }
            }
        }
        // FIFO-evict over-budget traces, resolving them without the
        // caller's anomaly verdict.
        self.settle_oldest(inner, self.cfg.max_traces);
        let n = spans.len() as u64;
        if let Some(meta) = &self.meta {
            meta.ingested.add(n);
        }
        #[cfg(feature = "obs")]
        {
            let spent = t0.elapsed().as_nanos() as u64;
            let per_span = spent / n.max(1);
            if let Some(meta) = &self.meta {
                meta.record_ns.record(per_span.max(1));
            }
            inner.window_ns += spent;
        }
        inner.window_spans += n;
        if inner.window_spans >= self.cfg.ladder_window {
            self.step_ladder(inner);
        }
    }

    /// Resolves a trace: commits its buffered spans when `anomalous`, when
    /// any span ran past the adaptive latency threshold, or when the trace
    /// id wins the head-sample draw. Returns whether the trace committed.
    pub fn finish_trace(&self, trace_id: u64, anomalous: bool) -> bool {
        let mut inner = self.inner.lock().expect("sampler poisoned");
        let inner = &mut *inner;
        let Some(buf) = inner.pending.remove(&trace_id) else {
            return false;
        };
        inner.order.retain(|t| *t != trace_id);
        self.resolve(inner, trace_id, buf, anomalous)
    }

    /// Resolves every trace still buffered as ordinary (latency and head
    /// rules only), as FIFO eviction would later: for traces whose caller
    /// can no longer give a verdict.
    pub fn finish_buffered(&self) {
        let mut inner = self.inner.lock().expect("sampler poisoned");
        self.settle_oldest(&mut inner, 0);
    }

    /// The durable store: committed spans, oldest first.
    pub fn committed(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("sampler poisoned");
        inner.committed.iter().copied().collect()
    }

    /// Current sampler statistics.
    pub fn stats(&self) -> SamplerStats {
        self.inner.lock().expect("sampler poisoned").stats.clone()
    }

    fn latency_anomalous(&self, inner: &Inner, span: &SpanRecord) -> bool {
        inner.dur_seen >= self.cfg.latency_warmup
            && span.dur_ns as f64 > self.cfg.latency_factor * inner.dur_ewma.max(1.0)
    }

    fn resolve(
        &self,
        inner: &mut Inner,
        trace_id: u64,
        buf: Vec<SpanRecord>,
        anomalous: bool,
    ) -> bool {
        inner.stats.traces_finished += 1;
        let slow = buf.iter().any(|s| self.latency_anomalous(inner, s));
        let keep = anomalous || slow || head_draw(trace_id, inner.stats.head_rate);
        if keep && !buf.is_empty() {
            inner.stats.traces_committed += 1;
            Self::commit(&self.cfg, inner, &self.meta, &buf);
        }
        keep
    }

    fn commit(cfg: &SampleConfig, inner: &mut Inner, meta: &Option<Meta>, spans: &[SpanRecord]) {
        let bytes = std::mem::size_of_val(spans) as u64;
        inner.stats.spans_committed += spans.len() as u64;
        inner.stats.retained_bytes += bytes;
        inner.committed.extend(spans.iter().copied());
        while inner.committed.len() > cfg.committed_cap {
            inner.committed.pop_front();
        }
        if let Some(meta) = meta {
            meta.committed.add(spans.len() as u64);
            meta.retained_bytes.add(bytes);
        }
    }

    fn step_ladder(&self, inner: &mut Inner) {
        let mean = if inner.window_spans > 0 {
            inner.window_ns as f64 / inner.window_spans as f64
        } else {
            0.0
        };
        let stats = &mut inner.stats;
        stats.mean_record_ns = mean;
        inner.window_spans = 0;
        inner.window_ns = 0;
        if mean > self.cfg.budget_ns_per_span {
            // Over budget: shed head-sampled load. Floor keeps the rate
            // recoverable (a zero rate could never be multiplied back up).
            stats.head_rate = (stats.head_rate / 2.0).max(self.cfg.head_rate / 1024.0);
            stats.demotions += 1;
            if let Some(meta) = &self.meta {
                meta.demotions.inc();
            }
        } else if mean < 0.5 * self.cfg.budget_ns_per_span {
            // Comfortably under: climb back toward the configured rate.
            stats.head_rate = (stats.head_rate * 1.5).min(self.cfg.head_rate.clamp(0.0, 1.0));
        }
        if let Some(meta) = &self.meta {
            meta.head_rate.set(stats.head_rate);
        }
    }

    /// Resolves the oldest buffered traces as ordinary until at most `keep`
    /// remain.
    fn settle_oldest(&self, inner: &mut Inner, keep: usize) {
        while inner.pending.len() > keep {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(buf) = inner.pending.remove(&oldest) {
                self.resolve(inner, oldest, buf, false);
            }
        }
    }
}

/// Deterministic head-sample draw: SplitMix64-mixes `key` into a uniform
/// `[0, 1)` variate and keeps it under `rate`. Stable across runs so a
/// trace's fate never depends on sampler timing.
fn head_draw(key: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64) < rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanArgs;

    fn traced(trace: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: "engine.query",
            start_ns: trace.wrapping_mul(97),
            dur_ns,
            args: SpanArgs::new().with(TRACE_ARG, trace as i64),
        }
    }

    #[test]
    fn anomalous_traces_always_commit_and_clean_traces_mostly_do_not() {
        let sampler = TailSampler::new(SampleConfig {
            head_rate: 0.0,
            ..SampleConfig::default()
        });
        for t in 0..100u64 {
            sampler.ingest(&[traced(t, 1_000)]);
            let committed = sampler.finish_trace(t, t % 10 == 0);
            assert_eq!(committed, t % 10 == 0, "trace {t}");
        }
        let stats = sampler.stats();
        assert_eq!(stats.traces_finished, 100);
        assert_eq!(stats.traces_committed, 10);
        assert_eq!(sampler.committed().len(), 10);
    }

    #[test]
    fn head_sampling_commits_roughly_the_configured_fraction() {
        let sampler = TailSampler::new(SampleConfig {
            head_rate: 0.2,
            ..SampleConfig::default()
        });
        let mut kept = 0;
        for t in 0..1_000u64 {
            sampler.ingest(&[traced(t, 1_000)]);
            if sampler.finish_trace(t, false) {
                kept += 1;
            }
        }
        assert!((120..280).contains(&kept), "kept {kept} of 1000 at 20%");
        // Deterministic: the same ids commit on a fresh sampler.
        let again = TailSampler::new(SampleConfig {
            head_rate: 0.2,
            ..SampleConfig::default()
        });
        let mut kept2 = 0;
        for t in 0..1_000u64 {
            again.ingest(&[traced(t, 1_000)]);
            if again.finish_trace(t, false) {
                kept2 += 1;
            }
        }
        assert_eq!(kept, kept2);
    }

    #[test]
    fn latency_outlier_commits_without_a_caller_verdict() {
        let cfg = SampleConfig {
            head_rate: 0.0,
            latency_warmup: 32,
            ..SampleConfig::default()
        };
        let sampler = TailSampler::new(cfg);
        // Train the baseline at ~1 us.
        for t in 0..64u64 {
            sampler.ingest(&[traced(t, 1_000)]);
            assert!(!sampler.finish_trace(t, false));
        }
        // A 100x span must commit on latency alone.
        sampler.ingest(&[traced(999, 100_000)]);
        assert!(sampler.finish_trace(999, false));
    }

    #[test]
    fn provisional_and_trace_caps_bound_memory() {
        let cfg = SampleConfig {
            head_rate: 1.0,
            provisional_cap: 4,
            max_traces: 8,
            ..SampleConfig::default()
        };
        let sampler = TailSampler::new(cfg);
        // One trace with far more spans than the provisional cap.
        for _ in 0..100 {
            sampler.ingest(&[traced(7, 1_000)]);
        }
        assert!(sampler.finish_trace(7, true));
        assert_eq!(
            sampler.committed().len(),
            4,
            "provisional cap bounds a trace"
        );
        // Many traces: eviction resolves the oldest (head_rate=1 keeps all).
        for t in 100..200u64 {
            sampler.ingest(&[traced(t, 1_000)]);
        }
        let stats = sampler.stats();
        assert!(stats.traces_finished >= 92, "evicted traces resolve");
        assert!(sampler.stats().spans_ingested >= 200);
    }

    #[test]
    fn committed_store_is_capped() {
        let cfg = SampleConfig {
            head_rate: 1.0,
            committed_cap: 16,
            ..SampleConfig::default()
        };
        let sampler = TailSampler::new(cfg);
        for t in 0..64u64 {
            sampler.ingest(&[traced(t, 1_000)]);
            sampler.finish_trace(t, false);
        }
        assert_eq!(sampler.committed().len(), 16);
        assert_eq!(sampler.stats().spans_committed, 64, "stats count pre-cap");
    }

    #[test]
    fn meta_metrics_flow_into_the_registry() {
        let reg = Registry::new();
        let sampler = TailSampler::new(SampleConfig {
            head_rate: 1.0,
            ..SampleConfig::default()
        })
        .with_registry(&reg);
        for t in 0..10u64 {
            sampler.ingest(&[traced(t, 1_000)]);
            sampler.finish_trace(t, false);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter(OVERHEAD_SPANS_INGESTED), Some(10));
        assert_eq!(snap.counter(OVERHEAD_SPANS_COMMITTED), Some(10));
        let bytes = snap.counter(OVERHEAD_RETAINED_BYTES).unwrap();
        assert_eq!(
            bytes,
            10 * std::mem::size_of::<SpanRecord>() as u64,
            "retained bytes track committed spans"
        );
        let gauges: Vec<_> = snap.gauges.iter().map(|g| g.name.as_str()).collect();
        assert!(gauges.contains(&OVERHEAD_HEAD_RATE));
    }

    #[test]
    fn degradation_ladder_sheds_head_rate_under_a_zero_budget() {
        let cfg = SampleConfig {
            head_rate: 0.5,
            budget_ns_per_span: 0.0, // any measured cost is over budget
            ladder_window: 8,
            ..SampleConfig::default()
        };
        let reg = Registry::new();
        let sampler = TailSampler::new(cfg).with_registry(&reg);
        for t in 0..64u64 {
            sampler.ingest(&[traced(t, 1_000)]);
            sampler.finish_trace(t, false);
        }
        let stats = sampler.stats();
        #[cfg(feature = "obs")]
        {
            assert!(stats.demotions >= 1, "zero budget must demote");
            assert!(
                stats.head_rate < 0.5,
                "rate halved, got {}",
                stats.head_rate
            );
            assert!(stats.mean_record_ns > 0.0);
            assert!(reg.snapshot().counter(OVERHEAD_DEMOTIONS).unwrap() >= 1);
        }
        #[cfg(not(feature = "obs"))]
        {
            // Without the wall-clock there is no measured cost to exceed.
            assert_eq!(stats.demotions, 0);
        }
    }

    #[test]
    fn stats_round_trip_through_json() {
        let sampler = TailSampler::new(SampleConfig::default());
        sampler.ingest(&[traced(1, 500)]);
        sampler.finish_trace(1, true);
        let stats = sampler.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: SamplerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        let cfg_json = serde_json::to_string(&SampleConfig::default()).unwrap();
        let cfg: SampleConfig = serde_json::from_str(&cfg_json).unwrap();
        assert_eq!(cfg, SampleConfig::default());
    }

    #[test]
    fn overhead_meta_metrics_expose_prometheus_types() {
        let reg = Registry::new();
        let sampler = TailSampler::new(SampleConfig::default()).with_registry(&reg);
        reg.counter(crate::detect::ALARMS_TOTAL).add(3);
        sampler.ingest(&[traced(5, 1_000)]);
        sampler.finish_trace(5, true);
        let text = reg.snapshot().to_prometheus();
        for (name, ty) in [
            (OVERHEAD_RECORD_NS, "histogram"),
            (OVERHEAD_RETAINED_BYTES, "counter"),
            (OVERHEAD_SPANS_INGESTED, "counter"),
            (OVERHEAD_SPANS_COMMITTED, "counter"),
            (OVERHEAD_HEAD_RATE, "gauge"),
            (crate::detect::ALARMS_TOTAL, "counter"),
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} {ty}")),
                "missing TYPE for {name}:\n{text}"
            );
        }
        assert!(text.contains("rups_obs_alarms_total 3"));
    }
}
