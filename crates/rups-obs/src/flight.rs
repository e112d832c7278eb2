//! The flight recorder: a bounded black box that dumps itself on anomaly.
//!
//! A [`FlightRecorder`] watches a [`Registry`] through periodic
//! [`observe`](FlightRecorder::observe) calls (one per fix epoch, driven
//! by the pipeline), keeping the last N per-window
//! [`MetricsSnapshot::delta`]s, the tail of a shared [`SpanRecorder`]
//! ring, and a ring of structured per-fix outcome reports fed via
//! [`record_fix`](FlightRecorder::record_fix). Each observation window is
//! evaluated against declarative [`TriggerRule`]s (fix-error spike,
//! validation-rejection burst, cache-hit-rate collapse, …); when one
//! fires, [`dump`](FlightRecorder::dump) captures everything into a
//! single JSON [`FlightDump`] — the forensic artefact to attach to a bug
//! report.
//!
//! The recorder is deliberately cheap: `observe` takes one registry
//! snapshot and a short mutex hold; everything stored is bounded by
//! [`FlightConfig`].

use crate::registry::{MetricsSnapshot, Registry};
use crate::signal::Signal;
use crate::span::{SpanRecord, SpanRecorder};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One declarative trigger predicate, evaluated against every observation
/// window's delta: it fires when the window's reading of `signal` arms at
/// `min_events` and reaches `threshold` on the signal's bad side (at or
/// above for signals that degrade upwards, at or below for the others).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerRule {
    /// Rule name, stamped on fired [`TriggerEvent`]s.
    pub name: String,
    /// The signal the rule reads.
    pub signal: Signal,
    /// The first value that fires.
    pub threshold: f64,
    /// Minimum events in the window before the rule arms.
    pub min_events: u64,
}

impl TriggerRule {
    /// A rule firing when `signal` reaches `threshold` over at least
    /// `min_events` events.
    pub fn new(name: &str, signal: Signal, threshold: f64, min_events: u64) -> Self {
        TriggerRule {
            name: name.to_string(),
            signal,
            threshold,
            min_events,
        }
    }
}

/// Evaluates trigger `rules` against one window delta, returning the rules
/// that fired. This is the one rule loop: [`FlightRecorder::observe`] runs
/// it over a node's own windows, fleet harnesses over fleet-merged ones.
pub fn check_fleet_rules(
    rules: &[TriggerRule],
    t_s: f64,
    delta: &MetricsSnapshot,
) -> Vec<TriggerEvent> {
    rules
        .iter()
        .filter_map(|r| {
            let reading = r.signal.read_armed(delta, r.min_events)?;
            let dir = r.signal.direction();
            (dir.badness(reading.value) >= dir.badness(r.threshold)).then(|| TriggerEvent {
                t_s,
                rule: r.name.clone(),
                signal: r.signal,
                value: reading.value,
            })
        })
        .collect()
}

/// Retention and trigger configuration of a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightConfig {
    /// Observation windows retained (newest kept).
    pub window_capacity: usize,
    /// Per-fix outcome reports retained (newest kept).
    pub fix_capacity: usize,
    /// Span records included in a dump (tail of the attached ring).
    pub span_tail: usize,
    /// The trigger predicates evaluated per observation window.
    pub rules: Vec<TriggerRule>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            window_capacity: 32,
            fix_capacity: 64,
            span_tail: 256,
            rules: Vec::new(),
        }
    }
}

/// One retained observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowDelta {
    /// Timestamp handed to [`FlightRecorder::observe`], seconds.
    pub t_s: f64,
    /// Metrics recorded during the window (zero-valued counters and empty
    /// histograms are dropped to keep the black box small).
    pub delta: MetricsSnapshot,
}

/// A fired trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerEvent {
    /// Window timestamp the rule fired at, seconds.
    pub t_s: f64,
    /// Name of the [`TriggerRule`] that fired.
    pub rule: String,
    /// The signal the rule read.
    pub signal: Signal,
    /// The observed value that crossed the threshold.
    pub value: f64,
}

/// An owned span record inside a dump (span names are `&'static str` in
/// the ring; the dump owns its strings so it can round-trip through JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanDump {
    /// Span name.
    pub name: String,
    /// Start offset in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for point events).
    pub dur_ns: u64,
    /// Structured arguments as a JSON map.
    pub args: Value,
}

impl From<&SpanRecord> for SpanDump {
    fn from(r: &SpanRecord) -> Self {
        SpanDump {
            name: r.name.to_string(),
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            args: Value::Map(
                r.args
                    .iter()
                    .map(|(k, v)| (k.to_string(), crate::trace::arg_value(v)))
                    .collect(),
            ),
        }
    }
}

/// The black box: everything the recorder held when it was dumped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Every trigger that fired over the recorder's lifetime, oldest
    /// first.
    pub triggered: Vec<TriggerEvent>,
    /// The retained observation windows, oldest first.
    pub windows: Vec<WindowDelta>,
    /// The tail of the attached span ring (empty when none attached).
    pub spans: Vec<SpanDump>,
    /// The retained per-fix outcome reports, oldest first.
    pub fixes: Vec<Value>,
    /// The full registry at dump time.
    pub cumulative: MetricsSnapshot,
}

struct Inner {
    last: Option<MetricsSnapshot>,
    windows: VecDeque<WindowDelta>,
    fixes: VecDeque<Value>,
    triggered: Vec<TriggerEvent>,
}

/// The recorder itself. All methods take `&self` (interior mutex), so one
/// `Arc<FlightRecorder>` can be shared between the pipeline and a dump
/// site.
pub struct FlightRecorder {
    cfg: FlightConfig,
    registry: Arc<Registry>,
    spans: Option<Arc<SpanRecorder>>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        f.debug_struct("FlightRecorder")
            .field("rules", &self.cfg.rules.len())
            .field("windows", &inner.windows.len())
            .field("fixes", &inner.fixes.len())
            .field("triggered", &inner.triggered.len())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder watching `registry` under the given configuration.
    pub fn new(cfg: FlightConfig, registry: Arc<Registry>) -> Self {
        Self {
            cfg,
            registry,
            spans: None,
            inner: Mutex::new(Inner {
                last: None,
                windows: VecDeque::new(),
                fixes: VecDeque::new(),
                triggered: Vec::new(),
            }),
        }
    }

    /// Includes the tail of `spans` in every dump.
    pub fn with_spans(mut self, spans: Arc<SpanRecorder>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.cfg
    }

    /// Pushes one per-fix outcome report into the bounded ring. Any
    /// `Serialize` type works; the report is rendered to a value tree
    /// immediately so the ring owns no borrows.
    pub fn record_fix<T: Serialize + ?Sized>(&self, report: &T) {
        if self.cfg.fix_capacity == 0 {
            return;
        }
        let v = serde::to_value(report);
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        if inner.fixes.len() == self.cfg.fix_capacity {
            inner.fixes.pop_front();
        }
        inner.fixes.push_back(v);
    }

    /// Closes an observation window at `t_s`: snapshots the registry,
    /// stores the delta since the previous observation, evaluates every
    /// trigger rule against it and returns the rules that fired (empty on
    /// the first call — there is no window yet).
    pub fn observe(&self, t_s: f64) -> Vec<TriggerEvent> {
        let now = self.registry.snapshot();
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let fired = match inner.last.take() {
            None => Vec::new(),
            Some(prev) => {
                let delta = now.delta(&prev);
                let fired = check_fleet_rules(&self.cfg.rules, t_s, &delta);
                if self.cfg.window_capacity > 0 {
                    if inner.windows.len() == self.cfg.window_capacity {
                        inner.windows.pop_front();
                    }
                    inner.windows.push_back(WindowDelta {
                        t_s,
                        delta: delta.compact(),
                    });
                }
                inner.triggered.extend(fired.iter().cloned());
                fired
            }
        };
        inner.last = Some(now);
        fired
    }

    /// True once any rule has fired.
    pub fn has_triggered(&self) -> bool {
        !self
            .inner
            .lock()
            .expect("flight recorder poisoned")
            .triggered
            .is_empty()
    }

    /// Captures the black box: retained windows, the span-ring tail, the
    /// per-fix reports, every fired trigger, and the cumulative registry.
    pub fn dump(&self) -> FlightDump {
        let cumulative = self.registry.snapshot();
        let spans = match &self.spans {
            None => Vec::new(),
            Some(rec) => {
                let recent = rec.recent();
                let skip = recent.len().saturating_sub(self.cfg.span_tail);
                recent[skip..].iter().map(SpanDump::from).collect()
            }
        };
        let inner = self.inner.lock().expect("flight recorder poisoned");
        FlightDump {
            triggered: inner.triggered.clone(),
            windows: inner.windows.iter().cloned().collect(),
            spans,
            fixes: inner.fixes.iter().cloned().collect(),
            cumulative,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_rule_fires_on_spike_and_respects_min_events() {
        let reg = Arc::new(Registry::new());
        let rejected = reg.counter("rups_core_quality_rejected");
        let graded = reg.counter("rups_core_quality_grade_high");
        let rec = FlightRecorder::new(
            FlightConfig {
                rules: vec![TriggerRule::new(
                    "fix_error_spike",
                    Signal::FixRejectionRate,
                    0.5,
                    4,
                )],
                ..FlightConfig::default()
            },
            Arc::clone(&reg),
        );
        assert!(rec.observe(0.0).is_empty(), "first call opens the window");
        // 2 errors of 3 events: above the rate but below min_events=4.
        rejected.add(2);
        graded.add(1);
        assert!(rec.observe(1.0).is_empty(), "small windows stay quiet");
        // 4 errors of 5 events in one window: fires.
        rejected.add(4);
        graded.add(1);
        let fired = rec.observe(2.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "fix_error_spike");
        assert_eq!(fired[0].signal, Signal::FixRejectionRate);
        assert!((fired[0].value - 0.8).abs() < 1e-12);
        assert!(rec.has_triggered());
        // Exactly at the threshold over exactly min_events: fires too.
        rejected.add(2);
        graded.add(2);
        assert_eq!(rec.observe(3.0).len(), 1);
        // Healthy window: quiet again, but the fired events are retained.
        graded.add(10);
        assert!(rec.observe(4.0).is_empty());
        assert_eq!(rec.dump().triggered.len(), 2);
    }

    #[test]
    fn count_rule_and_collapse_of_a_falling_signal() {
        let reg = Arc::new(Registry::new());
        let bad = reg.counter(crate::signal::INBOX_REJECTED[0]);
        let hits = reg.counter("rups_core_engine_window_hits");
        let misses = reg.counter("rups_core_engine_window_misses");
        let rec = FlightRecorder::new(
            FlightConfig {
                rules: vec![
                    TriggerRule::new("rejection_burst", Signal::ValidationRejections, 8.0, 8),
                    TriggerRule::new("cache_collapse", Signal::WindowHitRate, 0.05, 16),
                ],
                ..FlightConfig::default()
            },
            Arc::clone(&reg),
        );
        rec.observe(0.0);
        bad.add(3);
        hits.add(100);
        misses.add(1);
        assert!(rec.observe(1.0).is_empty(), "healthy window");
        bad.add(9);
        misses.add(40); // hit rate 0/40 = 0 ≤ 0.05 over ≥16 events
        let fired = rec.observe(2.0);
        let names: Vec<&str> = fired.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(names, ["rejection_burst", "cache_collapse"]);
        assert_eq!(fired[0].value, 9.0);
        // A window without lookups has no hit rate: the collapse rule
        // cannot fire on an idle engine.
        bad.add(1);
        assert!(rec.observe(3.0).is_empty());
    }

    #[test]
    fn rings_are_bounded_and_dump_roundtrips() {
        #[derive(Serialize)]
        struct MiniReport {
            neighbour: u64,
            outcome: String,
        }

        let reg = Arc::new(Registry::new());
        let c = reg.counter("c");
        let spans = Arc::new(SpanRecorder::new(32));
        let rec = FlightRecorder::new(
            FlightConfig {
                window_capacity: 2,
                fix_capacity: 3,
                span_tail: 2,
                rules: Vec::new(),
            },
            Arc::clone(&reg),
        )
        .with_spans(Arc::clone(&spans));

        for i in 0..5u64 {
            c.inc();
            spans.event("engine.context_hit");
            rec.record_fix(&MiniReport {
                neighbour: i,
                outcome: "miss".into(),
            });
            rec.observe(i as f64);
        }
        let dump = rec.dump();
        assert_eq!(dump.windows.len(), 2, "window ring bounded");
        assert_eq!(dump.fixes.len(), 3, "fix ring bounded");
        // Newest kept: the last report carries neighbour 4.
        assert!(matches!(
            dump.fixes.last().unwrap(),
            Value::Map(kv) if kv.iter().any(|(k, v)| k == "neighbour" && v.as_u64() == Some(4))
        ));
        if cfg!(feature = "obs") {
            assert_eq!(dump.spans.len(), 2, "span tail bounded");
        }
        assert_eq!(dump.cumulative.counter("c"), Some(5));

        let json = serde_json::to_string(&dump).unwrap();
        let back: FlightDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump);
    }
}
