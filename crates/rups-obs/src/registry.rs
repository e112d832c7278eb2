//! The lock-light metrics registry: named counters, gauges and histograms.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex and may
//! allocate — do it once at construction time and keep the returned handle.
//! The handles themselves are `Arc`-backed and record with relaxed atomics:
//! the hot path never locks, never allocates and never touches the
//! registry again.
//!
//! Naming convention (enforced only by review): `rups_<crate>_<subsystem>_
//! <metric>`, e.g. `rups_core_engine_context_hits` or
//! `rups_v2v_link_dropped`. Latency histograms end in `_ns`.

use crate::hist::{bucket_hi, Histogram, HistogramSample};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle. Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone (unregistered) counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`. Cloning shares the value.
///
/// Alongside the value the gauge counts how many times it has been set:
/// fleet-level merges weight each node's reading by that sample count, so
/// a node that reported once does not count as much as one that reported
/// ten thousand times.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
    sets: Arc<AtomicU64>,
}

impl Gauge {
    /// A standalone (unregistered) gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value (and counts the observation).
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Relaxed);
        self.sets.fetch_add(1, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }

    /// How many times [`set`](Self::set) has been called.
    #[inline]
    pub fn samples(&self) -> u64 {
        self.sets.load(Relaxed)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// A named collection of metrics.
///
/// ```
/// use rups_obs::Registry;
///
/// let reg = Registry::new();
/// let hits = reg.counter("rups_core_engine_context_hits");
/// hits.inc();
/// hits.inc();
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("rups_core_engine_context_hits"), Some(2));
/// assert!(snap.to_prometheus().contains("rups_core_engine_context_hits 2"));
/// ```
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, registering a fresh one
    /// on first use. Handles are shared: every caller asking for the same
    /// name increments the same value.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Returns the gauge registered under `name`, registering on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Returns the histogram registered under `name`, registering on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new();
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock poisoned");
        let mut counters: Vec<CounterSample> = inner
            .counters
            .iter()
            .map(|(n, c)| CounterSample {
                name: n.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSample> = inner
            .gauges
            .iter()
            .map(|(n, g)| GaugeSample {
                name: n.clone(),
                value: g.get(),
                samples: g.samples(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSample> =
            inner.histograms.iter().map(|(n, h)| h.sample(n)).collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
    /// How many times the gauge had been set at snapshot time (the merge
    /// weight for fleet-level aggregation).
    pub samples: u64,
}

/// A point-in-time copy of a whole [`Registry`]: the unit every exporter
/// works on. (The serde representation uses sorted vectors of named
/// entries, not maps, so the JSON is stable and diff-friendly.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by name, with quantiles pre-extracted.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The value of one counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of one gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// One histogram sample, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The change since an `earlier` snapshot of the same registry:
    /// counters and histogram buckets subtract (saturating, so a counter
    /// reset in between degrades to 0 rather than wrapping), gauges keep
    /// their current value, and histogram quantiles are recomputed over
    /// only the in-between samples. Metrics registered after `earlier`
    /// appear with their full value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSample {
                    name: c.name.clone(),
                    value: c
                        .value
                        .saturating_sub(earlier.counter(&c.name).unwrap_or(0)),
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| match earlier.histogram(&h.name) {
                    Some(prev) => h.delta(prev),
                    None => h.clone(),
                })
                .collect(),
        }
    }

    /// A copy with the noise removed: zero-valued counters and
    /// never-recorded histograms are dropped, and surviving histograms
    /// clear their bucket vectors (count/sum/quantiles remain). Gauges are
    /// kept as-is — a zero gauge is a reading, not an absence. Intended for
    /// per-window deltas embedded in timelines and flight dumps, where the
    /// full 44-bucket arrays dominate artefact size.
    pub fn compact(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|c| c.value != 0)
                .cloned()
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .filter(|h| h.count != 0)
                .map(|h| {
                    let mut h = h.clone();
                    h.buckets = Vec::new();
                    h
                })
                .collect(),
        }
    }

    /// Prometheus text exposition (version 0.0.4): counters and gauges as
    /// single samples, histograms as cumulative `_bucket{le="…"}` series
    /// plus `_sum`/`_count`. Names are sanitised to the metric-name
    /// alphabet (`[a-zA-Z0-9_:]`, invalid bytes become `_`) and a metric
    /// name is emitted at most once — if sanitisation collides two names,
    /// the first (in sorted snapshot order) wins, keeping the exposition
    /// parseable.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        let claim = |name: &str, seen: &mut Vec<String>| -> Option<String> {
            let clean = sanitize_metric_name(name);
            if seen.iter().any(|s| s == &clean) {
                return None;
            }
            seen.push(clean.clone());
            Some(clean)
        };
        for c in &self.counters {
            let Some(name) = claim(&c.name, &mut seen) else {
                continue;
            };
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        for g in &self.gauges {
            let Some(name) = claim(&g.name, &mut seen) else {
                continue;
            };
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.value);
        }
        for h in &self.histograms {
            let Some(name) = claim(&h.name, &mut seen) else {
                continue;
            };
            let h = HistogramSample {
                name: name.clone(),
                ..h.clone()
            };
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            // A malformed bucket vector has no bounds to label its buckets
            // with; only the totals are exposed.
            let buckets: &[u64] = if h.is_well_shaped() { &h.buckets } else { &[] };
            let mut cum = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{}\"}} {}",
                    h.name,
                    escape_label_value(&bucket_hi(i).to_string()),
                    cum
                );
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
        }
        out
    }
}

/// Escapes a label value per the Prometheus exposition format: `\` becomes
/// `\\`, `"` becomes `\"` and a line feed becomes `\n`. Every emitted
/// label value (including machine-generated ones like fleet node labels)
/// must pass through here so an adversarial or accidental quote cannot
/// break out of the `{label="…"}` frame.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Maps an arbitrary name onto the Prometheus metric-name alphabet:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`, and a
/// leading digit gains a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (ch.is_ascii_digit() && i > 0);
        if ch.is_ascii_digit() && i == 0 {
            out.push('_');
            out.push(ch);
        } else {
            out.push(if ok { ch } else { '_' });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name must share one value");
        assert_eq!(reg.snapshot().counter("c"), Some(3));
        assert_eq!(reg.snapshot().counter("missing"), None);
    }

    #[test]
    fn gauges_hold_last_value_and_count_sets() {
        let reg = Registry::new();
        let g = reg.gauge("rups_test_gauge");
        g.set(2.5);
        g.set(-1.25);
        assert_eq!(g.samples(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("rups_test_gauge"), Some(-1.25));
        let sample = snap.gauges.iter().find(|g| g.name == "rups_test_gauge");
        assert_eq!(sample.map(|g| g.samples), Some(2));
        // A registered-but-never-set gauge reports zero weight.
        reg.gauge("rups_unset");
        let snap = reg.snapshot();
        let unset = snap.gauges.iter().find(|g| g.name == "rups_unset").unwrap();
        assert_eq!((unset.value, unset.samples), (0.0, 0));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z_last").inc();
        reg.counter("a_first").inc();
        reg.histogram("m_hist").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "a_first");
        assert_eq!(snap.counters[1].name, "z_last");
        assert_eq!(snap.histogram("m_hist").unwrap().count, 1);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_new_metrics() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.add(5);
        let before = reg.snapshot();
        c.add(7);
        reg.counter("late").add(3); // registered after `before`
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("c"), Some(7));
        assert_eq!(d.counter("late"), Some(3));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("rups_x_total").add(4);
        reg.gauge("rups_g").set(1.5);
        let h = reg.histogram("rups_h_ns");
        h.record(100);
        h.record(1000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE rups_x_total counter"));
        assert!(text.contains("rups_x_total 4"));
        assert!(text.contains("rups_g 1.5"));
        assert!(text.contains("rups_h_ns_count 2"));
        assert!(text.contains("rups_h_ns_sum 1100"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"));
        // Cumulative buckets: the last finite bucket equals the count.
        assert!(text.contains("rups_h_ns_bucket{le=\"1024\"} 2"));
    }

    #[test]
    fn prometheus_names_are_escaped_and_types_deduped() {
        let reg = Registry::new();
        reg.counter("rups.weird-name").add(1); // '.' and '-' are invalid
        reg.counter("rups_weird_name").add(2); // sanitises to the same name
        reg.gauge("9starts_with_digit").set(0.5);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("rups_weird_name"));
        assert!(!text.contains("rups.weird-name"), "raw name must not leak");
        assert!(text.contains("_9starts_with_digit 0.5"));
        // Exactly one TYPE line per emitted metric name.
        let mut type_names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let total = type_names.len();
        type_names.sort_unstable();
        type_names.dedup();
        assert_eq!(type_names.len(), total, "duplicate TYPE lines: {text}");
        // Every emitted name stays within the exposition alphabet.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "unescaped name in line: {line}"
            );
        }
    }

    /// Inverse of the label-value escapes, for round-trip testing only:
    /// `\\` → `\`, `\n` → line feed, `\"` → `"`.
    fn unescape_exposition(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(ch) = chars.next() {
            if ch != '\\' {
                out.push(ch);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('"') => out.push('"'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn exposition_escaping_round_trips() {
        // Every nasty input must survive escape → unescape unchanged, and
        // the escaped form must be frame-safe (single line, no bare quote).
        let cases = [
            "plain text",
            "back\\slash",
            "line\nbreak",
            "quote \" inside",
            "all \\ of \n them \" at once",
            "trailing backslash \\",
            "\n",
            "",
        ];
        for c in cases {
            let l = escape_label_value(c);
            assert!(!l.contains('\n'), "label must stay one line: {l:?}");
            let mut bare_quote = false;
            let mut prev_backslashes = 0usize;
            for ch in l.chars() {
                if ch == '"' && prev_backslashes.is_multiple_of(2) {
                    bare_quote = true;
                }
                prev_backslashes = if ch == '\\' { prev_backslashes + 1 } else { 0 };
            }
            assert!(!bare_quote, "unescaped quote in label value: {l:?}");
            assert_eq!(unescape_exposition(&l), c, "label round-trip of {c:?}");
        }
    }

    #[test]
    fn delta_degrades_per_histogram_on_shape_mismatch() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.histogram("h_ns").record(100);
        let full = reg.snapshot();
        let compacted = full.compact(); // clears bucket arrays
                                        // A mismatched layout keeps the histogram's full current value.
        let d = full.delta(&compacted);
        assert_eq!(d.counter("c"), Some(0));
        assert_eq!(d.histogram("h_ns").unwrap().count, 1);
        // Matching shapes subtract.
        let ok = full.delta(&full);
        assert_eq!(ok.counter("c"), Some(0));
        assert_eq!(ok.histogram("h_ns").unwrap().count, 0);
    }

    #[test]
    fn compact_drops_zeroes_and_bucket_arrays() {
        let reg = Registry::new();
        reg.counter("live").add(3);
        reg.counter("dead"); // stays at zero
        reg.gauge("g").set(0.0);
        reg.histogram("used_ns").record(100);
        reg.histogram("untouched_ns"); // no samples
        let slim = reg.snapshot().compact();
        assert_eq!(slim.counter("live"), Some(3));
        assert_eq!(slim.counter("dead"), None, "zero counters dropped");
        assert_eq!(slim.gauge("g"), Some(0.0), "gauges survive at zero");
        let h = slim.histogram("used_ns").expect("recorded histogram kept");
        assert_eq!(h.count, 1);
        assert!(h.buckets.is_empty(), "bucket arrays cleared");
        assert!(slim.histogram("untouched_ns").is_none());
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.histogram("h").record(64);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
