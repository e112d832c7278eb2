//! Fixed-bucket log₂-scale histograms for latency (and other positive
//! integer) samples.
//!
//! The record path is allocation-free and lock-free: a sample lands in one
//! of [`N_BUCKETS`] power-of-two buckets with three relaxed atomic
//! increments (bucket, count, sum). Bucket `i` covers `[2^i, 2^(i+1))`
//! nanoseconds (bucket 0 additionally absorbs 0 and 1); the top bucket
//! saturates, absorbing every sample at or above [`TOP_BUCKET_LO`]. With 44
//! buckets the range spans 1 ns to ≈4.9 hours — comfortably wider than any
//! latency this workspace measures.
//!
//! Quantiles (p50/p95/p99) are extracted from a [`HistogramSample`]
//! snapshot by walking the cumulative bucket counts and interpolating
//! linearly inside the target bucket, so they are deterministic functions
//! of the bucket contents.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Number of log₂ buckets per histogram.
pub const N_BUCKETS: usize = 44;

/// Lower bound of the saturating top bucket (`2^(N_BUCKETS-1)` ns ≈ 2.4 h).
pub const TOP_BUCKET_LO: u64 = 1 << (N_BUCKETS - 1);

/// The bucket a value lands in: `floor(log₂ v)` clamped to the bucket
/// range; 0 and 1 share bucket 0, anything ≥ [`TOP_BUCKET_LO`] saturates
/// into the top bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    ((63 - v.leading_zeros()) as usize).min(N_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0).
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1 << i
    }
}

/// Exclusive upper bound of bucket `i`. The top bucket reports `2^N_BUCKETS`
/// so interpolation stays finite even though it absorbs every larger value.
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    1 << (i + 1)
}

pub(crate) struct HistInner {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistInner {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A cheap-to-clone handle to one histogram. Cloning shares the underlying
/// buckets; recording through any clone is visible to all.
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.0.count.load(Relaxed))
            .field("sum", &self.0.sum.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// A standalone (unregistered) histogram. Registered ones come from
    /// [`crate::registry::Registry::histogram`].
    pub fn new() -> Self {
        Histogram(Arc::new(HistInner::new()))
    }

    /// Records one sample. Allocation-free: three relaxed atomic adds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.0.count.fetch_add(1, Relaxed);
        self.0.sum.fetch_add(v, Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Starts a wall-clock timer that records the elapsed nanoseconds into
    /// this histogram when dropped. With the `obs` feature disabled this is
    /// a no-op that never reads the clock.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer::start(self)
    }

    /// An immutable snapshot of the bucket contents (quantiles included),
    /// tagged with `name`.
    pub fn sample(&self, name: &str) -> HistogramSample {
        let buckets: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSample::from_buckets(
            name.to_string(),
            self.0.count.load(Relaxed),
            self.0.sum.load(Relaxed),
            buckets,
        )
    }
}

/// Guard recording elapsed wall-clock nanoseconds into a [`Histogram`] on
/// drop. Zero-sized and inert when the `obs` feature is disabled.
#[must_use = "a dropped timer records immediately; bind it to a variable"]
pub struct Timer {
    #[cfg(feature = "obs")]
    hist: Histogram,
    #[cfg(feature = "obs")]
    start: std::time::Instant,
}

impl Timer {
    #[inline]
    fn start(hist: &Histogram) -> Self {
        #[cfg(feature = "obs")]
        {
            Timer {
                hist: hist.clone(),
                start: std::time::Instant::now(),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = hist;
            Timer {}
        }
    }
}

#[cfg(feature = "obs")]
impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// Two histogram samples disagreed about their bucket layout, or share one
/// that is neither empty (compacted) nor [`N_BUCKETS`] long: subtracting
/// or merging them bucket-by-bucket would misattribute counts or read
/// past the last bucket, so the shape-checked operations
/// ([`HistogramSample::try_delta`], [`HistogramSample::try_merge`]) refuse
/// with this error instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeMismatch {
    /// Name of the histogram whose shapes disagreed.
    pub name: String,
    /// Bucket count of the left-hand sample.
    pub expected: usize,
    /// Bucket count of the right-hand sample.
    pub got: usize,
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "histogram {:?}: bucket shape mismatch ({} vs {})",
            self.name, self.expected, self.got
        )
    }
}

impl std::error::Error for ShapeMismatch {}

/// A named point-in-time copy of one histogram: raw bucket counts plus the
/// quantiles extracted from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Registered metric name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values (ns for latency histograms).
    pub sum: u64,
    /// Median, interpolated (0 when empty).
    pub p50: f64,
    /// 95th percentile, interpolated (0 when empty).
    pub p95: f64,
    /// 99th percentile, interpolated (0 when empty).
    pub p99: f64,
    /// Per-bucket counts, [`N_BUCKETS`] entries (or none once
    /// [`compact`]ed); bucket `i` covers `[bucket_lo(i), bucket_hi(i))`.
    ///
    /// [`compact`]: crate::registry::MetricsSnapshot::compact
    pub buckets: Vec<u64>,
}

impl HistogramSample {
    /// Builds a sample from raw bucket counts, extracting the standard
    /// quantiles. An empty bucket vector (the [`compact`]ed form, counts
    /// and sum only) is accepted; its quantiles degrade to 0.
    ///
    /// [`compact`]: crate::registry::MetricsSnapshot::compact
    pub fn from_buckets(name: String, count: u64, sum: u64, buckets: Vec<u64>) -> Self {
        let q = |p| quantile_of(&buckets, count, p).unwrap_or(0.0);
        HistogramSample {
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            name,
            count,
            sum,
            buckets,
        }
    }

    /// Interpolated quantile (`q` in `(0, 1]`); `None` on an empty
    /// histogram or one without [`N_BUCKETS`] buckets (compacted or
    /// malformed).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_of(&self.buckets, self.count, q)
    }

    /// Whether the bucket vector has a shape this crate can read: empty
    /// (compacted) or exactly [`N_BUCKETS`] long.
    pub(crate) fn is_well_shaped(&self) -> bool {
        self.buckets.is_empty() || self.buckets.len() == N_BUCKETS
    }

    /// The shape gate of [`try_delta`](Self::try_delta) and
    /// [`try_merge`](Self::try_merge): both samples must share one
    /// well-shaped bucket layout.
    fn check_shape(&self, other: &HistogramSample) -> Result<(), ShapeMismatch> {
        if self.buckets.len() == other.buckets.len() && self.is_well_shaped() {
            Ok(())
        } else {
            Err(ShapeMismatch {
                name: self.name.clone(),
                expected: self.buckets.len(),
                got: other.buckets.len(),
            })
        }
    }

    /// Mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The change since an `earlier` sample of the same histogram:
    /// bucket-wise saturating difference with quantiles recomputed over the
    /// difference, i.e. the distribution of only the samples recorded in
    /// between.
    ///
    /// Infallible convenience over [`try_delta`](Self::try_delta): a bucket
    /// shape mismatch degrades to the full current sample (as if `earlier`
    /// were from before the histogram existed) rather than misattributing
    /// counts across differently-shaped buckets.
    pub fn delta(&self, earlier: &HistogramSample) -> HistogramSample {
        self.try_delta(earlier).unwrap_or_else(|_| self.clone())
    }

    /// Shape-checked [`delta`](Self::delta): errors when the two samples
    /// disagree about their bucket count, or share a malformed one, instead
    /// of guessing an alignment.
    ///
    /// A *counter reset* in between (any bucket or the total count shrank —
    /// the histogram was replaced or zeroed) cannot yield a meaningful
    /// difference; per Prometheus reset semantics the delta degrades to the
    /// full current sample. Ordinary in-between recording only ever grows
    /// buckets, so this never triggers on live data.
    pub fn try_delta(&self, earlier: &HistogramSample) -> Result<HistogramSample, ShapeMismatch> {
        self.check_shape(earlier)?;
        let reset = self.count < earlier.count
            || self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .any(|(now, then)| now < then);
        if reset {
            return Ok(self.clone());
        }
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        Ok(HistogramSample::from_buckets(
            self.name.clone(),
            self.count.saturating_sub(earlier.count),
            self.sum.saturating_sub(earlier.sum),
            buckets,
        ))
    }

    /// Merges another sample of the *same-shaped* histogram into this one
    /// (bucket-wise saturating sum, quantiles recomputed over the union) —
    /// the primitive fleet aggregation is built on. The merged sample keeps
    /// this sample's name. Errors on a bucket-count mismatch or a malformed
    /// shared one.
    pub fn try_merge(&self, other: &HistogramSample) -> Result<HistogramSample, ShapeMismatch> {
        self.check_shape(other)?;
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(other.buckets.iter())
            .map(|(a, b)| a.saturating_add(*b))
            .collect();
        Ok(HistogramSample::from_buckets(
            self.name.clone(),
            self.count.saturating_add(other.count),
            self.sum.saturating_add(other.sum),
            buckets,
        ))
    }
}

/// Shared quantile walk: find the bucket holding the `ceil(q·count)`-th
/// sample and interpolate linearly within it. Only a full [`N_BUCKETS`]
/// vector has bucket bounds to interpolate in.
fn quantile_of(buckets: &[u64], count: u64, q: f64) -> Option<f64> {
    if count == 0 || buckets.len() != N_BUCKETS {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c >= target {
            let lo = bucket_lo(i) as f64;
            let hi = bucket_hi(i) as f64;
            let frac = (target - cum) as f64 / c as f64;
            return Some(lo + (hi - lo) * frac);
        }
        cum += c;
    }
    // Unreachable when bucket counts are consistent with `count`; fall back
    // to the top bucket's upper bound.
    Some(bucket_hi(N_BUCKETS - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // 0 and 1 share bucket 0; powers of two open a new bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 10);
        // Every bucket's bounds contain exactly its own values.
        for i in 1..N_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i) - 1), i, "hi-1 of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i + 1, "hi of bucket {i}");
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record(TOP_BUCKET_LO); // exactly at the top bucket's lower bound
        h.record(u64::MAX); // astronomically beyond the range
        let s = h.sample("t");
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[N_BUCKETS - 1], 2, "both saturate into the top");
        assert_eq!(s.buckets.iter().sum::<u64>(), 2);
        // Quantiles stay finite despite the saturated samples.
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99.is_finite());
        assert!(p99 <= bucket_hi(N_BUCKETS - 1) as f64);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_none() {
        let s = Histogram::new().sample("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        // The convenience fields degrade to 0 rather than NaN.
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p95, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn quantiles_on_single_sample_land_in_its_bucket() {
        let h = Histogram::new();
        h.record(1000); // bucket 9: [512, 1024)
        let s = h.sample("one");
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!(
                (512.0..=1024.0).contains(&v),
                "q{q} escaped the sample's bucket: {v}"
            );
        }
        assert_eq!(s.mean(), Some(1000.0));
    }

    #[test]
    fn quantiles_interpolate_monotonically() {
        let h = Histogram::new();
        for v in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            h.record(v);
        }
        let s = h.sample("spread");
        let p50 = s.quantile(0.50).unwrap();
        let p95 = s.quantile(0.95).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // The median of 10 log-spaced samples sits around the 5th value.
        assert!((64.0..=256.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= 4096.0, "p99 {p99}");
    }

    #[test]
    fn delta_isolates_the_new_samples() {
        let h = Histogram::new();
        h.record(100);
        h.record(100);
        let before = h.sample("d");
        for _ in 0..98 {
            h.record(1_000_000);
        }
        let after = h.sample("d");
        let d = after.delta(&before);
        assert_eq!(d.count, 98);
        assert_eq!(d.sum, 98 * 1_000_000);
        // All delta samples live in one bucket; the old ones vanished.
        assert_eq!(d.buckets[bucket_index(100)], 0);
        assert_eq!(d.buckets[bucket_index(1_000_000)], 98);
        let p50 = d.quantile(0.5).unwrap();
        assert!((bucket_lo(bucket_index(1_000_000)) as f64
            ..=bucket_hi(bucket_index(1_000_000)) as f64)
            .contains(&p50));
    }

    /// Builds a sample with `v` recorded `n` times per `(v, n)` pair.
    fn sample_of(name: &str, pairs: &[(u64, u64)]) -> HistogramSample {
        let h = Histogram::new();
        for &(v, n) in pairs {
            for _ in 0..n {
                h.record(v);
            }
        }
        h.sample(name)
    }

    #[test]
    fn try_delta_and_merge_table() {
        let empty = sample_of("t", &[]);
        let two = sample_of("t", &[(100, 2)]);
        let five = sample_of("t", &[(100, 2), (4000, 3)]);
        let compacted = HistogramSample {
            buckets: Vec::new(),
            ..five.clone()
        };
        struct Case {
            what: &'static str,
            now: HistogramSample,
            then: HistogramSample,
            delta_count: Option<u64>, // None → expect ShapeMismatch
        }
        let cases = [
            Case {
                what: "normal growth isolates new samples",
                now: five.clone(),
                then: two.clone(),
                delta_count: Some(3),
            },
            Case {
                what: "no growth yields an empty delta",
                now: two.clone(),
                then: two.clone(),
                delta_count: Some(0),
            },
            Case {
                what: "counter reset degrades to the full current sample",
                now: two.clone(),
                then: five.clone(),
                delta_count: Some(2),
            },
            Case {
                what: "both empty-shaped (compacted) samples subtract",
                now: compacted.clone(),
                then: compacted.clone(),
                delta_count: Some(0),
            },
            Case {
                what: "full vs compacted shape is a typed error",
                now: five.clone(),
                then: compacted.clone(),
                delta_count: None,
            },
            Case {
                what: "compacted vs full shape is a typed error",
                now: compacted.clone(),
                then: five.clone(),
                delta_count: None,
            },
        ];
        for c in &cases {
            match (c.now.try_delta(&c.then), c.delta_count) {
                (Ok(d), Some(want)) => {
                    assert_eq!(d.count, want, "{}", c.what);
                    assert_eq!(
                        d.buckets.iter().sum::<u64>(),
                        if d.buckets.is_empty() { 0 } else { want },
                        "{}: bucket mass must match the count",
                        c.what
                    );
                }
                (Err(e), None) => {
                    assert_eq!(e.name, "t", "{}", c.what);
                    assert_ne!(e.expected, e.got, "{}", c.what);
                }
                (got, want) => panic!("{}: got {:?}, wanted count {:?}", c.what, got, want),
            }
            // The infallible wrapper never misattributes: on mismatch it
            // returns the full current sample.
            let d = c.now.delta(&c.then);
            if c.delta_count.is_none() {
                assert_eq!(d, c.now, "{}: fallback must be the current sample", c.what);
            }
        }
        // A cross-node bucket shrink (not a uniform reset) is also a reset.
        let shifted = sample_of("t", &[(100, 1), (4000, 4)]); // same count, moved mass
        assert_eq!(five.try_delta(&shifted).unwrap(), five);

        // Merge: counts, sums and bucket mass add; mismatched shapes error.
        let m = two.try_merge(&five).unwrap();
        assert_eq!(m.count, 7);
        assert_eq!(m.sum, two.sum + five.sum);
        assert_eq!(m.buckets.iter().sum::<u64>(), 7);
        assert_eq!(m.buckets[bucket_index(100)], 4);
        assert_eq!(m.buckets[bucket_index(4000)], 3);
        assert!(m.quantile(0.99).unwrap() >= 2048.0);
        assert!(five.try_merge(&compacted).is_err());
        assert_eq!(empty.try_merge(&five).unwrap().count, 5);
        let e = compacted.try_merge(&five).unwrap_err();
        assert_eq!((e.expected, e.got), (0, N_BUCKETS));
        assert!(e.to_string().contains("shape mismatch"), "{e}");
    }

    #[test]
    fn malformed_bucket_shapes_are_rejected_not_read() {
        // Deserialised samples are the way bad shapes arrive.
        let sample = |n_buckets: usize, at: usize, count: u64| -> HistogramSample {
            let mut buckets = vec![0u64; n_buckets];
            buckets[at] = count;
            let json = format!(
                r#"{{"name":"h","count":{count},"sum":{count},"p50":0,"p95":0,"p99":0,"buckets":{buckets:?}}}"#
            );
            serde_json::from_str(&json).unwrap()
        };
        // 70 buckets with the mass past the top: no quantile, no panic.
        let long = sample(70, 66, 1);
        assert!(!long.is_well_shaped());
        assert_eq!(long.quantile(0.99), None);
        // Two 50-bucket samples agree with each other but not with the
        // layout: delta and merge refuse instead of reading past bucket 43.
        let (now, then) = (sample(50, 48, 3), sample(50, 48, 1));
        let err = now.try_delta(&then).unwrap_err();
        assert_eq!((err.name.as_str(), err.expected, err.got), ("h", 50, 50));
        assert!(now.try_merge(&then).is_err());
        assert!(long.try_merge(&long).is_err());
        let snap = |h: &HistogramSample| crate::registry::MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![h.clone()],
        };
        // The exposition keeps the totals and labels no bucket it cannot
        // bound.
        let text = snap(&long).to_prometheus();
        assert!(text.contains("h_count 1"), "{text}");
        assert_eq!(text.matches("_bucket{").count(), 1, "only +Inf: {text}");
        // The infallible delta degrades to the current sample unchanged.
        let d = snap(&now).delta(&snap(&then));
        assert_eq!(d.histograms[0], now);
        assert!(d.histograms[0].p99 <= bucket_hi(N_BUCKETS - 1) as f64);
        // Building from a malformed vector yields zero quantiles.
        let built = HistogramSample::from_buckets("h".into(), 1, 1, long.buckets.clone());
        assert_eq!((built.p50, built.p95, built.p99), (0.0, 0.0, 0.0));
    }

    #[test]
    fn timer_records_when_obs_enabled() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
            std::hint::black_box((0..100).sum::<u64>());
        }
        #[cfg(feature = "obs")]
        assert_eq!(h.count(), 1);
        #[cfg(not(feature = "obs"))]
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.sample("mt");
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
    }
}
