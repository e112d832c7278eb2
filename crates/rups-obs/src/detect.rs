//! Online anomaly detection over per-window metric deltas.
//!
//! The passive telemetry stack ([`Registry`] snapshots,
//! [`FleetAggregator`](crate::FleetAggregator) merges, SLO verdicts) only
//! reports what happened; this module watches the per-window delta stream
//! *as it arrives* and raises typed [`Alarm`]s the moment a bound metric
//! departs from its own recent behaviour. Two detector families cover the
//! two failure shapes seen on periodic-broadcast V2V links:
//!
//! - [`DetectorKind::EwmaZScore`] — an exponentially weighted mean plus an
//!   EWMA of absolute residuals (a streaming stand-in for the MAD) yields a
//!   robust z-score; it fires on *level shifts* such as a burst-loss spike
//!   collapsing arrivals within one window.
//! - [`DetectorKind::Cusum`] — a one-sided cumulative sum of normalised
//!   residuals above a slack band; it accumulates small per-window
//!   deviations and fires on *slow drifts* a z-score never sees, such as a
//!   kernel regression inflating p99 latency a few percent per window.
//!
//! Detectors are *declaratively bound* to a [`Signal`] via
//! [`DetectorSpec`]; the signal's own [`Direction`](crate::Direction) says
//! which departures are anomalous. Windows whose reading does not arm at
//! `min_events` neither update the baseline nor fire — an idle window is
//! not evidence.
//! The first `warmup_windows` observed windows train the baseline silently
//! so a clean warmup segment can never false-alarm.
//!
//! ```
//! use rups_obs::{DetectorBank, DetectorSpec, Registry, Signal};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("rups_core_engine_window_hits");
//! let misses = reg.counter("rups_core_engine_window_misses");
//! let mut bank = DetectorBank::new(vec![DetectorSpec::ewma(
//!     "window_hit_rate",
//!     Signal::WindowHitRate,
//!     0.02,
//! )]);
//! let mut prev = reg.snapshot();
//! for window in 0..12 {
//!     // 90% hit rate while healthy, collapsing to zero at window 8.
//!     for k in 0..50u64 {
//!         if window < 8 && k % 10 != 0 {
//!             hits.inc();
//!         } else {
//!             misses.inc();
//!         }
//!     }
//!     let snap = reg.snapshot();
//!     let alarms = bank.observe(window as f64, &snap.delta(&prev));
//!     prev = snap;
//!     assert_eq!(!alarms.is_empty(), window >= 8, "window {window}");
//!     if !alarms.is_empty() {
//!         assert_eq!(alarms[0].detector, "window_hit_rate");
//!         assert_eq!(alarms[0].signal, Signal::WindowHitRate);
//!     }
//! }
//! ```

use crate::registry::{MetricsSnapshot, Registry};
use crate::signal::Signal;
use serde::{Deserialize, Serialize};

/// Counter incremented once per emitted [`Alarm`] when the bank is given a
/// registry via [`DetectorBank::with_registry`].
pub const ALARMS_TOTAL: &str = "rups_obs_alarms_total";

/// Which streaming detector watches the reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Robust z-score against an EWMA baseline: fires on level shifts.
    EwmaZScore,
    /// One-sided cumulative-sum changepoint detector: fires on slow drifts.
    Cusum,
}

/// One detector, declaratively bound to a signal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorSpec {
    /// Detector name carried on every alarm, e.g. `"fix_p99_latency"`.
    pub name: String,
    /// Streaming algorithm watching the reading.
    pub kind: DetectorKind,
    /// The signal watched; its direction is the anomalous one.
    pub signal: Signal,
    /// Minimum events before a window's reading counts at all.
    pub min_events: u64,
    /// Score that fires the alarm: a robust z for
    /// [`DetectorKind::EwmaZScore`], the accumulated sum for
    /// [`DetectorKind::Cusum`].
    pub threshold: f64,
    /// EWMA smoothing factor in `(0, 1]` for the mean/deviation baselines.
    pub alpha: f64,
    /// Armed windows consumed silently before the detector may fire.
    pub warmup_windows: u32,
    /// Absolute floor on the deviation estimate, in reading units. A
    /// deterministic warmup can legitimately have near-zero spread; the
    /// floor keeps a first small wobble from scoring as an infinite z.
    pub min_deviation: f64,
    /// CUSUM slack in normalised-residual units (ignored by EWMA): the
    /// dead band drifts must exceed before they accumulate.
    pub slack: f64,
}

impl DetectorSpec {
    /// EWMA z-score on `signal`, firing on a level shift in its bad
    /// direction; `min_deviation` in the signal's units.
    pub fn ewma(name: &str, signal: Signal, min_deviation: f64) -> Self {
        DetectorSpec {
            name: name.to_string(),
            kind: DetectorKind::EwmaZScore,
            signal,
            min_events: 4,
            threshold: 6.0,
            alpha: 0.3,
            warmup_windows: 3,
            min_deviation,
            slack: 0.5,
        }
    }

    /// CUSUM on `signal`, firing on a drift in its bad direction;
    /// `min_deviation` in the signal's units.
    pub fn cusum(name: &str, signal: Signal, min_deviation: f64) -> Self {
        DetectorSpec {
            kind: DetectorKind::Cusum,
            threshold: 8.0,
            ..DetectorSpec::ewma(name, signal, min_deviation)
        }
    }
}

/// A detection, with enough metadata to localise *when* it happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Name of the firing [`DetectorSpec`].
    pub detector: String,
    /// The signal the detector watches.
    pub signal: Signal,
    /// Algorithm that fired.
    pub kind: DetectorKind,
    /// Harness timestamp of the firing window (as passed to
    /// [`DetectorBank::observe`]).
    pub t_s: f64,
    /// Zero-based index of the firing window in the observed stream.
    pub window_index: u64,
    /// The reading that fired.
    pub value: f64,
    /// The EWMA baseline at firing time.
    pub baseline: f64,
    /// The detector score (robust z or accumulated CUSUM sum).
    pub score: f64,
    /// The configured firing threshold, for context.
    pub threshold: f64,
}

/// Per-detector streaming state.
#[derive(Debug, Clone)]
struct DetectorState {
    /// EWMA of the reading.
    mean: f64,
    /// EWMA of `|reading - mean|` (streaming MAD stand-in).
    dev: f64,
    /// One-sided CUSUM accumulator.
    sum: f64,
    /// Armed windows consumed so far (includes warmup).
    armed_windows: u32,
    /// Whether the EWMAs have been seeded.
    primed: bool,
}

impl DetectorState {
    fn new() -> Self {
        DetectorState {
            mean: 0.0,
            dev: 0.0,
            sum: 0.0,
            armed_windows: 0,
            primed: false,
        }
    }
}

/// A bank of streaming detectors sharing one window stream.
///
/// Feed every aggregation-window delta to [`observe`](Self::observe); the
/// bank advances each bound detector and returns the alarms that fired on
/// that window. Attach a registry with
/// [`with_registry`](Self::with_registry) to count alarms into
/// [`ALARMS_TOTAL`].
#[derive(Debug)]
pub struct DetectorBank {
    specs: Vec<DetectorSpec>,
    states: Vec<DetectorState>,
    windows_seen: u64,
    alarms_total: Option<crate::registry::Counter>,
}

impl DetectorBank {
    /// A bank over the given detector bindings.
    pub fn new(specs: Vec<DetectorSpec>) -> Self {
        let states = specs.iter().map(|_| DetectorState::new()).collect();
        DetectorBank {
            specs,
            states,
            windows_seen: 0,
            alarms_total: None,
        }
    }

    /// Counts every emitted alarm into `registry` as [`ALARMS_TOTAL`].
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.alarms_total = Some(registry.counter(ALARMS_TOTAL));
        self
    }

    /// The detector bindings the bank was built with.
    pub fn specs(&self) -> &[DetectorSpec] {
        &self.specs
    }

    /// Windows observed so far (fired or not).
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Advances every detector over one window delta, returning the alarms
    /// that fired. `t_s` is the harness timestamp stamped onto alarms.
    pub fn observe(&mut self, t_s: f64, delta: &MetricsSnapshot) -> Vec<Alarm> {
        let window_index = self.windows_seen;
        self.windows_seen += 1;
        let mut alarms = Vec::new();
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            let Some(value) = spec
                .signal
                .read_armed(delta, spec.min_events)
                .map(|r| r.value)
                .filter(|v| v.is_finite())
            else {
                continue;
            };
            if !state.primed {
                state.mean = value;
                state.dev = 0.0;
                state.primed = true;
                state.armed_windows = 1;
                continue;
            }
            let residual = value - state.mean;
            // 1.4826 rescales a MAD-like deviation to a Gaussian sigma.
            let sigma = (1.4826 * state.dev).max(spec.min_deviation);
            let directed = spec.signal.direction().badness(residual) / sigma;
            state.armed_windows += 1;
            let warm = state.armed_windows > spec.warmup_windows;
            let fired = match spec.kind {
                DetectorKind::EwmaZScore => warm && directed >= spec.threshold,
                DetectorKind::Cusum => {
                    if warm {
                        state.sum = (state.sum + directed - spec.slack).max(0.0);
                    }
                    state.sum >= spec.threshold
                }
            };
            let score = match spec.kind {
                DetectorKind::EwmaZScore => directed,
                DetectorKind::Cusum => state.sum,
            };
            if fired {
                alarms.push(Alarm {
                    detector: spec.name.clone(),
                    signal: spec.signal,
                    kind: spec.kind,
                    t_s,
                    window_index,
                    value,
                    baseline: state.mean,
                    score,
                    threshold: spec.threshold,
                });
                if let DetectorKind::Cusum = spec.kind {
                    state.sum = 0.0;
                }
                // A firing window is evidence of the fault, not of a new
                // baseline: freeze the EWMAs so a sustained fault keeps
                // scoring against the healthy level.
                continue;
            }
            // Likewise a nonzero CUSUM accumulator is pending drift
            // evidence: training the baseline on it would let the EWMA
            // chase the drift and the sum never reach threshold.
            if spec.kind == DetectorKind::Cusum && state.sum > 0.0 {
                continue;
            }
            state.mean += spec.alpha * residual;
            state.dev += spec.alpha * (residual.abs() - state.dev);
        }
        if let Some(c) = &self.alarms_total {
            c.add(alarms.len() as u64);
        }
        alarms
    }
}

/// The default detector bindings for a RUPS node's window stream: p99
/// query latency (level shift), fix availability (level shift down),
/// inbox rejection rate (drift up) and fuse rejections per solve (drift
/// up).
pub fn default_detectors() -> Vec<DetectorSpec> {
    vec![
        // 0.2 ms: below scheduler noise on a p99.
        DetectorSpec::ewma("fix_p99_latency", Signal::FixP99Latency, 2e5),
        DetectorSpec::ewma("fix_availability", Signal::FixAvailability, 0.02),
        DetectorSpec::cusum(
            "validation_rejection_rate",
            Signal::ValidationRejectionRate,
            0.02,
        ),
        DetectorSpec::cusum("fuse_rejection_rate", Signal::FuseRejectionsPerSolve, 0.02),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGH: &str = "rups_core_quality_grade_high";
    const REJECTED: &str = "rups_core_quality_rejected";

    fn next_delta(reg: &Registry, prev: &mut MetricsSnapshot) -> MetricsSnapshot {
        let snap = reg.snapshot();
        let d = snap.delta(prev);
        *prev = snap;
        d
    }

    #[test]
    fn ewma_fires_on_level_shift_and_not_on_clean_warmup() {
        let reg = Registry::new();
        let (ok, bad) = (reg.counter(HIGH), reg.counter(REJECTED));
        let mut bank = DetectorBank::new(vec![DetectorSpec::ewma(
            "avail",
            Signal::FixAvailability,
            0.02,
        )]);
        let mut prev = reg.snapshot();
        let mut first_fire = None;
        for w in 0..20u64 {
            for k in 0..40u64 {
                // Healthy 0.9 availability with mild wobble, then collapse.
                let healthy = k % 10 != 0 && (k + w) % 17 != 0;
                if w < 12 && healthy {
                    ok.inc();
                } else {
                    bad.inc();
                }
            }
            let alarms = bank.observe(w as f64, &next_delta(&reg, &mut prev));
            if w < 12 {
                assert!(alarms.is_empty(), "false alarm on clean window {w}");
            } else if first_fire.is_none() && !alarms.is_empty() {
                first_fire = Some(w);
                assert_eq!(alarms[0].detector, "avail");
                assert_eq!(alarms[0].signal, Signal::FixAvailability);
                assert_eq!(alarms[0].window_index, w);
                assert!(alarms[0].score >= alarms[0].threshold);
            }
        }
        assert_eq!(first_fire, Some(12), "level shift must fire immediately");
    }

    #[test]
    fn cusum_accumulates_a_slow_drift() {
        let reg = Registry::new();
        let (ok, bad) = (reg.counter(HIGH), reg.counter(REJECTED));
        let mut bank = DetectorBank::new(vec![DetectorSpec::cusum(
            "rej_rate",
            Signal::FixRejectionRate,
            0.02,
        )]);
        let mut prev = reg.snapshot();
        let mut fired_at = None;
        for w in 0..40u64 {
            // 5% baseline; from window 10 drift up 2 points per window —
            // too slow for any single-window z, obvious in accumulation.
            let pct = if w < 10 { 5 } else { 5 + 2 * (w - 10) };
            for k in 0..100u64 {
                if k < pct.min(100) {
                    bad.inc();
                } else {
                    ok.inc();
                }
            }
            let alarms = bank.observe(w as f64, &next_delta(&reg, &mut prev));
            if w < 10 {
                assert!(alarms.is_empty(), "false alarm on clean window {w}");
            }
            if fired_at.is_none() && !alarms.is_empty() {
                assert_eq!(alarms[0].kind, DetectorKind::Cusum);
                fired_at = Some(w);
            }
        }
        let w = fired_at.expect("drift must eventually fire");
        assert!((10..18).contains(&w), "drift detected at window {w}");
    }

    #[test]
    fn histogram_p99_detector_fires_on_slowdown() {
        let reg = Registry::new();
        let lat = reg.histogram("rups_core_engine_query_ns");
        let mut bank =
            DetectorBank::new(vec![DetectorSpec::ewma("p99", Signal::FixP99Latency, 2e5)])
                .with_registry(&reg);
        let mut prev = reg.snapshot();
        let mut fired = None;
        for w in 0..16u64 {
            for k in 0..32u64 {
                // ~1 ms healthy, 20x slowdown from window 10.
                let base = if w < 10 { 1_000_000 } else { 20_000_000 };
                lat.record(base + k * 10_000);
            }
            let alarms = bank.observe(w as f64, &next_delta(&reg, &mut prev));
            if w < 10 {
                assert!(alarms.is_empty(), "false alarm on window {w}");
            } else if fired.is_none() && !alarms.is_empty() {
                fired = Some(w);
            }
        }
        assert_eq!(fired, Some(10));
        // Baselines freeze on firing windows, so the sustained fault
        // re-alarms on every one of the six degraded windows.
        assert_eq!(reg.snapshot().counter(ALARMS_TOTAL), Some(6));
    }

    #[test]
    fn under_armed_windows_neither_fire_nor_train() {
        let reg = Registry::new();
        let (ok, bad) = (reg.counter(HIGH), reg.counter(REJECTED));
        let mut spec = DetectorSpec::ewma("avail", Signal::FixAvailability, 0.02);
        spec.min_events = 50;
        let mut bank = DetectorBank::new(vec![spec]);
        let mut prev = reg.snapshot();
        // Ten windows of 10 failed fixes each: all below min_events.
        for w in 0..10u64 {
            bad.add(10);
            let alarms = bank.observe(w as f64, &next_delta(&reg, &mut prev));
            assert!(alarms.is_empty());
        }
        // A full-availability window with enough events cannot fire either:
        // the baseline was never primed, so this window primes it instead.
        ok.add(60);
        assert!(bank.observe(10.0, &next_delta(&reg, &mut prev)).is_empty());
        assert_eq!(bank.windows_seen(), 11);
    }

    #[test]
    fn default_bindings_cover_the_four_slo_axes() {
        let specs = default_detectors();
        let bound: Vec<(&str, Signal)> =
            specs.iter().map(|s| (s.name.as_str(), s.signal)).collect();
        assert_eq!(
            bound,
            [
                ("fix_p99_latency", Signal::FixP99Latency),
                ("fix_availability", Signal::FixAvailability),
                ("validation_rejection_rate", Signal::ValidationRejectionRate),
                ("fuse_rejection_rate", Signal::FuseRejectionsPerSolve),
            ]
        );
        assert!(specs
            .iter()
            .all(|s| s.threshold > 0.0 && s.alpha > 0.0 && s.alpha <= 1.0));
    }

    #[test]
    fn alarm_round_trips_through_json() {
        let a = Alarm {
            detector: "fix_p99_latency".into(),
            signal: Signal::FixP99Latency,
            kind: DetectorKind::EwmaZScore,
            t_s: 120.0,
            window_index: 7,
            value: 2.5e8,
            baseline: 1.1e6,
            score: 11.0,
            threshold: 6.0,
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: Alarm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
