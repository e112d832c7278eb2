//! Declarative service-level objectives evaluated from telemetry alone.
//!
//! An [`SloSpec`] names one objective over a [`Signal`]: the signal must
//! stay on the good side of a threshold — below it for signals that
//! degrade upwards (latency, rejection rates), above it for those that
//! degrade downwards (availability) — or, with a burn objective, no window
//! may burn error budget faster than the threshold. [`evaluate_slos`]
//! checks a whole spec set against a cumulative [`MetricsSnapshot`] plus
//! the per-window deltas of the run's timeline, producing a
//! machine-readable [`SloVerdict`]. Nothing here looks at ground truth: a
//! soak harness or CI gate passes or fails purely on what the registries
//! observed, which is exactly the discipline a production fleet would run
//! under.
//!
//! Burn rate follows the SRE convention: with availability objective `o`,
//! a window whose failure ratio is `f` burns budget at rate `f / (1 - o)`
//! (rate 1 = exactly exhausting the budget over the period). A burn
//! objective caps the *worst* armed window, catching short bursts a
//! run-wide average would hide.

use crate::registry::MetricsSnapshot;
use crate::signal::Signal;
use serde::{Deserialize, Serialize};

/// A named objective over one signal plus its arming gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Objective name, stamped on the report.
    pub name: String,
    /// The signal the objective reads.
    pub signal: Signal,
    /// The last acceptable value: the cumulative reading, or with a burn
    /// objective every armed window's burn rate, must not be worse.
    pub threshold: f64,
    /// Minimum events (see [`Reading::arms`](crate::Reading::arms)) before
    /// the objective arms — per window under a burn objective.
    /// Under-armed objectives pass vacuously so short smoke runs don't
    /// fail on noise.
    pub min_events: u64,
    /// `Some(o)`: judge every window's failure ratio (the signal, which
    /// must degrade upwards) as a burn rate against availability objective
    /// `o` in (0, 1), instead of the cumulative reading.
    pub burn_objective: Option<f64>,
}

impl SloSpec {
    /// An objective on the cumulative reading of `signal`.
    pub fn new(name: &str, signal: Signal, threshold: f64, min_events: u64) -> Self {
        SloSpec {
            name: name.to_string(),
            signal,
            threshold,
            min_events,
            burn_objective: None,
        }
    }

    /// A per-window burn-rate ceiling on failure ratio `signal` against
    /// availability objective `objective`.
    pub fn burn_rate(
        name: &str,
        signal: Signal,
        objective: f64,
        max_burn: f64,
        min_events: u64,
    ) -> Self {
        SloSpec {
            burn_objective: Some(objective),
            ..SloSpec::new(name, signal, max_burn, min_events)
        }
    }
}

/// The outcome of one spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Spec name.
    pub name: String,
    /// The signal the spec read.
    pub signal: Signal,
    /// Whether the objective held (true when never armed).
    pub pass: bool,
    /// The observed value compared against the threshold (0 when never
    /// armed).
    pub observed: f64,
    /// The threshold from the spec.
    pub threshold: f64,
    /// Events backing the observation (0 when never armed).
    pub events: u64,
    /// Whether the objective saw enough events to arm.
    pub armed: bool,
}

/// The outcome of a whole spec set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// True when every report passed.
    pub pass: bool,
    /// One report per spec, in spec order.
    pub reports: Vec<SloReport>,
}

/// Evaluates `specs` against the run's cumulative snapshot and its
/// per-window deltas (`windows` may be empty; burn objectives then never
/// arm).
pub fn evaluate_slos(
    specs: &[SloSpec],
    cumulative: &MetricsSnapshot,
    windows: &[MetricsSnapshot],
) -> SloVerdict {
    let reports: Vec<SloReport> = specs
        .iter()
        .map(|spec| {
            // (observed, events), when armed.
            let observation = match spec.burn_objective {
                None => spec
                    .signal
                    .read_armed(cumulative, spec.min_events)
                    .map(|r| (r.value, r.events)),
                Some(objective) => {
                    let budget = (1.0 - objective).max(1e-9);
                    let armed: Vec<_> = windows
                        .iter()
                        .filter_map(|w| spec.signal.read_armed(w, spec.min_events))
                        .collect();
                    (!armed.is_empty()).then(|| {
                        armed.iter().fold((0.0f64, 0u64), |(worst, events), r| {
                            (worst.max(r.value / budget), events + r.events)
                        })
                    })
                }
            };
            let dir = spec.signal.direction();
            let (observed, events) = observation.unwrap_or((0.0, 0));
            SloReport {
                name: spec.name.clone(),
                signal: spec.signal,
                pass: observation.is_none() || dir.badness(observed) <= dir.badness(spec.threshold),
                observed,
                threshold: spec.threshold,
                events,
                armed: observation.is_some(),
            }
        })
        .collect();
    SloVerdict {
        pass: reports.iter().all(|r| r.pass),
        reports,
    }
}

/// The RUPS fleet's default objectives: engine-query p99 under
/// `p99_max_ns`, fix availability of at least 85 %, inbox
/// validation-rejection rate at most 25 %, and no window burning error
/// budget faster than 6× against an 85 % objective.
pub fn default_slos(p99_max_ns: f64) -> Vec<SloSpec> {
    vec![
        SloSpec::new("fix_p99_latency", Signal::FixP99Latency, p99_max_ns, 16),
        SloSpec::new("fix_availability", Signal::FixAvailability, 0.85, 16),
        SloSpec::new(
            "validation_rejection_rate",
            Signal::ValidationRejectionRate,
            0.25,
            16,
        ),
        SloSpec::burn_rate("error_budget_burn", Signal::FixRejectionRate, 0.85, 6.0, 8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::signal::INBOX_REJECTED;

    const OK: &str = "rups_core_quality_grade_high";
    const BAD: &str = "rups_core_quality_rejected";

    fn snap(pairs: &[(&str, u64)], latencies: &[u64]) -> MetricsSnapshot {
        let reg = Registry::new();
        for (n, v) in pairs {
            reg.counter(n).add(*v);
        }
        let h = reg.histogram("rups_core_engine_query_ns");
        for &v in latencies {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn p99_objective_passes_and_fails_on_the_tail() {
        let fast = snap(&[], &[1_000; 32]);
        let spec = vec![SloSpec::new("lat", Signal::FixP99Latency, 10_000.0, 16)];
        let v = evaluate_slos(&spec, &fast, &[]);
        assert!(v.pass, "{:?}", v.reports);
        assert!(v.reports[0].armed);
        let mut slow_samples = vec![1_000u64; 31];
        slow_samples.push(50_000_000);
        let slow = snap(&[], &slow_samples);
        let v = evaluate_slos(&spec, &slow, &[]);
        assert!(!v.pass);
        assert!(v.reports[0].observed > 10_000.0);
    }

    #[test]
    fn ratio_floors_and_ceilings() {
        let good = snap(&[(OK, 90), (BAD, 10)], &[]);
        let specs = vec![
            SloSpec::new("avail", Signal::FixAvailability, 0.85, 10),
            SloSpec::new("rejects", Signal::FixRejectionRate, 0.15, 10),
        ];
        let v = evaluate_slos(&specs, &good, &[]);
        assert!(v.pass, "{:?}", v.reports);
        let degraded = snap(&[(OK, 60), (BAD, 40)], &[]);
        let v = evaluate_slos(&specs, &degraded, &[]);
        assert!(!v.pass);
        assert!(!v.reports[0].pass, "availability floor broken");
        assert!(!v.reports[1].pass, "rejection ceiling broken");
        // The threshold is the last acceptable value on either side.
        let edge = snap(&[(OK, 85), (BAD, 15)], &[]);
        let v = evaluate_slos(&specs, &edge, &[]);
        assert!(v.pass, "{:?}", v.reports);
    }

    #[test]
    fn under_armed_objectives_pass_vacuously() {
        let tiny = snap(&[(OK, 2), (BAD, 1)], &[500]);
        let specs = vec![
            // Would fail if armed: 2/3 < 0.99.
            SloSpec::new("avail", Signal::FixAvailability, 0.99, 16),
            // Would fail if armed: one 500 ns sample vs a 1 ns ceiling.
            SloSpec::new("lat", Signal::FixP99Latency, 1.0, 16),
            // No solves: a zero denominator never arms.
            SloSpec::new("fuse", Signal::FuseRejectionsPerSolve, 0.0, 1),
        ];
        let v = evaluate_slos(&specs, &tiny, &[]);
        assert!(v.pass, "{:?}", v.reports);
        assert!(v.reports.iter().all(|r| !r.armed));
        assert!(v.reports.iter().all(|r| r.events == 0));
    }

    #[test]
    fn burn_rate_caps_the_worst_window() {
        // Objective 0.9 → budget 0.1. Window A burns at 0.5 (5% bad),
        // window B at 4.0 (40% bad). Ceiling 3.0 must fail on B alone.
        let w_a = snap(&[(BAD, 5), (OK, 95)], &[]);
        let w_b = snap(&[(BAD, 40), (OK, 60)], &[]);
        let spec = |max_burn: f64| {
            vec![SloSpec::burn_rate(
                "burn",
                Signal::FixRejectionRate,
                0.9,
                max_burn,
                50,
            )]
        };
        let cum = snap(&[], &[]);
        let v = evaluate_slos(&spec(3.0), &cum, &[w_a.clone(), w_b.clone()]);
        assert!(!v.pass);
        assert!((v.reports[0].observed - 4.0).abs() < 1e-9);
        assert_eq!(v.reports[0].events, 200);
        let v = evaluate_slos(&spec(5.0), &cum, &[w_a.clone(), w_b.clone()]);
        assert!(v.pass, "{:?}", v.reports);
        // Small windows below min_events never arm the objective.
        let w_small = snap(&[(BAD, 10)], &[]);
        let v = evaluate_slos(&spec(0.1), &cum, &[w_small]);
        assert!(v.pass);
        assert!(!v.reports[0].armed);
    }

    #[test]
    fn default_slos_pass_on_a_healthy_run_and_serialize() {
        let healthy = {
            let reg = Registry::new();
            reg.counter("rups_core_quality_grade_high").add(80);
            reg.counter("rups_core_quality_grade_medium").add(15);
            reg.counter("rups_core_quality_rejected").add(5);
            reg.counter("rups_core_inbox_accepted").add(95);
            reg.counter(INBOX_REJECTED[3]).add(5);
            let h = reg.histogram("rups_core_engine_query_ns");
            for _ in 0..100 {
                h.record(2_000_000);
            }
            reg.snapshot()
        };
        let specs = default_slos(250e6);
        let v = evaluate_slos(&specs, &healthy, std::slice::from_ref(&healthy));
        assert!(v.pass, "{:?}", v.reports);
        assert!(v.reports.iter().all(|r| r.armed));
        assert_eq!(v.reports.len(), specs.len());
        for (r, s) in v.reports.iter().zip(&specs) {
            assert_eq!(r.signal, s.signal, "{} names its signal", r.name);
        }
        let json = serde_json::to_string(&v).unwrap();
        let back: SloVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        let spec_json = serde_json::to_string(&specs).unwrap();
        let spec_back: Vec<SloSpec> = serde_json::from_str(&spec_json).unwrap();
        assert_eq!(spec_back, specs);
    }
}
