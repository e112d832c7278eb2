//! The signal vocabulary: every quantity the rule layers read, defined
//! once.
//!
//! A [`Signal`] is one number a [`MetricsSnapshot`] (a window delta or a
//! cumulative snapshot) yields: a metric selector plus a reduction — a
//! counter sum, a counter ratio, a histogram p99 or a gauge. Threshold
//! checks ([`SloSpec`](crate::SloSpec), [`TriggerRule`](crate::TriggerRule)),
//! streaming detectors ([`DetectorSpec`](crate::DetectorSpec)), worst-node
//! rankings ([`Criterion`](crate::Criterion)) and diagnosis stage evidence
//! ([`Stage::signal`](crate::Stage::signal)) all read metrics through
//! [`Signal::read`], and every verdict they emit records the signal it
//! read, so an SLO report, a flight trigger, an alarm and a ranking over
//! the same quantity point at each other.
//!
//! Three rules hold for every signal:
//!
//! - counters absent from the snapshot read as 0 (a compacted delta drops
//!   zero counters, so absence *is* zero);
//! - a ratio with a zero denominator, an absent or empty histogram, and an
//!   absent or non-finite gauge give no reading;
//! - a reading arms a consumer once it rests on at least `min_events`
//!   events ([`Reading::arms`]).
//!
//! Each signal also has a [`Direction`] — the way it moves when the
//! pipeline degrades — so no consumer spells out which side of its
//! threshold is bad.
//!
//! ```
//! use rups_obs::{Registry, Signal};
//!
//! let reg = Registry::new();
//! reg.counter("rups_core_quality_grade_high").add(3);
//! reg.counter("rups_core_quality_rejected").add(1);
//! let r = Signal::FixRejectionRate.read(&reg.snapshot()).unwrap();
//! assert_eq!((r.value, r.events), (0.25, 4));
//! assert!(r.arms(4) && !r.arms(5));
//! ```

use crate::registry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Gauge a fleet harness sets per node to its mean absolute fix error,
/// metres.
pub const FIX_ERROR_GAUGE: &str = "rups_node_fix_error_m";

/// Gauge a fleet harness sets per node to its estimated clock offset
/// against the fleet timebase, nanoseconds. A jump in it localises a
/// clock fault to the node's beacon stage (its broadcasts carry the bad
/// timestamps).
pub const CLOCK_OFFSET_GAUGE: &str = "rups_node_clock_offset_ns";

/// Fix attempts the quality layer assessed: graded High/Medium/Low, then
/// rejected.
const ASSESSED: &[&str] = &[
    "rups_core_quality_grade_high",
    "rups_core_quality_grade_medium",
    "rups_core_quality_grade_low",
    "rups_core_quality_rejected",
];
const GRADED: &[&str] = ASSESSED.split_at(3).0;
const REJECTED: &[&str] = ASSESSED.split_at(3).1;

/// Snapshots arriving at an inbox: the four validation rejections, then
/// the admitted and the outdated ones.
const INBOX_ARRIVALS: &[&str] = &[
    "rups_core_inbox_rejected_malformed",
    "rups_core_inbox_rejected_channel_mismatch",
    "rups_core_inbox_rejected_undersized",
    "rups_core_inbox_rejected_stale",
    "rups_core_inbox_accepted",
    "rups_core_inbox_ignored_outdated",
];
pub(crate) const INBOX_REJECTED: &[&str] = INBOX_ARRIVALS.split_at(4).0;

/// The engine's checking-window memo lookups: hits, then misses.
const WINDOW_LOOKUPS: &[&str] = &[
    "rups_core_engine_window_hits",
    "rups_core_engine_window_misses",
];
const WINDOW_HITS: &[&str] = WINDOW_LOOKUPS.split_at(1).0;

/// The closed vocabulary of quantities the rule layers read. Each variant
/// documents its metrics and reduction; [`read`](Self::read) is the only
/// place they are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// p99 of `rups_core_engine_query_ns`, ns, as stored in the sample
    /// (compacted deltas keep it); events = samples.
    FixP99Latency,
    /// Graded fixes (High + Medium + Low) over assessed fixes (graded +
    /// rejected).
    FixAvailability,
    /// Rejected fixes over assessed fixes (graded + rejected).
    FixRejectionRate,
    /// Inbox validation rejections (malformed, channel mismatch,
    /// undersized, stale) as a count.
    ValidationRejections,
    /// Inbox validation rejections over inbox arrivals.
    ValidationRejectionRate,
    /// Inbox arrivals: rejections plus admitted plus outdated snapshots,
    /// as a count.
    InboxArrivals,
    /// Engine checking-window memo hits over lookups (hits + misses).
    WindowHitRate,
    /// `rups_fuse_edges_rejected` per `rups_fuse_solves`.
    FuseRejectionsPerSolve,
    /// `rups_v2v_link_delivered` over `rups_v2v_link_offered`.
    LinkDeliveryRate,
    /// The [`FIX_ERROR_GAUGE`] gauge, metres; events = times set.
    FixError,
    /// The [`CLOCK_OFFSET_GAUGE`] gauge, ns; events = times set.
    ClockOffset,
}

/// Which way a signal moves when the pipeline degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// A rise is bad (latency, rejections, error).
    Up,
    /// A fall is bad (availability, arrivals, hit and delivery rates).
    Down,
}

impl Direction {
    /// `value` oriented so that larger is always worse: itself for
    /// [`Up`](Self::Up), negated for [`Down`](Self::Down). Thresholds,
    /// detector residuals and rankings compare in this orientation.
    pub(crate) fn badness(self, value: f64) -> f64 {
        match self {
            Direction::Up => value,
            Direction::Down => -value,
        }
    }
}

/// One value of a signal and the events behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The reduced value.
    pub value: f64,
    /// Events backing it: the count itself, the ratio's denominator, the
    /// histogram's sample count, or the times a gauge was set.
    pub events: u64,
}

impl Reading {
    /// The one arming rule: a reading counts once at least `min_events`
    /// events back it.
    pub fn arms(&self, min_events: u64) -> bool {
        self.events >= min_events
    }
}

/// How a signal reduces its metrics to one number.
enum Reduction {
    Count(&'static [&'static str]),
    Ratio(&'static [&'static str], &'static [&'static str]),
    P99(&'static str),
    Gauge(&'static str),
}

impl Signal {
    fn reduction(self) -> Reduction {
        use Reduction::*;
        match self {
            Signal::FixP99Latency => P99("rups_core_engine_query_ns"),
            Signal::FixAvailability => Ratio(GRADED, ASSESSED),
            Signal::FixRejectionRate => Ratio(REJECTED, ASSESSED),
            Signal::ValidationRejections => Count(INBOX_REJECTED),
            Signal::ValidationRejectionRate => Ratio(INBOX_REJECTED, INBOX_ARRIVALS),
            Signal::InboxArrivals => Count(INBOX_ARRIVALS),
            Signal::WindowHitRate => Ratio(WINDOW_HITS, WINDOW_LOOKUPS),
            Signal::FuseRejectionsPerSolve => {
                Ratio(&["rups_fuse_edges_rejected"], &["rups_fuse_solves"])
            }
            Signal::LinkDeliveryRate => {
                Ratio(&["rups_v2v_link_delivered"], &["rups_v2v_link_offered"])
            }
            Signal::FixError => Gauge(FIX_ERROR_GAUGE),
            Signal::ClockOffset => Gauge(CLOCK_OFFSET_GAUGE),
        }
    }

    /// The way this signal moves when the pipeline degrades.
    pub fn direction(self) -> Direction {
        match self {
            Signal::FixAvailability
            | Signal::InboxArrivals
            | Signal::WindowHitRate
            | Signal::LinkDeliveryRate => Direction::Down,
            _ => Direction::Up,
        }
    }

    /// Reads the signal from `snap`, or `None` when it has no value there
    /// (see the module rules).
    pub fn read(self, snap: &MetricsSnapshot) -> Option<Reading> {
        let sum = |names: &[&str]| {
            names
                .iter()
                .filter_map(|n| snap.counter(n))
                .fold(0u64, u64::saturating_add)
        };
        match self.reduction() {
            Reduction::Count(names) => {
                let n = sum(names);
                Some(Reading {
                    value: n as f64,
                    events: n,
                })
            }
            Reduction::Ratio(num, den) => {
                let d = sum(den);
                (d > 0).then(|| Reading {
                    value: sum(num) as f64 / d as f64,
                    events: d,
                })
            }
            Reduction::P99(name) => snap
                .histogram(name)
                .filter(|h| h.count > 0)
                .map(|h| Reading {
                    value: h.p99,
                    events: h.count,
                }),
            Reduction::Gauge(name) => snap
                .gauges
                .iter()
                .find(|g| g.name == name)
                .filter(|g| g.value.is_finite())
                .map(|g| Reading {
                    value: g.value,
                    events: g.samples,
                }),
        }
    }

    /// [`read`](Self::read), kept only when the reading
    /// [`arms`](Reading::arms) at `min_events`.
    pub(crate) fn read_armed(self, snap: &MetricsSnapshot, min_events: u64) -> Option<Reading> {
        self.read(snap).filter(|r| r.arms(min_events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    const ALL: [Signal; 11] = [
        Signal::FixP99Latency,
        Signal::FixAvailability,
        Signal::FixRejectionRate,
        Signal::ValidationRejections,
        Signal::ValidationRejectionRate,
        Signal::InboxArrivals,
        Signal::WindowHitRate,
        Signal::FuseRejectionsPerSolve,
        Signal::LinkDeliveryRate,
        Signal::FixError,
        Signal::ClockOffset,
    ];

    fn snap(
        counters: &[(&str, u64)],
        latencies: &[u64],
        gauges: &[(&str, f64)],
    ) -> MetricsSnapshot {
        let reg = Registry::new();
        for (n, v) in counters {
            reg.counter(n).add(*v);
        }
        for &v in latencies {
            reg.histogram("rups_core_engine_query_ns").record(v);
        }
        for (n, v) in gauges {
            reg.gauge(n).set(*v);
        }
        reg.snapshot()
    }

    #[test]
    fn reader_rules_table() {
        let healthy = snap(
            &[
                ("rups_core_quality_grade_high", 6),
                ("rups_core_quality_grade_low", 2),
                ("rups_core_quality_rejected", 2),
                (INBOX_REJECTED[3], 1),
                ("rups_core_inbox_accepted", 3),
                ("rups_core_engine_window_hits", 9),
                ("rups_core_engine_window_misses", 1),
                ("rups_fuse_edges_rejected", 3),
                ("rups_fuse_solves", 2),
                ("rups_v2v_link_delivered", 7),
                ("rups_v2v_link_offered", 8),
            ],
            &[1_000; 4],
            &[(FIX_ERROR_GAUGE, 1.5), (CLOCK_OFFSET_GAUGE, -2e3)],
        );
        // A window that recorded nothing: no counters, gauges or histograms.
        let idle = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let non_finite = snap(
            &[],
            &[],
            &[
                (FIX_ERROR_GAUGE, f64::NAN),
                (CLOCK_OFFSET_GAUGE, f64::INFINITY),
            ],
        );
        let empty_hist = Registry::new();
        empty_hist.histogram("rups_core_engine_query_ns");
        let empty_hist = empty_hist.snapshot();

        struct Case {
            what: &'static str,
            snap: MetricsSnapshot,
            signal: Signal,
            want: Option<(f64, u64)>,
        }
        let case = |what, snap: &MetricsSnapshot, signal, want| Case {
            what,
            snap: snap.clone(),
            signal,
            want,
        };
        let p99 = healthy.histogram("rups_core_engine_query_ns").unwrap().p99;
        let cases = [
            case(
                "p99 of the query histogram",
                &healthy,
                Signal::FixP99Latency,
                Some((p99, 4)),
            ),
            case(
                "availability",
                &healthy,
                Signal::FixAvailability,
                Some((0.8, 10)),
            ),
            case(
                "rejection rate",
                &healthy,
                Signal::FixRejectionRate,
                Some((0.2, 10)),
            ),
            case(
                "rejections as a count",
                &healthy,
                Signal::ValidationRejections,
                Some((1.0, 1)),
            ),
            case(
                "rejection rate",
                &healthy,
                Signal::ValidationRejectionRate,
                Some((0.25, 4)),
            ),
            case("arrivals", &healthy, Signal::InboxArrivals, Some((4.0, 4))),
            case(
                "window hit rate",
                &healthy,
                Signal::WindowHitRate,
                Some((0.9, 10)),
            ),
            case(
                "per solve",
                &healthy,
                Signal::FuseRejectionsPerSolve,
                Some((1.5, 2)),
            ),
            case(
                "delivery",
                &healthy,
                Signal::LinkDeliveryRate,
                Some((0.875, 8)),
            ),
            case(
                "fix error gauge",
                &healthy,
                Signal::FixError,
                Some((1.5, 1)),
            ),
            case(
                "clock gauge",
                &healthy,
                Signal::ClockOffset,
                Some((-2e3, 1)),
            ),
            // Rule 1: absent counters read as 0.
            case(
                "absent count is 0",
                &idle,
                Signal::InboxArrivals,
                Some((0.0, 0)),
            ),
            case(
                "absent count is 0",
                &idle,
                Signal::ValidationRejections,
                Some((0.0, 0)),
            ),
            // Rule 2: no reading without a denominator, samples or a value.
            case("zero denominator", &idle, Signal::FixAvailability, None),
            case(
                "zero denominator",
                &idle,
                Signal::FuseRejectionsPerSolve,
                None,
            ),
            case("absent histogram", &idle, Signal::FixP99Latency, None),
            case("empty histogram", &empty_hist, Signal::FixP99Latency, None),
            case("absent gauge", &idle, Signal::FixError, None),
            case("NaN gauge", &non_finite, Signal::FixError, None),
            case("infinite gauge", &non_finite, Signal::ClockOffset, None),
        ];
        for c in &cases {
            let got = c.signal.read(&c.snap).map(|r| (r.value, r.events));
            assert_eq!(got, c.want, "{:?}: {}", c.signal, c.what);
        }
        // Every signal reads on the healthy snapshot.
        for s in ALL {
            assert!(s.read(&healthy).is_some(), "{s:?}");
        }
    }

    #[test]
    fn a_window_without_arrivals_still_reads() {
        // The Link stage's evidence: a blackout window has no inbox
        // counters at all and must read as zero arrivals, not as nothing.
        let blackout = snap(&[("rups_v2v_link_offered", 40)], &[], &[]).compact();
        let r = Signal::InboxArrivals.read(&blackout).unwrap();
        assert_eq!((r.value, r.events), (0.0, 0));
        assert!(r.arms(0));
    }

    #[test]
    fn arming_is_inclusive_at_min_events() {
        let s = snap(&[("rups_core_quality_grade_high", 4)], &[], &[]);
        let r = Signal::FixAvailability.read(&s).unwrap();
        assert_eq!(r.events, 4);
        assert!(r.arms(4), "events == min_events arms");
        assert!(r.arms(3));
        assert!(!r.arms(5));
        assert!(Signal::FixAvailability.read_armed(&s, 4).is_some());
        assert!(Signal::FixAvailability.read_armed(&s, 5).is_none());
    }

    #[test]
    fn directions_orient_badness() {
        assert_eq!(Direction::Up.badness(2.0), 2.0);
        assert_eq!(Direction::Down.badness(2.0), -2.0);
        let down: Vec<Signal> = ALL
            .into_iter()
            .filter(|s| s.direction() == Direction::Down)
            .collect();
        assert_eq!(
            down,
            [
                Signal::FixAvailability,
                Signal::InboxArrivals,
                Signal::WindowHitRate,
                Signal::LinkDeliveryRate
            ]
        );
    }

    #[test]
    fn signals_round_trip_through_json() {
        for s in ALL {
            let json = serde_json::to_string(&s).unwrap();
            assert_eq!(serde_json::from_str::<Signal>(&json).unwrap(), s);
        }
    }
}
