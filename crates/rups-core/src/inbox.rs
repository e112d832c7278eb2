//! Validated intake of neighbour snapshots received over V2V.
//!
//! The wire is hostile: payloads arrive truncated, bit-flipped, duplicated,
//! reordered and late (see the `v2v-sim` fault model). The codec rejects
//! structurally impossible bytes, but a snapshot can decode cleanly and
//! still be unusable — wrong channel count for this node's band, too little
//! context to clear a checking window, or so old that the neighbour has
//! long moved on. [`SnapshotInbox`] is the quarantine between the radio and
//! [`crate::pipeline::RupsNode`]: every incoming [`ContextSnapshot`] is
//! validated on arrival, only the **freshest** context per neighbour is
//! retained (duplicates and out-of-order stragglers are ignored), and the
//! query path only ever sees vetted, fresh contexts.
//!
//! Degradation policy: *structural* problems are rejected with typed
//! [`RupsError`]s and counted; *marginal* contexts (short, noisy) are let
//! through — the query path downgrades them via [`crate::quality::assess`]
//! rather than erroring, per the paper's Fig. 10 robustness argument.

use crate::config::RupsConfig;
use crate::error::RupsError;
use crate::pipeline::ContextSnapshot;
use rups_obs::{Counter, Histogram, Registry, SpanRecorder};
use std::collections::HashMap;
use std::sync::Arc;

/// Validation thresholds of a [`SnapshotInbox`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InboxConfig {
    /// Channel count every accepted snapshot must carry (this node's
    /// band).
    pub n_channels: usize,
    /// Minimum context length in metres; anything shorter cannot clear
    /// even the minimum adaptive checking window and is rejected as
    /// undersized.
    pub min_context_m: usize,
    /// Maximum age of a snapshot's newest metre, seconds. Older snapshots
    /// are rejected on arrival and held ones stop being served once they
    /// outlive this horizon.
    pub staleness_horizon_s: f64,
}

impl InboxConfig {
    /// Thresholds matching a node configuration: the node's band width,
    /// the minimum adaptive window as the context floor, and the given
    /// staleness horizon.
    pub fn for_rups(cfg: &RupsConfig, staleness_horizon_s: f64) -> Self {
        Self {
            n_channels: cfg.n_channels,
            min_context_m: cfg.min_window_len_m.max(2),
            staleness_horizon_s,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_channels == 0 {
            return Err("n_channels must be positive".into());
        }
        if !self.staleness_horizon_s.is_finite() || self.staleness_horizon_s <= 0.0 {
            return Err("staleness_horizon_s must be finite and positive".into());
        }
        Ok(())
    }
}

impl Default for InboxConfig {
    fn default() -> Self {
        Self::for_rups(&RupsConfig::default(), 30.0)
    }
}

/// What the inbox did with everything ever offered to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboxStats {
    /// Snapshots stored (first sight of a neighbour or fresher than the
    /// held one).
    pub accepted: u64,
    /// Valid snapshots ignored because an equally fresh or fresher one was
    /// already held (duplicates, reordered stragglers).
    pub ignored_outdated: u64,
    /// Rejected: geo/GSM halves misaligned or non-finite timestamps.
    pub rejected_malformed: u64,
    /// Rejected: channel count differs from this node's band.
    pub rejected_channel_mismatch: u64,
    /// Rejected: context shorter than the configured minimum.
    pub rejected_undersized: u64,
    /// Rejected: newest metre older than the staleness horizon.
    pub rejected_stale: u64,
}

impl InboxStats {
    /// Total snapshots rejected with a typed error.
    pub fn rejected(&self) -> u64 {
        self.rejected_malformed
            + self.rejected_channel_mismatch
            + self.rejected_undersized
            + self.rejected_stale
    }
}

/// How many recently span-tagged trace ids each neighbour slot remembers.
/// Bounds the duplicate-tag window: a beacon retransmitted (duplicated,
/// reordered, or corrupt-but-decodable) within the last `TAGGED_RING`
/// accepted traces of its neighbour never tags a second `inbox.validate`
/// span.
const TAGGED_RING: usize = 8;

#[derive(Debug, Clone)]
struct Held {
    snap: ContextSnapshot,
    newest_s: f64,
    /// Ring of trace ids whose intake already tagged a span (newest last).
    tagged: Vec<u64>,
}

/// Registry mirrors of [`InboxStats`] (`rups_core_inbox_*`) plus the
/// validation latency histogram, pre-registered so the intake path does no
/// name lookups.
#[derive(Debug, Clone)]
struct InboxMetrics {
    accepted: Counter,
    ignored_outdated: Counter,
    rejected_malformed: Counter,
    rejected_channel_mismatch: Counter,
    rejected_undersized: Counter,
    rejected_stale: Counter,
    validate_ns: Histogram,
}

impl InboxMetrics {
    fn register(reg: &Registry) -> Self {
        Self {
            accepted: reg.counter("rups_core_inbox_accepted"),
            ignored_outdated: reg.counter("rups_core_inbox_ignored_outdated"),
            rejected_malformed: reg.counter("rups_core_inbox_rejected_malformed"),
            rejected_channel_mismatch: reg.counter("rups_core_inbox_rejected_channel_mismatch"),
            rejected_undersized: reg.counter("rups_core_inbox_rejected_undersized"),
            rejected_stale: reg.counter("rups_core_inbox_rejected_stale"),
            validate_ns: reg.histogram("rups_core_inbox_validate_ns"),
        }
    }
}

/// Per-node intake buffer holding the freshest vetted context per
/// neighbour.
///
/// ```
/// use rups_core::config::RupsConfig;
/// use rups_core::inbox::{InboxConfig, SnapshotInbox};
/// use rups_core::pipeline::RupsNode;
/// use rups_core::prelude::*;
///
/// let cfg = RupsConfig { n_channels: 16, window_channels: 16, ..RupsConfig::default() };
/// let mut nb = RupsNode::new(cfg.clone()).with_vehicle_id(7);
/// for i in 0..120 {
///     nb.append_metre(
///         GeoSample { heading_rad: 0.0, timestamp_s: i as f64 },
///         &PowerVector::from_fn(16, |ch| Some(-70.0 - ch as f32)),
///     ).unwrap();
/// }
/// let mut inbox = SnapshotInbox::new(InboxConfig::for_rups(&cfg, 30.0));
/// assert!(inbox.accept(nb.snapshot(None), 125.0).unwrap());
/// assert_eq!(inbox.fresh(125.0).len(), 1);
/// // Thirty-plus seconds later the context has gone stale.
/// assert!(inbox.fresh(160.0).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotInbox {
    cfg: InboxConfig,
    /// Freshest vetted context per identified neighbour.
    named: HashMap<u64, Held>,
    /// One slot for anonymous snapshots (no vehicle id on the wire).
    anon: Option<Held>,
    stats: InboxStats,
    /// Registry mirrors of `stats`, present when observability is attached.
    metrics: Option<InboxMetrics>,
    /// Span sink for the validation/rejection path, when attached.
    spans: Option<Arc<SpanRecorder>>,
}

impl SnapshotInbox {
    /// An empty inbox with the given thresholds.
    ///
    /// # Panics
    /// Panics when the configuration is invalid.
    pub fn new(cfg: InboxConfig) -> Self {
        cfg.validate().expect("invalid inbox configuration");
        Self {
            cfg,
            named: HashMap::new(),
            anon: None,
            stats: InboxStats::default(),
            metrics: None,
            spans: None,
        }
    }

    /// Mirrors the intake counters into `registry` (under
    /// `rups_core_inbox_*`, including the `rups_core_inbox_validate_ns`
    /// latency histogram) from this call on. [`InboxStats`] keeps working
    /// either way.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = Some(InboxMetrics::register(registry));
        self
    }

    /// Records the validation/rejection path into `spans` from this call
    /// on: an `inbox.validate` span per offer plus an `inbox.reject.*` /
    /// `inbox.ignore_outdated` event per refused snapshot.
    pub fn with_spans(mut self, spans: Arc<SpanRecorder>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The active thresholds.
    pub fn config(&self) -> &InboxConfig {
        &self.cfg
    }

    /// Validates a snapshot against the thresholds at time `now_s` without
    /// storing it. Returns the newest-metre timestamp on success.
    pub fn validate(&self, snap: &ContextSnapshot, now_s: f64) -> Result<f64, RupsError> {
        snap.validate(self.cfg.n_channels)?;
        if snap.len() < self.cfg.min_context_m {
            return Err(RupsError::InsufficientContext {
                available_m: snap.len(),
                required_m: self.cfg.min_context_m,
            });
        }
        let newest = snap
            .geo
            .latest_timestamp()
            .ok_or(RupsError::MalformedSnapshot("no timestamps"))?;
        if !newest.is_finite() {
            return Err(RupsError::MalformedSnapshot("non-finite timestamp"));
        }
        let age = now_s - newest;
        if age > self.cfg.staleness_horizon_s {
            return Err(RupsError::StaleSnapshot {
                age_s: age,
                horizon_s: self.cfg.staleness_horizon_s,
            });
        }
        if age < -self.cfg.staleness_horizon_s {
            // A sender claiming to be far in our future is as unusable as
            // a stale one; RUPS assumes no clock sync but not time travel.
            return Err(RupsError::MalformedSnapshot("timestamp in the future"));
        }
        Ok(newest)
    }

    /// Offers a snapshot received at time `now_s`. Returns `Ok(true)` when
    /// it was stored (fresher than anything held for that neighbour),
    /// `Ok(false)` when a duplicate or out-of-order straggler was ignored,
    /// and a typed error when it failed validation.
    ///
    /// Trace semantics: the `inbox.validate` span carries the snapshot's
    /// [`TraceContext`](rups_obs::TraceContext) args **only when the
    /// snapshot is newly accepted**. Duplicates, reordered stragglers and
    /// rejects leave the span untagged, so a merged fleet trace sees at
    /// most one validated intake per `(receiver, trace)` no matter how
    /// often the faulty link re-delivers a beacon.
    pub fn accept(&mut self, snap: ContextSnapshot, now_s: f64) -> Result<bool, RupsError> {
        let mut guard = self.spans.as_ref().map(|s| s.span("inbox.validate"));
        let verdict = {
            let _t = self.metrics.as_ref().map(|m| m.validate_ns.start_timer());
            self.validate(&snap, now_s)
        };
        let newest = match verdict {
            Ok(t) => t,
            Err(e) => {
                let event = match &e {
                    RupsError::MalformedSnapshot(_) => {
                        self.stats.rejected_malformed += 1;
                        if let Some(m) = &self.metrics {
                            m.rejected_malformed.inc();
                        }
                        Some("inbox.reject.malformed")
                    }
                    RupsError::ChannelMismatch { .. } => {
                        self.stats.rejected_channel_mismatch += 1;
                        if let Some(m) = &self.metrics {
                            m.rejected_channel_mismatch.inc();
                        }
                        Some("inbox.reject.channel_mismatch")
                    }
                    RupsError::InsufficientContext { .. } => {
                        self.stats.rejected_undersized += 1;
                        if let Some(m) = &self.metrics {
                            m.rejected_undersized.inc();
                        }
                        Some("inbox.reject.undersized")
                    }
                    RupsError::StaleSnapshot { .. } => {
                        self.stats.rejected_stale += 1;
                        if let Some(m) = &self.metrics {
                            m.rejected_stale.inc();
                        }
                        Some("inbox.reject.stale")
                    }
                    _ => None,
                };
                if let (Some(event), Some(s)) = (event, &self.spans) {
                    s.event(event);
                }
                return Err(e);
            }
        };
        let slot = match snap.vehicle_id {
            Some(id) => self.named.get_mut(&id),
            None => self.anon.as_mut(),
        };
        if slot.as_ref().is_some_and(|held| newest <= held.newest_s) {
            self.stats.ignored_outdated += 1;
            if let Some(m) = &self.metrics {
                m.ignored_outdated.inc();
            }
            if let Some(s) = &self.spans {
                s.event("inbox.ignore_outdated");
            }
            return Ok(false);
        }
        let mut tagged = slot
            .map(|held| std::mem::take(&mut held.tagged))
            .unwrap_or_default();
        if let (Some(g), Some(trace)) = (guard.as_mut(), &snap.trace) {
            if !tagged.contains(&trace.trace_id) {
                g.set_args(trace.args());
                if tagged.len() >= TAGGED_RING {
                    tagged.remove(0);
                }
                tagged.push(trace.trace_id);
            }
        }
        // The offered snapshot itself is stored: a first contact copies
        // no context.
        let held = Held {
            snap,
            newest_s: newest,
            tagged,
        };
        match held.snap.vehicle_id {
            Some(id) => {
                self.named.insert(id, held);
            }
            None => self.anon = Some(held),
        }
        self.stats.accepted += 1;
        if let Some(m) = &self.metrics {
            m.accepted.inc();
        }
        Ok(true)
    }

    /// Every held context still within the staleness horizon at `now_s`,
    /// freshest first — the only thing the query path should ever see.
    /// Equally fresh contexts come in ascending vehicle id order (the
    /// anonymous slot first), so the order never depends on hashing.
    pub fn fresh(&self, now_s: f64) -> Vec<&ContextSnapshot> {
        let horizon = self.cfg.staleness_horizon_s;
        let mut held: Vec<&Held> = self
            .named
            .values()
            .chain(self.anon.iter())
            .filter(|h| now_s - h.newest_s <= horizon)
            .collect();
        held.sort_by(|a, b| {
            b.newest_s
                .total_cmp(&a.newest_s)
                .then(a.snap.vehicle_id.cmp(&b.snap.vehicle_id))
        });
        held.into_iter().map(|h| &h.snap).collect()
    }

    /// The held context for one neighbour, regardless of staleness.
    pub fn neighbour(&self, vehicle_id: u64) -> Option<&ContextSnapshot> {
        self.named.get(&vehicle_id).map(|h| &h.snap)
    }

    /// Drops every held context whose newest metre has outlived the
    /// staleness horizon at `now_s`; returns how many were evicted.
    pub fn evict_stale(&mut self, now_s: f64) -> usize {
        let horizon = self.cfg.staleness_horizon_s;
        let before = self.len();
        self.named.retain(|_, h| now_s - h.newest_s <= horizon);
        if let Some(h) = &self.anon {
            if now_s - h.newest_s > horizon {
                self.anon = None;
            }
        }
        before - self.len()
    }

    /// Neighbour contexts currently held (fresh or not).
    pub fn len(&self) -> usize {
        self.named.len() + usize::from(self.anon.is_some())
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every held context (e.g. after leaving a convoy).
    pub fn clear(&mut self) {
        self.named.clear();
        self.anon = None;
    }

    /// Intake counters since construction.
    pub fn stats(&self) -> InboxStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{GeoSample, GeoTrajectory};
    use crate::gsm::{GsmTrajectory, PowerVector};

    fn snap(id: Option<u64>, len: usize, n_channels: usize, t_end: f64) -> ContextSnapshot {
        let mut geo = GeoTrajectory::new();
        let mut gsm = GsmTrajectory::new(n_channels);
        for i in 0..len {
            geo.push(GeoSample {
                heading_rad: 0.0,
                timestamp_s: t_end - (len - 1 - i) as f64,
            });
            gsm.push(&PowerVector::from_fn(n_channels, |ch| {
                Some(-60.0 - ch as f32 - (i % 13) as f32)
            }));
        }
        ContextSnapshot {
            vehicle_id: id,
            geo,
            gsm,
            trace: None,
        }
    }

    fn inbox() -> SnapshotInbox {
        SnapshotInbox::new(InboxConfig {
            n_channels: 8,
            min_context_m: 10,
            staleness_horizon_s: 30.0,
        })
    }

    #[test]
    fn accepts_valid_and_keeps_freshest_per_neighbour() {
        let mut ib = inbox();
        assert!(ib.accept(snap(Some(1), 50, 8, 100.0), 101.0).unwrap());
        assert!(ib.accept(snap(Some(2), 50, 8, 100.0), 101.0).unwrap());
        // Fresher context for neighbour 1 replaces the held one.
        assert!(ib.accept(snap(Some(1), 60, 8, 110.0), 111.0).unwrap());
        assert_eq!(ib.len(), 2);
        assert_eq!(ib.neighbour(1).unwrap().len(), 60);
        // A reordered straggler (older than held) is ignored, not stored.
        assert!(!ib.accept(snap(Some(1), 40, 8, 105.0), 111.0).unwrap());
        assert_eq!(ib.neighbour(1).unwrap().len(), 60);
        // An exact duplicate is ignored too.
        assert!(!ib.accept(snap(Some(1), 60, 8, 110.0), 111.0).unwrap());
        let s = ib.stats();
        assert_eq!(s.accepted, 3);
        assert_eq!(s.ignored_outdated, 2);
        assert_eq!(s.rejected(), 0);
    }

    #[test]
    fn fresh_is_sorted_and_respects_horizon() {
        let mut ib = inbox();
        ib.accept(snap(Some(1), 50, 8, 100.0), 100.0).unwrap();
        ib.accept(snap(Some(2), 50, 8, 120.0), 120.0).unwrap();
        let fresh = ib.fresh(125.0);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].vehicle_id, Some(2), "freshest first");
        // At t=140 neighbour 1's newest metre (t=100) is beyond the 30 s
        // horizon; it is no longer served but still held until eviction.
        assert_eq!(ib.fresh(140.0).len(), 1);
        assert_eq!(ib.len(), 2);
        assert_eq!(ib.evict_stale(140.0), 1);
        assert_eq!(ib.len(), 1);
        assert!(ib.neighbour(1).is_none());

        // Equally fresh neighbours come back in ascending id order, however
        // they arrived: a convoy beaconing in lockstep shares every stamp.
        let mut ib = inbox();
        for id in (1..=16).rev() {
            ib.accept(snap(Some(id), 50, 8, 200.0), 200.0).unwrap();
        }
        let ids: Vec<Option<u64>> = ib.fresh(200.0).iter().map(|s| s.vehicle_id).collect();
        let want: Vec<Option<u64>> = (1..=16).map(Some).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn rejects_channel_mismatch_undersized_stale_and_malformed() {
        let mut ib = inbox();
        // Wrong band width.
        assert!(matches!(
            ib.accept(snap(Some(1), 50, 5, 100.0), 100.0),
            Err(RupsError::ChannelMismatch { ours: 8, theirs: 5 })
        ));
        // Too little context (including empty).
        assert!(matches!(
            ib.accept(snap(Some(1), 4, 8, 100.0), 100.0),
            Err(RupsError::InsufficientContext {
                available_m: 4,
                required_m: 10
            })
        ));
        assert!(matches!(
            ib.accept(snap(Some(1), 0, 8, 100.0), 100.0),
            Err(RupsError::InsufficientContext { .. })
        ));
        // Stale beyond the horizon.
        assert!(matches!(
            ib.accept(snap(Some(1), 50, 8, 100.0), 140.0),
            Err(RupsError::StaleSnapshot { .. })
        ));
        // Misaligned halves.
        let mut bad = snap(Some(1), 50, 8, 100.0);
        bad.geo = bad.geo.tail(49);
        assert!(matches!(
            ib.accept(bad, 100.0),
            Err(RupsError::MalformedSnapshot(_))
        ));
        // Claimed timestamp absurdly far in the future. (Non-finite
        // timestamps cannot be built through safe APIs — `GeoTrajectory::push`
        // debug-asserts and the codec rejects them — so the inbox's
        // is_finite check is release-mode defence only and not tested here.)
        assert!(matches!(
            ib.accept(snap(Some(1), 50, 8, 500.0), 100.0),
            Err(RupsError::MalformedSnapshot(_))
        ));
        let s = ib.stats();
        assert_eq!(s.accepted, 0);
        assert_eq!(s.rejected_channel_mismatch, 1);
        assert_eq!(s.rejected_undersized, 2);
        assert_eq!(s.rejected_stale, 1);
        assert_eq!(s.rejected_malformed, 2);
        assert_eq!(s.rejected(), 6);
        assert!(ib.is_empty());
    }

    #[test]
    fn anonymous_snapshots_share_one_slot() {
        let mut ib = inbox();
        assert!(ib.accept(snap(None, 50, 8, 100.0), 100.0).unwrap());
        assert!(ib.accept(snap(None, 50, 8, 110.0), 110.0).unwrap());
        assert!(!ib.accept(snap(None, 50, 8, 105.0), 110.0).unwrap());
        assert_eq!(ib.len(), 1);
        assert_eq!(ib.fresh(112.0).len(), 1);
        ib.clear();
        assert!(ib.is_empty());
    }

    #[test]
    fn registry_mirror_and_spans_track_the_intake_path() {
        let reg = Registry::new();
        let spans = Arc::new(SpanRecorder::new(16));
        let mut ib = SnapshotInbox::new(InboxConfig {
            n_channels: 8,
            min_context_m: 10,
            staleness_horizon_s: 30.0,
        })
        .with_registry(&reg)
        .with_spans(Arc::clone(&spans));

        assert!(ib.accept(snap(Some(1), 50, 8, 100.0), 101.0).unwrap());
        assert!(!ib.accept(snap(Some(1), 50, 8, 100.0), 101.0).unwrap());
        assert!(ib.accept(snap(Some(1), 5, 8, 100.0), 101.0).is_err());
        assert!(ib.accept(snap(Some(1), 50, 5, 100.0), 101.0).is_err());

        let s = reg.snapshot();
        assert_eq!(s.counter("rups_core_inbox_accepted"), Some(1));
        assert_eq!(s.counter("rups_core_inbox_ignored_outdated"), Some(1));
        assert_eq!(s.counter("rups_core_inbox_rejected_undersized"), Some(1));
        assert_eq!(
            s.counter("rups_core_inbox_rejected_channel_mismatch"),
            Some(1)
        );
        // The registry mirror agrees with the plain stats struct.
        let plain = ib.stats();
        assert_eq!(plain.accepted, 1);
        assert_eq!(plain.rejected(), 2);
        if cfg!(feature = "obs") {
            assert_eq!(
                s.histogram("rups_core_inbox_validate_ns").map(|h| h.count),
                Some(4),
                "every offer times its validation"
            );
            let names: Vec<&str> = spans.recent().iter().map(|r| r.name).collect();
            assert!(names.contains(&"inbox.validate"));
            assert!(names.contains(&"inbox.ignore_outdated"));
            assert!(names.contains(&"inbox.reject.undersized"));
            assert!(names.contains(&"inbox.reject.channel_mismatch"));
        }
    }

    #[test]
    fn config_for_rups_and_validation() {
        let rcfg = RupsConfig::default();
        let cfg = InboxConfig::for_rups(&rcfg, 20.0);
        assert_eq!(cfg.n_channels, rcfg.n_channels);
        assert_eq!(cfg.min_context_m, rcfg.min_window_len_m.max(2));
        assert!(cfg.validate().is_ok());
        assert!(InboxConfig {
            n_channels: 0,
            ..cfg
        }
        .validate()
        .is_err());
        assert!(InboxConfig {
            staleness_horizon_s: 0.0,
            ..cfg
        }
        .validate()
        .is_err());
        assert!(InboxConfig {
            staleness_horizon_s: f64::INFINITY,
            ..cfg
        }
        .validate()
        .is_err());
    }
}
