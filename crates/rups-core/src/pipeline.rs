//! The end-to-end RUPS node: journey-context maintenance, snapshot exchange
//! and relative-distance queries (§IV-A, Fig. 5).
//!
//! [`RupsNode`] is the type a deployment embeds per vehicle. It owns the
//! rolling *journey context* — the most recent `max_context_m` metres of the
//! geographical trajectory plus the bound GSM-aware trajectory — and answers
//! relative-distance queries against neighbour [`ContextSnapshot`]s received
//! over V2V.

use crate::binding::{ScanSample, TrajectoryBinder};
use crate::config::{AggregationScheme, RupsConfig};
use crate::engine::{EngineStats, Kernel, QueryDiag, SynQueryEngine};
use crate::error::RupsError;
use crate::geo::{GeoSample, GeoTrajectory};
use crate::gsm::{GsmTrajectory, PowerVector};
use crate::inbox::SnapshotInbox;
use crate::quality::{assess, FixQuality, QualityConfig, QualityReport};
use crate::report::{FixOutcome, FixReport};
use crate::resolve;
use crate::syn::SynPoint;
use crate::tracker::{TrackMode, TrackedFix};
use rups_obs::{Counter, FlightRecorder, Registry, SpanRecorder, TailSampler, TraceContext};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One batch of per-neighbour fix results paired with their diagnostics.
type DiagBatch = Vec<(Result<DistanceFix, RupsError>, QueryDiag)>;

/// An exchangeable copy of a vehicle's recent journey context — what a RUPS
/// vehicle broadcasts to its neighbours (serialized by the `v2v-sim` crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextSnapshot {
    /// Optional stable identifier of the sending vehicle.
    pub vehicle_id: Option<u64>,
    /// Per-metre geographical trajectory (oldest first).
    pub geo: GeoTrajectory,
    /// GSM-aware trajectory aligned with `geo`.
    pub gsm: GsmTrajectory,
    /// Distributed-tracing context stamped by the broadcasting vehicle —
    /// carried opaquely across the wire so every hop a snapshot causes
    /// (link fault, inbox validation, engine query, fusion) can join one
    /// fleet-wide trace. `None` for untraced snapshots; never affects
    /// distance fixing.
    pub trace: Option<TraceContext>,
}

impl ContextSnapshot {
    /// Context length in metres.
    pub fn len(&self) -> usize {
        self.gsm.len()
    }

    /// True when the snapshot carries no context.
    pub fn is_empty(&self) -> bool {
        self.gsm.is_empty()
    }

    /// Stamps a tracing context onto this snapshot (builder form).
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Structural validation a snapshot must pass before it can touch the
    /// correlation kernels: aligned halves and `n_channels` channels (a
    /// mismatched snapshot is trivial to produce via the wire codec, and
    /// the anchored tracking path would otherwise feed it to
    /// `correlation` with undefined results).
    pub fn validate(&self, n_channels: usize) -> Result<(), RupsError> {
        if self.geo.len() != self.gsm.len() {
            return Err(RupsError::MalformedSnapshot(
                "geo and gsm halves differ in length",
            ));
        }
        if self.gsm.n_channels() != n_channels {
            return Err(RupsError::ChannelMismatch {
                ours: n_channels,
                theirs: self.gsm.n_channels(),
            });
        }
        Ok(())
    }
}

/// A distance fix bundled with its [`QualityReport`] — the
/// graceful-degradation result type: marginal context downgrades the grade
/// and widens the error bound instead of erroring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradedFix {
    /// The distance fix.
    pub fix: DistanceFix,
    /// Its quality grade and conservative error bound.
    pub report: QualityReport,
}

/// The result of a relative-distance query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceFix {
    /// Aggregated relative distance in metres; positive = neighbour ahead.
    pub distance_m: f64,
    /// Every SYN point that contributed (most recent segment first).
    pub syn_points: Vec<SynPoint>,
    /// Raw per-SYN distance estimates, aligned with `syn_points`.
    pub estimates_m: Vec<f64>,
    /// Best trajectory correlation coefficient observed (Eq. (2) scale).
    pub best_score: f64,
}

impl DistanceFix {
    /// Resolves `points` between trajectories of `len_self` and `len_other`
    /// metres (§IV-E) and aggregates them by `scheme` (§VI-C) into a fix
    /// carrying the best score among them. Errors like
    /// [`resolve::aggregate_distance`] when `points` is empty.
    pub fn from_syn_points(
        points: Vec<SynPoint>,
        len_self: usize,
        len_other: usize,
        scheme: AggregationScheme,
    ) -> Result<Self, RupsError> {
        let (distance_m, estimates_m) =
            resolve::aggregate_distance(&points, len_self, len_other, scheme)?;
        let best_score = points
            .iter()
            .map(|p| p.score)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(Self {
            distance_m,
            syn_points: points,
            estimates_m,
            best_score,
        })
    }
}

/// Pre-registered per-grade quality counters (`rups_core_quality_*`): how
/// many graded fixes landed at each [`crate::quality::FixQuality`] grade
/// and how many inbox-fed queries errored out entirely.
#[derive(Debug, Clone)]
struct QualityCounters {
    grade_high: Counter,
    grade_medium: Counter,
    grade_low: Counter,
    rejected: Counter,
}

impl QualityCounters {
    fn register(reg: &Registry) -> Self {
        Self {
            grade_high: reg.counter("rups_core_quality_grade_high"),
            grade_medium: reg.counter("rups_core_quality_grade_medium"),
            grade_low: reg.counter("rups_core_quality_grade_low"),
            rejected: reg.counter("rups_core_quality_rejected"),
        }
    }
}

/// A RUPS vehicle node (Fig. 5): perceives its GSM-aware trajectory and
/// fixes relative distances to neighbours.
#[derive(Debug)]
pub struct RupsNode {
    cfg: RupsConfig,
    vehicle_id: Option<u64>,
    geo: GeoTrajectory,
    gsm: GsmTrajectory,
    binder: TrajectoryBinder,
    /// Anchored-tracking state (§V-B): the SYN shift `self_end −
    /// other_end` last fixed against each tracked neighbour id.
    anchors: HashMap<u64, i64>,
    /// The caching/batching query engine every distance query runs through.
    engine: SynQueryEngine,
    /// Bumped on every context append; gates the engine's context cache.
    context_version: u64,
    /// The registry shared with `engine` (and anything attached via
    /// [`RupsNode::with_observability`]).
    registry: Arc<Registry>,
    quality_counters: QualityCounters,
    /// Optional black-box recorder fed by [`RupsNode::fix_inbox_parallel`]:
    /// degraded fixes become [`FixReport`]s and every inbox pass closes an
    /// observation window.
    flight: Option<Arc<FlightRecorder>>,
    /// The span ring shared with the engine (kept so the tail sampler can
    /// drain it incrementally).
    spans: Option<Arc<SpanRecorder>>,
    /// Optional tail-based trace sampler: every inbox pass drains new spans
    /// into it and settles each snapshot's trace as anomalous (miss or
    /// Low-grade fix) or ordinary.
    sampler: Option<Arc<TailSampler>>,
    /// [`SpanRecorder::take_since`] watermark for the sampler drain.
    span_watermark: AtomicU64,
}

impl Clone for RupsNode {
    /// Cloning keeps the journey context and tracker state but gives the
    /// clone a fresh registry and cold engine caches, mirroring
    /// [`SynQueryEngine`]'s per-instance cache semantics — two nodes never
    /// share live metric handles unless wired together explicitly via
    /// [`RupsNode::with_observability`].
    fn clone(&self) -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            cfg: self.cfg.clone(),
            vehicle_id: self.vehicle_id,
            geo: self.geo.clone(),
            gsm: self.gsm.clone(),
            binder: self.binder.clone(),
            anchors: self.anchors.clone(),
            engine: SynQueryEngine::with_registry(self.cfg.clone(), Arc::clone(&registry)),
            context_version: self.context_version,
            quality_counters: QualityCounters::register(&registry),
            registry,
            // A flight recorder, span ring and sampler watch a specific
            // registry/engine; the clone has fresh ones, so it starts bare.
            flight: None,
            spans: None,
            sampler: None,
            span_watermark: AtomicU64::new(0),
        }
    }
}

impl RupsNode {
    /// Creates a node with the given configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use [`RupsNode::try_new`]
    /// to handle that gracefully.
    pub fn new(cfg: RupsConfig) -> Self {
        Self::try_new(cfg).expect("invalid RUPS configuration")
    }

    /// Creates a node, validating the configuration.
    pub fn try_new(cfg: RupsConfig) -> Result<Self, RupsError> {
        cfg.validate().map_err(RupsError::InvalidConfig)?;
        let n = cfg.n_channels;
        let registry = Arc::new(Registry::new());
        let engine = SynQueryEngine::with_registry(cfg.clone(), Arc::clone(&registry));
        Ok(Self {
            cfg,
            vehicle_id: None,
            geo: GeoTrajectory::new(),
            gsm: GsmTrajectory::new(n),
            binder: TrajectoryBinder::new(n, f64::NEG_INFINITY),
            anchors: HashMap::new(),
            engine,
            context_version: 0,
            quality_counters: QualityCounters::register(&registry),
            registry,
            flight: None,
            spans: None,
            sampler: None,
            span_watermark: AtomicU64::new(0),
        })
    }

    /// Sets the identifier stamped on outgoing snapshots.
    pub fn with_vehicle_id(mut self, id: u64) -> Self {
        self.vehicle_id = Some(id);
        self
    }

    /// Rebinds this node's metrics onto the given shared registry (its
    /// engine counters under `rups_core_engine_*`, quality grades under
    /// `rups_core_quality_*`), so one registry can aggregate a node plus
    /// its V2V link and inbox into a single exported snapshot. Call before
    /// driving queries: the engine is re-created, so its caches start cold;
    /// a span recorder already attached stays attached.
    ///
    /// Metrics are per registry, not per node: every node rebound onto one
    /// registry (each vehicle on a `rups-fleet` shard) shares its counters,
    /// so [`RupsNode::engine_stats`] reports the registry's total.
    pub fn with_observability(mut self, registry: Arc<Registry>) -> Self {
        self.engine = SynQueryEngine::with_registry(self.cfg.clone(), Arc::clone(&registry));
        if let Some(spans) = &self.spans {
            self.engine.attach_spans(Arc::clone(spans));
        }
        self.quality_counters = QualityCounters::register(&registry);
        self.registry = registry;
        self
    }

    /// Attaches a span recorder to the node's query engine, so SYN query
    /// stages (`engine.query`, `engine.kernel_scan`, …) land in the shared
    /// trace ring alongside whatever else records into `spans`.
    pub fn with_span_recorder(mut self, spans: Arc<SpanRecorder>) -> Self {
        self.engine.attach_spans(Arc::clone(&spans));
        self.spans = Some(spans);
        self
    }

    /// Attaches a tail-based trace sampler. Requires a span recorder (wire
    /// [`RupsNode::with_span_recorder`] first): every
    /// [`RupsNode::fix_inbox_parallel`] pass drains the ring's new spans
    /// into the sampler, then settles each inbox snapshot's trace —
    /// anomalous outcomes (a miss, or a fix graded
    /// [`FixQuality::Low`]) always commit their trace's spans to the
    /// sampler's durable ring, ordinary traces commit only under its
    /// head-sampling rate — and settles every other buffered trace (a
    /// beacon replaced before the pass, say) as ordinary.
    pub fn with_trace_sampler(mut self, sampler: Arc<TailSampler>) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// The attached tail sampler, if any.
    pub fn trace_sampler(&self) -> Option<&Arc<TailSampler>> {
        self.sampler.as_ref()
    }

    /// Attaches a flight recorder. The recorder should watch the same
    /// registry as the node (wire both via [`RupsNode::with_observability`]
    /// first, then build the recorder over that registry): every
    /// [`RupsNode::fix_inbox_parallel`] call closes one observation window
    /// on it, and degraded fix attempts (a miss, or a fix graded
    /// [`FixQuality::Low`]) are recorded as structured [`FixReport`]s in
    /// its per-fix ring. See [`crate::report::default_flight_config`] for
    /// the trigger rules matched to this crate's metric names.
    pub fn with_flight_recorder(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// The metrics registry this node records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &RupsConfig {
        &self.cfg
    }

    /// Metres of journey context currently held.
    pub fn context_len(&self) -> usize {
        self.gsm.len()
    }

    /// The geographical half of the journey context.
    pub fn geo_trajectory(&self) -> &GeoTrajectory {
        &self.geo
    }

    /// The GSM-aware half of the journey context (raw: missing cells are
    /// `NaN`; interpolation happens at query/snapshot time).
    pub fn gsm_trajectory(&self) -> &GsmTrajectory {
        &self.gsm
    }

    /// Feeds one GSM scan sample into the binder (the "Collecting GSM
    /// channel RSSI" box of Fig. 5).
    pub fn push_scan(&mut self, sample: ScanSample) {
        self.binder.push_scan(sample);
    }

    /// Announces that the vehicle crossed the next metre mark: binds every
    /// pending scan sample into that metre's power vector and appends both
    /// halves of the journey context (the "Trajectory binding" box of
    /// Fig. 5).
    pub fn advance_metre(&mut self, geo: GeoSample) {
        let pv = self.binder.bind_metre(geo.timestamp_s);
        self.append(geo, &pv);
    }

    /// Directly appends a pre-bound metre (used when the caller does its own
    /// binding, e.g. in trace replay).
    pub fn append_metre(&mut self, geo: GeoSample, power: &PowerVector) -> Result<(), RupsError> {
        if power.n_channels() != self.cfg.n_channels {
            return Err(RupsError::ChannelMismatch {
                ours: self.cfg.n_channels,
                theirs: power.n_channels(),
            });
        }
        self.append(geo, power);
        Ok(())
    }

    fn append(&mut self, geo: GeoSample, power: &PowerVector) {
        self.geo.push(geo);
        self.gsm.push(power);
        if self.gsm.len() > self.cfg.max_context_m {
            let drop = self.gsm.len() - self.cfg.max_context_m;
            self.gsm.drain_front(drop);
            self.geo.drain_front(drop);
        }
        self.context_version = self.context_version.wrapping_add(1);
    }

    /// Produces the snapshot this vehicle would broadcast: the most recent
    /// `last_m` metres (or the whole context), with missing channels
    /// interpolated when the configuration asks for it.
    pub fn snapshot(&self, last_m: Option<usize>) -> ContextSnapshot {
        let len = last_m.unwrap_or(self.gsm.len()).min(self.gsm.len());
        let mut gsm = self.gsm.tail(len);
        if self.cfg.interpolate_missing {
            gsm.interpolate_missing();
        }
        ContextSnapshot {
            vehicle_id: self.vehicle_id,
            geo: self.geo.tail(len),
            gsm,
            trace: None,
        }
    }

    /// [`snapshot`](Self::snapshot) stamped with a freshly minted
    /// [`TraceContext`] rooted at this vehicle and beacon sequence `seq` —
    /// the sender half of a fleet-wide causal trace. Returns the context
    /// alongside so the caller can tag its own beacon span with
    /// [`TraceContext::args`]. A node with no `vehicle_id` cannot root a
    /// verifiable trace (the codec needs the sender id to protect the
    /// trace from wire damage) and returns the snapshot untraced.
    pub fn traced_snapshot(
        &self,
        last_m: Option<usize>,
        seq: u32,
    ) -> (ContextSnapshot, Option<TraceContext>) {
        let snap = self.snapshot(last_m);
        match self.vehicle_id {
            Some(id) => {
                let ctx = TraceContext::root(id, seq);
                (snap.with_trace(ctx), Some(ctx))
            }
            None => (snap, None),
        }
    }

    /// The caching query engine backing every distance query, with its
    /// context cache synchronised to the node's current journey context.
    /// Exposed so harnesses can inspect [`EngineStats`] or run
    /// [`SynQueryEngine::find_syn_points`] directly.
    pub fn engine(&self) -> &SynQueryEngine {
        self.engine.ensure_context(self.context_version, &self.gsm);
        &self.engine
    }

    /// Cache-hit / scratch-reuse / kernel counters of the query engine,
    /// read from the `rups_core_engine_*` counters of this node's registry.
    /// [`Registry::counter`] hands every engine on one registry the same
    /// handles, so nodes sharing a registry (via
    /// [`RupsNode::with_observability`]) each report the registry's total:
    /// summing `engine_stats()` over them counts every query once per node.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Answers a relative-distance query against a neighbour snapshot: the
    /// full RUPS pipeline of seeking SYN points (§IV-D) and resolving /
    /// aggregating the distance (§IV-E, §VI-C). This is the batch path of
    /// [`RupsNode::fix_distances_parallel`] run on one snapshot, whose
    /// passes run on the calling thread; a batch answers each neighbour bit
    /// for bit as this does.
    ///
    /// Positive distances mean the neighbour is ahead.
    pub fn fix_distance(&self, neighbour: &ContextSnapshot) -> Result<DistanceFix, RupsError> {
        let (mut out, _) = self.fix_batch(&[neighbour]);
        out.pop().expect("one result per snapshot").0
    }

    /// Continuous-tracking query (§V-B): like [`RupsNode::fix_distance`]
    /// but stateful per neighbour. The first query against a neighbour id
    /// runs the full multi-SYN search and keeps the shift of its newest SYN
    /// point as the anchor; subsequent queries run the engine's anchored
    /// check, which only verifies and refines that anchor within
    /// ±[`ANCHOR_SLACK_M`](crate::engine::ANCHOR_SLACK_M) metres — a
    /// fraction of the full cost, suitable for 10 Hz tracking. When the
    /// check loses the neighbour, the full search re-acquires it.
    ///
    /// Snapshots without a `vehicle_id` cannot be tracked and always take
    /// the full path.
    ///
    /// ```
    /// use rups_core::prelude::*;
    /// use rups_core::testfield;
    ///
    /// let cfg = RupsConfig { n_channels: 16, window_channels: 16, ..RupsConfig::default() };
    /// let mk = |start: usize| {
    ///     let mut node = RupsNode::new(cfg.clone()).with_vehicle_id(start as u64);
    ///     for i in 0..300 {
    ///         let s = (start + i) as f64;
    ///         node.append_metre(
    ///             GeoSample { heading_rad: 0.0, timestamp_s: s },
    ///             &PowerVector::from_fn(16, |ch| Some(testfield::rssi(1, s, ch))),
    ///         ).unwrap();
    ///     }
    ///     node
    /// };
    /// let mut rear = mk(0);
    /// let front = mk(45);
    /// let first = rear.tracked_fix(&front.snapshot(None)).unwrap();
    /// assert_eq!(first.mode, TrackMode::Full);
    /// let second = rear.tracked_fix(&front.snapshot(None)).unwrap();
    /// assert_eq!(second.mode, TrackMode::Incremental);
    /// assert!((second.distance_m - 45.0).abs() < 1.0);
    /// ```
    pub fn tracked_fix(&mut self, neighbour: &ContextSnapshot) -> Result<TrackedFix, RupsError> {
        // Validate first: the anchored check slides channel indices
        // straight over the neighbour rows and must never see a
        // mismatched snapshot.
        neighbour.validate(self.cfg.n_channels)?;
        let shift = |p: &SynPoint| p.self_end as i64 - p.other_end as i64;
        let anchor = neighbour
            .vehicle_id
            .and_then(|id| Some((id, *self.anchors.get(&id)?)));
        if let Some((id, anchor)) = anchor {
            let (ctx, _) = self.engine.ensure_context(self.context_version, &self.gsm);
            if let Some(p) = self.engine.anchored(&ctx, &neighbour.gsm, anchor) {
                self.anchors.insert(id, shift(&p));
                let len = ctx.gsm().len();
                return Ok(TrackedFix {
                    distance_m: resolve::resolve_relative_distance(&p, len, neighbour.len()),
                    score: p.score,
                    mode: TrackMode::Incremental,
                });
            }
        }
        let fix = self.fix_distance(neighbour)?;
        if let Some(id) = neighbour.vehicle_id {
            self.anchors.insert(id, shift(&fix.syn_points[0]));
        }
        Ok(TrackedFix {
            distance_m: fix.distance_m,
            score: fix.best_score,
            mode: TrackMode::Full,
        })
    }

    /// Drops the tracking anchor held for a neighbour (e.g. after it left
    /// radio range), so its next tracked fix runs the full search. Returns
    /// whether an anchor existed.
    pub fn forget_neighbour(&mut self, vehicle_id: u64) -> bool {
        self.anchors.remove(&vehicle_id).is_some()
    }

    /// Number of neighbours currently anchored.
    pub fn tracked_neighbours(&self) -> usize {
        self.anchors.len()
    }

    /// Fixes distances to many neighbours concurrently, preserving input
    /// order. This is the heavy-traffic path discussed in §V-B: one epoch of
    /// queries runs as a single batched search through the engine, its
    /// directed passes spread over the rayon workers, with the own-side
    /// caches shared across every pass. Each neighbour runs the kernel its
    /// own length picks, so the batch answers it bit for bit as
    /// [`RupsNode::fix_distance`] would.
    pub fn fix_distances_parallel(
        &self,
        neighbours: &[ContextSnapshot],
    ) -> Vec<Result<DistanceFix, RupsError>> {
        let refs: Vec<&ContextSnapshot> = neighbours.iter().collect();
        self.fix_batch(&refs)
            .0
            .into_iter()
            .map(|(res, _)| res)
            .collect()
    }

    /// The one fix path, with per-query [`QueryDiag`]s, plus whether the
    /// own context was served from the engine cache (false when this batch
    /// forced a rebuild). Every snapshot is validated before it is
    /// searched: one that fails keeps its typed error at its position and
    /// costs no query, and a batch with nothing valid leaves the engine
    /// untouched. The valid ones run as one engine search, and each answer
    /// is resolved into a fix on the caller.
    fn fix_batch(&self, neighbours: &[&ContextSnapshot]) -> (DiagBatch, bool) {
        let engine = &self.engine;
        let checks: Vec<Result<(), RupsError>> = neighbours
            .iter()
            .map(|nb| nb.validate(self.cfg.n_channels))
            .collect();
        let (ctx, rebuilt) = if checks.iter().any(Result::is_ok) {
            let (ctx, rebuilt) = engine.ensure_context(self.context_version, &self.gsm);
            (Some(ctx), rebuilt)
        } else {
            (None, false)
        };
        let kernel = |nb: &ContextSnapshot| match &ctx {
            Some(ctx) => engine.kernel_for(ctx, nb.gsm.len()),
            None => Kernel::Reference,
        };
        let batch: Vec<_> = neighbours
            .iter()
            .zip(&checks)
            .filter(|(_, check)| check.is_ok())
            .map(|(nb, _)| (&nb.gsm, nb.trace, kernel(nb)))
            .collect();
        let mut answers = ctx
            .as_ref()
            .map(|ctx| engine.search(ctx, &batch))
            .unwrap_or_default()
            .into_iter();
        let own_len = ctx.as_ref().map_or(0, |ctx| ctx.gsm().len());
        let out = neighbours
            .iter()
            .zip(checks)
            .map(|(nb, check)| {
                let (res, scanned) = match check {
                    Err(e) => (Err(e), 0),
                    Ok(()) => {
                        let (points, scanned) = answers.next().expect("one answer per query");
                        let fix = points.and_then(|p| engine.build_fix(own_len, nb.gsm.len(), p));
                        (fix, scanned)
                    }
                };
                (
                    res,
                    QueryDiag {
                        kernel: kernel(nb),
                        windows_scanned: scanned,
                    },
                )
            })
            .collect();
        (out, !rebuilt)
    }

    /// Queries every vetted, fresh-enough neighbour context held by a
    /// [`SnapshotInbox`] in one batched search, its directed passes spread
    /// over the rayon workers like those of
    /// [`RupsNode::fix_distances_parallel`], and grades each successful fix
    /// with [`assess`]. This is the degraded-operation entry point: a
    /// marginal context (short after a turn, weak correlation, disagreeing
    /// SYN points) still yields a fix — downgraded to
    /// [`crate::quality::FixQuality::Low`] with a widened error bound —
    /// while structurally invalid snapshots never reach this point because
    /// the inbox rejected them on arrival.
    pub fn fix_inbox_parallel(
        &self,
        inbox: &SnapshotInbox,
        now_s: f64,
        quality: &QualityConfig,
    ) -> Vec<(Option<u64>, Result<GradedFix, RupsError>)> {
        let fresh = inbox.fresh(now_s);
        let (fixes, context_cached) = self.fix_batch(&fresh);
        let out: Vec<(Option<u64>, Result<GradedFix, RupsError>)> = fresh
            .iter()
            .zip(fixes)
            .map(|(snap, (fix, diag))| {
                let graded = fix.map(|fix| {
                    let report = assess(&fix, quality);
                    match report.quality {
                        FixQuality::High => self.quality_counters.grade_high.inc(),
                        FixQuality::Medium => self.quality_counters.grade_medium.inc(),
                        FixQuality::Low => self.quality_counters.grade_low.inc(),
                    }
                    GradedFix { fix, report }
                });
                if graded.is_err() {
                    self.quality_counters.rejected.inc();
                }
                if let Some(flight) = &self.flight {
                    if let Some(report) =
                        self.explain_degraded(snap, &graded, diag, context_cached, now_s)
                    {
                        flight.record_fix(&report);
                    }
                }
                (snap.vehicle_id, graded)
            })
            .collect();
        if let Some(flight) = &self.flight {
            flight.observe(now_s);
        }
        if let Some(sampler) = &self.sampler {
            // Buffer this pass's spans first so each trace's provisional
            // buffer is complete before its verdict settles it.
            if let Some(spans) = &self.spans {
                let mark = self.span_watermark.load(Ordering::Relaxed);
                let (mark, new) = spans.take_since(mark);
                self.span_watermark.store(mark, Ordering::Relaxed);
                sampler.ingest(&new);
            }
            for (snap, (_, graded)) in fresh.iter().zip(out.iter()) {
                if let Some(trace) = snap.trace {
                    let anomalous = match graded {
                        Err(_) => true,
                        Ok(g) => g.report.quality == FixQuality::Low,
                    };
                    sampler.finish_trace(trace.trace_id, anomalous);
                }
            }
            // What is still buffered belongs to beacons this pass did not
            // fix (replaced, stale or rejected before it): no later pass
            // can give them a verdict.
            sampler.finish_buffered();
        }
        out
    }

    /// Builds the [`FixReport`] for a degraded outcome (an error, or a fix
    /// graded low); healthy fixes return `None`.
    fn explain_degraded(
        &self,
        snap: &ContextSnapshot,
        graded: &Result<GradedFix, RupsError>,
        diag: QueryDiag,
        context_cached: bool,
        now_s: f64,
    ) -> Option<FixReport> {
        let (outcome, error, best_score, threshold, grade) = match graded {
            Err(e) => {
                let (best, thr) = match e {
                    RupsError::NoSynPoint {
                        best_score,
                        threshold,
                    } => (
                        if best_score.is_finite() {
                            *best_score
                        } else {
                            0.0
                        },
                        *threshold,
                    ),
                    _ => (0.0, 0.0),
                };
                (FixOutcome::Miss, Some(e.to_string()), best, thr, None)
            }
            Ok(g) if g.report.quality == FixQuality::Low => (
                FixOutcome::LowGrade,
                None,
                g.fix.best_score,
                0.0,
                Some("low".to_string()),
            ),
            Ok(_) => return None,
        };
        let snapshot_age_s = snap
            .geo
            .samples()
            .last()
            .map(|s| (now_s - s.timestamp_s).max(0.0))
            .unwrap_or(0.0);
        Some(FixReport {
            t_s: now_s,
            neighbour_id: snap.vehicle_id,
            outcome,
            error,
            best_score,
            threshold,
            grade,
            windows_scanned: diag.windows_scanned as u64,
            kernel: diag.kernel.as_str().to_string(),
            context_cached,
            own_context_m: self.gsm.len(),
            neighbour_context_m: snap.len(),
            snapshot_age_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syn;

    /// Structured synthetic field, deterministic in road metre + channel.
    fn field(s: f64, ch: usize) -> f32 {
        crate::testfield::rssi(7, s, ch)
    }

    fn cfg() -> RupsConfig {
        RupsConfig {
            n_channels: 32,
            window_channels: 24,
            ..RupsConfig::default()
        }
    }

    fn drive(node: &mut RupsNode, start_m: usize, len: usize) {
        for i in 0..len {
            let s = (start_m + i) as f64;
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: s,
            };
            let pv = PowerVector::from_fn(32, |ch| Some(field(s, ch)));
            node.append_metre(geo, &pv).unwrap();
        }
    }

    #[test]
    fn end_to_end_distance_fix() {
        let mut a = RupsNode::new(cfg());
        let mut b = RupsNode::new(cfg()).with_vehicle_id(2);
        drive(&mut a, 0, 400);
        drive(&mut b, 70, 400);
        let snap = b.snapshot(None);
        assert_eq!(snap.vehicle_id, Some(2));
        let fix = a.fix_distance(&snap).unwrap();
        assert!(
            (fix.distance_m - 70.0).abs() < 1.0,
            "distance {}",
            fix.distance_m
        );
        assert!(!fix.syn_points.is_empty());
        assert_eq!(fix.syn_points.len(), fix.estimates_m.len());
        assert!(fix.best_score > 1.2);
        // Symmetry: from B's perspective A is behind.
        let fix_b = b.fix_distance(&a.snapshot(None)).unwrap();
        assert!(
            (fix_b.distance_m + 70.0).abs() < 1.0,
            "distance {}",
            fix_b.distance_m
        );
    }

    #[test]
    fn batch_agrees_with_single_fixes() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 350);
        let snaps: Vec<ContextSnapshot> = [25usize, 60, 90]
            .iter()
            .map(|&off| {
                let mut v = RupsNode::new(cfg());
                drive(&mut v, off, 350);
                v.snapshot(None)
            })
            .collect();
        let batch = a.fix_distances_parallel(&snaps);
        for (snap, fix) in snaps.iter().zip(&batch) {
            assert_eq!(fix.as_ref().unwrap(), &a.fix_distance(snap).unwrap());
        }
    }

    #[test]
    fn many_neighbours_in_parallel() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 400);
        let snaps: Vec<ContextSnapshot> = [30usize, 60, 90]
            .iter()
            .map(|&off| {
                let mut v = RupsNode::new(cfg());
                drive(&mut v, off, 400);
                v.snapshot(None)
            })
            .collect();
        let fixes = a.fix_distances_parallel(&snaps);
        assert_eq!(fixes.len(), 3);
        for (fix, expect) in fixes.iter().zip([30.0, 60.0, 90.0]) {
            let d = fix.as_ref().unwrap().distance_m;
            assert!((d - expect).abs() < 1.0, "expected {expect}, got {d}");
        }
    }

    #[test]
    fn rolling_context_is_bounded() {
        let mut a = RupsNode::new(RupsConfig {
            max_context_m: 100,
            n_channels: 8,
            window_channels: 8,
            ..RupsConfig::default()
        });
        for i in 0..250 {
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: i as f64,
            };
            let pv = PowerVector::from_fn(8, |ch| Some(field(i as f64, ch)));
            a.append_metre(geo, &pv).unwrap();
        }
        assert_eq!(a.context_len(), 100);
        assert_eq!(a.geo_trajectory().len(), 100);
        // The retained context is the most recent one.
        assert_eq!(a.geo_trajectory().samples()[0].timestamp_s, 150.0);
    }

    #[test]
    fn snapshot_respects_requested_length_and_interpolation() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 200);
        let snap = a.snapshot(Some(50));
        assert_eq!(snap.len(), 50);
        assert_eq!(snap.geo.len(), 50);
        // Default config interpolates: snapshot has full coverage even if
        // we now punch holes into the raw context.
        let mut holey = RupsNode::new(cfg());
        for i in 0..200 {
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: i as f64,
            };
            let pv =
                PowerVector::from_fn(32, |ch| ((ch + i) % 3 != 0).then(|| field(i as f64, ch)));
            holey.append_metre(geo, &pv).unwrap();
        }
        assert!(holey.gsm_trajectory().coverage() < 1.0);
        let snap = holey.snapshot(None);
        assert!((snap.gsm.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scan_binding_path_produces_same_context_as_direct_append() {
        // Drive 3 m at 1 m/s, scanning 4 channels per metre interval.
        let mut node = RupsNode::new(RupsConfig {
            n_channels: 4,
            window_channels: 4,
            ..RupsConfig::default()
        });
        for metre in 0..3usize {
            let t0 = metre as f64;
            for ch in 0..4usize {
                node.push_scan(ScanSample {
                    timestamp_s: t0 + 0.2 * (ch as f64 + 1.0),
                    channel: ch,
                    rssi_dbm: field(metre as f64, ch),
                });
            }
            node.advance_metre(GeoSample {
                heading_rad: 0.0,
                timestamp_s: t0 + 1.0,
            });
        }
        assert_eq!(node.context_len(), 3);
        let g = node.gsm_trajectory();
        for metre in 0..3 {
            for ch in 0..4 {
                assert_eq!(g.get(ch, metre), Some(field(metre as f64, ch)));
            }
        }
    }

    #[test]
    fn unrelated_vehicles_get_no_fix() {
        let mut a = RupsNode::new(cfg());
        let mut b = RupsNode::new(cfg());
        drive(&mut a, 0, 300);
        drive(&mut b, 500_000, 300);
        assert!(matches!(
            a.fix_distance(&b.snapshot(None)),
            Err(RupsError::NoSynPoint { .. })
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let bad = RupsConfig {
            window_len_m: 0,
            ..RupsConfig::default()
        };
        assert!(matches!(
            RupsNode::try_new(bad),
            Err(RupsError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tracked_fix_goes_incremental_and_can_forget() {
        use crate::tracker::TrackMode;
        let mut a = RupsNode::new(cfg());
        let mut b = RupsNode::new(cfg()).with_vehicle_id(9);
        drive(&mut a, 0, 400);
        drive(&mut b, 70, 400);
        let snap = b.snapshot(None);
        let f0 = a.tracked_fix(&snap).unwrap();
        assert_eq!(f0.mode, TrackMode::Full);
        assert!((f0.distance_m - 70.0).abs() < 1.0);
        assert_eq!(a.tracked_neighbours(), 1);
        // Both advance 15 m; the second query is incremental.
        drive(&mut a, 400, 15);
        drive(&mut b, 470, 15);
        let f1 = a.tracked_fix(&b.snapshot(None)).unwrap();
        assert_eq!(f1.mode, TrackMode::Incremental);
        assert!((f1.distance_m - 70.0).abs() < 1.0, "got {}", f1.distance_m);
        assert!(a.forget_neighbour(9));
        assert!(!a.forget_neighbour(9));
        assert_eq!(a.tracked_neighbours(), 0);
        // Anonymous snapshots always run the full path and hold no state.
        let anon = ContextSnapshot {
            vehicle_id: None,
            ..b.snapshot(None)
        };
        let f2 = a.tracked_fix(&anon).unwrap();
        assert_eq!(f2.mode, TrackMode::Full);
        assert_eq!(a.tracked_neighbours(), 0);
    }

    /// A 16-channel node, every channel in the window, keeping
    /// `context_m` metres.
    fn tracking_node(context_m: usize) -> RupsNode {
        RupsNode::new(RupsConfig {
            n_channels: 16,
            window_channels: 16,
            max_context_m: context_m,
            ..RupsConfig::default()
        })
    }

    /// Appends road metres `road` of testfield `seed` to `node`.
    fn drive_field(node: &mut RupsNode, seed: u64, road: std::ops::Range<usize>) {
        for i in road {
            let s = i as f64;
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: s,
            };
            let pv = PowerVector::from_fn(16, |ch| Some(crate::testfield::rssi(seed, s, ch)));
            node.append_metre(geo, &pv).unwrap();
        }
    }

    /// Vehicle `id`'s beacon: road metres `start..start + 300` of
    /// testfield `seed`.
    fn tracked_neighbour(seed: u64, start: usize, id: u64) -> ContextSnapshot {
        let mut node = tracking_node(300).with_vehicle_id(id);
        drive_field(&mut node, seed, start..start + 300);
        node.snapshot(None)
    }

    #[test]
    fn first_tracked_fix_is_full_then_incremental() {
        use crate::tracker::TrackMode;
        let mut ours = tracking_node(300);
        drive_field(&mut ours, 1, 0..300);
        assert_eq!(ours.tracked_neighbours(), 0);
        let f0 = ours.tracked_fix(&tracked_neighbour(1, 40, 2)).unwrap();
        assert_eq!(f0.mode, TrackMode::Full);
        assert!((f0.distance_m - 40.0).abs() < 1.0);
        assert_eq!(ours.tracked_neighbours(), 1);

        // Both vehicles advance 10 m: same shift, incremental path.
        drive_field(&mut ours, 1, 300..310);
        let f1 = ours.tracked_fix(&tracked_neighbour(1, 50, 2)).unwrap();
        assert_eq!(f1.mode, TrackMode::Incremental);
        assert!((f1.distance_m - 40.0).abs() < 1.0, "got {}", f1.distance_m);
    }

    #[test]
    fn tracked_fix_follows_a_changing_gap() {
        use crate::tracker::TrackMode;
        let mut ours = tracking_node(300);
        drive_field(&mut ours, 2, 0..300);
        let mut gap = 40usize;
        ours.tracked_fix(&tracked_neighbour(2, gap, 2)).unwrap();
        // The gap drifts by up to ±6 m between queries; the ±25 m slack
        // keeps the anchored check locked.
        for step in 0..10usize {
            gap = if step % 2 == 0 { gap + 6 } else { gap - 3 };
            if step > 0 {
                drive_field(&mut ours, 2, step * 10 + 290..step * 10 + 300);
            }
            let fix = ours
                .tracked_fix(&tracked_neighbour(2, step * 10 + gap, 2))
                .unwrap();
            assert_eq!(fix.mode, TrackMode::Incremental, "step {step}");
            assert!(
                (fix.distance_m - gap as f64).abs() < 1.0,
                "step {step}: {}",
                fix.distance_m
            );
        }
    }

    #[test]
    fn losing_the_neighbour_falls_back_to_full_search() {
        use crate::tracker::TrackMode;
        let mut ours = tracking_node(300);
        drive_field(&mut ours, 3, 0..300);
        ours.tracked_fix(&tracked_neighbour(3, 30, 2)).unwrap();
        // The neighbour "jumps" 80 m (way outside the slack): the anchored
        // check fails and the full search re-acquires.
        let fix = ours.tracked_fix(&tracked_neighbour(3, 110, 2)).unwrap();
        assert_eq!(fix.mode, TrackMode::Full);
        assert!(
            (fix.distance_m - 110.0).abs() < 1.0,
            "got {}",
            fix.distance_m
        );
        // And the next small step is incremental again.
        let fix = ours.tracked_fix(&tracked_neighbour(3, 112, 2)).unwrap();
        assert_eq!(fix.mode, TrackMode::Incremental);
    }

    #[test]
    fn unrelated_tracked_contexts_error_cleanly() {
        let mut ours = tracking_node(300);
        drive_field(&mut ours, 4, 0..300);
        let mut theirs = tracking_node(300).with_vehicle_id(2);
        drive_field(&mut theirs, 999, 0..300);
        assert!(matches!(
            ours.tracked_fix(&theirs.snapshot(None)),
            Err(RupsError::NoSynPoint { .. })
        ));
        assert_eq!(ours.tracked_neighbours(), 0, "a miss holds no anchor");
    }

    #[test]
    fn forgetting_a_neighbour_forces_full_search() {
        use crate::tracker::TrackMode;
        let mut ours = tracking_node(300);
        drive_field(&mut ours, 5, 0..300);
        let theirs = tracked_neighbour(5, 20, 2);
        ours.tracked_fix(&theirs).unwrap();
        assert!(ours.forget_neighbour(2));
        assert_eq!(ours.tracked_neighbours(), 0);
        let fix = ours.tracked_fix(&theirs).unwrap();
        assert_eq!(fix.mode, TrackMode::Full);
    }

    #[test]
    fn span_recorder_survives_either_builder_order() {
        let theirs = tracked_neighbour(9, 45, 2);
        let registry = || Arc::new(Registry::new());
        for spans_first in [true, false] {
            let spans = Arc::new(SpanRecorder::new(4096));
            let node = tracking_node(300);
            let mut ours = if spans_first {
                node.with_span_recorder(Arc::clone(&spans))
                    .with_observability(registry())
            } else {
                node.with_observability(registry())
                    .with_span_recorder(Arc::clone(&spans))
            };
            drive_field(&mut ours, 9, 0..300);
            let fix = ours.fix_distance(&theirs).unwrap();
            assert!(
                (fix.distance_m - 45.0).abs() < 1.0,
                "got {}",
                fix.distance_m
            );
            let queries = spans
                .recent()
                .iter()
                .filter(|r| r.name == "engine.query")
                .count();
            if cfg!(feature = "obs") {
                assert_eq!(queries, 1, "spans first: {spans_first}");
            }
        }
    }

    #[test]
    fn incremental_fixes_are_engine_queries() {
        use crate::tracker::TrackMode;
        let spans = Arc::new(SpanRecorder::new(4096));
        let mut ours = tracking_node(300).with_span_recorder(Arc::clone(&spans));
        drive_field(&mut ours, 6, 0..300);
        let first = ours.tracked_fix(&tracked_neighbour(6, 40, 2)).unwrap();
        assert_eq!(first.mode, TrackMode::Full);
        // A new context version: the first anchored check builds today's
        // window, every later one reads it from the memo.
        drive_field(&mut ours, 6, 300..310);
        let (mut mark, _) = spans.take_since(0);
        for (i, gap) in [40usize, 42, 38].into_iter().enumerate() {
            let before = ours.engine_stats();
            let fix = ours
                .tracked_fix(&tracked_neighbour(6, 10 + gap, 2))
                .unwrap();
            assert_eq!(fix.mode, TrackMode::Incremental, "fix {i}");
            let d = ours.engine_stats().delta(&before);
            assert_eq!((d.queries, d.reference_passes), (1, 1), "fix {i}: {d:?}");
            assert_eq!(d.fft_passes, 0, "fix {i}: {d:?}");
            // The anchored pass takes the pruned peak too.
            assert!(d.pruned_placements > 0, "fix {i}: {d:?}");
            let memo = if i == 0 { (0, 1) } else { (1, 0) };
            assert_eq!((d.window_hits, d.window_misses), memo, "fix {i}: {d:?}");
            let (next, new) = spans.take_since(mark);
            mark = next;
            let count = |name: &str| new.iter().filter(|r| r.name == name).count();
            if cfg!(feature = "obs") {
                assert_eq!(count("engine.query"), 1, "fix {i}");
                assert_eq!(count("engine.kernel_scan"), 1, "fix {i}");
            }
        }
    }

    #[test]
    fn parallel_batch_builds_each_window_once() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 400);
        let snaps: Vec<ContextSnapshot> = (0..8usize)
            .map(|k| {
                let mut v = RupsNode::new(cfg());
                drive(&mut v, 30 + 5 * k, 400);
                v.snapshot(None)
            })
            .collect();
        let before = a.engine_stats();
        let fixes = a.fix_distances_parallel(&snaps);
        assert!(fixes.iter().all(|f| f.is_ok()));
        let d = a.engine_stats().delta(&before);
        // Equal lengths share one window length, so the own windows differ
        // only in where the multi-SYN segments end.
        let c = cfg();
        let placements = (0..c.n_syn_points)
            .filter(|s| s * c.syn_segment_stride_m + c.window_len_m <= 400)
            .count() as u64;
        assert_eq!(d.window_misses, placements, "{d:?}");
        assert_eq!(d.window_hits, 7 * placements, "{d:?}");
    }

    #[test]
    fn zero_length_snapshot_and_empty_neighbour() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 200);
        let empty = a.snapshot(Some(0));
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        // Fixing against an empty neighbour context errors cleanly.
        let b = RupsNode::new(cfg());
        assert!(matches!(
            a.fix_distance(&b.snapshot(None)),
            Err(RupsError::InsufficientContext { .. })
        ));
    }

    #[test]
    fn append_metre_channel_mismatch() {
        let mut a = RupsNode::new(cfg());
        let geo = GeoSample {
            heading_rad: 0.0,
            timestamp_s: 0.0,
        };
        let pv = PowerVector::missing(7);
        assert!(matches!(
            a.append_metre(geo, &pv),
            Err(RupsError::ChannelMismatch {
                ours: 32,
                theirs: 7
            })
        ));
    }

    /// A neighbour snapshot carrying a different band width than ours.
    fn mismatched_neighbour(start_m: usize, len: usize, n_channels: usize) -> ContextSnapshot {
        let mut v = RupsNode::new(RupsConfig {
            n_channels,
            window_channels: n_channels.min(24),
            ..RupsConfig::default()
        });
        for i in 0..len {
            let s = (start_m + i) as f64;
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: s,
            };
            let pv = PowerVector::from_fn(n_channels, |ch| Some(field(s, ch)));
            v.append_metre(geo, &pv).unwrap();
        }
        v.snapshot(None)
    }

    #[test]
    fn neighbour_channel_mismatch_is_a_typed_error_on_every_query_path() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 400);
        let bad = mismatched_neighbour(70, 400, 16);
        assert!(matches!(
            a.fix_distance(&bad),
            Err(RupsError::ChannelMismatch {
                ours: 32,
                theirs: 16
            })
        ));
        // Tracked path: previously the anchored incremental re-query could
        // bypass the engine's check; validation now happens up front and no
        // tracker state is created for the bad neighbour.
        let bad_id = ContextSnapshot {
            vehicle_id: Some(5),
            ..bad.clone()
        };
        assert!(matches!(
            a.tracked_fix(&bad_id),
            Err(RupsError::ChannelMismatch { .. })
        ));
        assert_eq!(a.tracked_neighbours(), 0);
    }

    #[test]
    fn misaligned_snapshot_halves_are_rejected_not_undefined() {
        let mut a = RupsNode::new(cfg());
        let mut b = RupsNode::new(cfg());
        drive(&mut a, 0, 400);
        drive(&mut b, 70, 400);
        let mut bad = b.snapshot(None);
        bad.geo = bad.geo.tail(300); // gsm still has 400 columns
        assert!(matches!(
            a.fix_distance(&bad),
            Err(RupsError::MalformedSnapshot(_))
        ));
        assert!(matches!(
            a.tracked_fix(&bad),
            Err(RupsError::MalformedSnapshot(_))
        ));
    }

    #[test]
    fn batch_rejects_bad_snapshots_before_searching_them() {
        let mut a = RupsNode::new(cfg());
        let mut b = RupsNode::new(cfg());
        drive(&mut a, 0, 400);
        drive(&mut b, 70, 400);
        let mut misaligned = b.snapshot(None);
        misaligned.geo = misaligned.geo.tail(300);
        let snaps = vec![misaligned, mismatched_neighbour(70, 400, 16)];
        let before = a.engine_stats();
        let fixes = a.fix_distances_parallel(&snaps);
        assert!(matches!(fixes[0], Err(RupsError::MalformedSnapshot(_))));
        assert!(matches!(fixes[1], Err(RupsError::ChannelMismatch { .. })));
        assert_eq!(
            a.engine_stats(),
            before,
            "a rejected snapshot costs no search"
        );
    }

    /// A fix with its scores as bits, or its error (a miss's best score
    /// and threshold as bits), and the directed passes its query scanned.
    type AnswerBits = (Result<(u64, Vec<[u64; 5]>), String>, u32);

    fn answer_bits((res, diag): &(Result<DistanceFix, RupsError>, QueryDiag)) -> AnswerBits {
        let bits = match res {
            Ok(fix) => Ok((
                fix.distance_m.to_bits(),
                fix.syn_points
                    .iter()
                    .map(|p| {
                        let (score, refine) = (p.score.to_bits(), p.refine_m.to_bits());
                        let ends = [p.self_end, p.other_end, p.window_len].map(|e| e as u64);
                        [ends[0], ends[1], score, refine, ends[2]]
                    })
                    .collect(),
            )),
            Err(RupsError::NoSynPoint {
                best_score,
                threshold,
            }) => Err(format!(
                "miss {:x} {:x}",
                best_score.to_bits(),
                threshold.to_bits()
            )),
            Err(e) => Err(format!("{e:?}")),
        };
        (bits, diag.windows_scanned)
    }

    #[test]
    fn a_batch_fixes_alike_on_any_number_of_workers() {
        // A 40 m window over 400 m of context runs the rolling reference
        // kernel; an 85 m one over 300 m runs FFT, except for the last
        // neighbour: its 100 m shrink the window to 60 m, below 8·log₂ 300,
        // so it runs the reference kernel in any batch.
        for (window_len_m, own_m, kernel) in [(40, 400, Kernel::Reference), (85, 300, Kernel::Fft)]
        {
            let c = RupsConfig {
                window_len_m,
                ..cfg()
            };
            let mut a = RupsNode::new(c.clone());
            drive(&mut a, 0, own_m);
            let neighbour = |start: usize, len: usize| {
                let mut v = RupsNode::new(c.clone());
                drive(&mut v, start, len);
                v
            };
            // Two hits, a channel-mismatched snapshot, a miss (a far-away
            // road), a neighbour too short for any window, and a short
            // neighbour on the last 100 m of our road.
            let snaps = [
                neighbour(60, own_m - 50).snapshot(None),
                mismatched_neighbour(60, 300, 16),
                neighbour(100_000, 300).snapshot(None),
                neighbour(30, 300).snapshot(Some(6)),
                neighbour(25, own_m).snapshot(None),
                neighbour(own_m - 100, 100).snapshot(None),
            ];
            let refs: Vec<&ContextSnapshot> = snaps.iter().collect();
            let counters = |s: EngineStats| {
                let (passes, pruned) = (s.reference_passes + s.fft_passes, s.pruned_placements);
                [s.queries, passes, pruned, s.window_hits, s.window_misses]
            };
            // Each run on a clone: a fresh registry and cold caches.
            let run = |workers: usize| {
                let node = a.clone();
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .unwrap();
                let (out, _) = pool.install(|| node.fix_batch(&refs));
                // Each searched neighbour (all but the mismatched one) runs
                // the kernel its own length picks, whatever the rest run.
                for (i, (snap, (_, diag))) in snaps.iter().zip(&out).enumerate() {
                    let alone = node.engine().choose_kernel(snap.len());
                    assert!(i == 1 || diag.kernel == alone, "neighbour {i}: {diag:?}");
                }
                assert_eq!(
                    (out[0].1.kernel, out[5].1.kernel),
                    (kernel, Kernel::Reference)
                );
                let bits: Vec<AnswerBits> = out.iter().map(answer_bits).collect();
                (bits, counters(node.engine_stats()))
            };
            let one = run(1);
            assert_eq!(run(2), one, "{kernel:?}: 2 workers");
            assert_eq!(run(3), one, "{kernel:?}: 3 workers");
            // The same snapshots fixed one at a time, in turn.
            let node = a.clone();
            let alone: Vec<AnswerBits> = refs
                .iter()
                .map(|&snap| answer_bits(&node.fix_batch(&[snap]).0[0]))
                .collect();
            assert_eq!((alone, counters(node.engine_stats())), one, "{kernel:?}");
            let (bits, _) = &one;
            assert!(bits[0].0.is_ok() && bits[4].0.is_ok(), "{bits:?}");
            // Every segment of the first hit has both windows: on FFT, its
            // four older forward passes, spread over the workers, read the
            // neighbour spectra its newest one filled.
            assert_eq!(bits[0].1, 2 * c.n_syn_points as u32, "{bits:?}");
            assert!(bits[1]
                .0
                .as_ref()
                .is_err_and(|e| e.starts_with("ChannelMismatch")));
            assert!(bits[2].0.as_ref().is_err_and(|e| e.starts_with("miss")));
            assert!(bits[3]
                .0
                .as_ref()
                .is_err_and(|e| e.starts_with("InsufficientContext")));
            if kernel == Kernel::Reference {
                // The search of record, per neighbour: a floored miss
                // reports its best score bit for bit.
                let ctx = node.engine().own_context().unwrap();
                for (i, snap) in snaps.iter().enumerate().filter(|&(i, _)| i != 1) {
                    let expect = syn::find_syn_points(ctx.gsm(), &snap.gsm, &c).and_then(|p| {
                        DistanceFix::from_syn_points(p, own_m, snap.len(), c.aggregation)
                    });
                    let diag = QueryDiag {
                        kernel,
                        windows_scanned: bits[i].1,
                    };
                    assert_eq!(answer_bits(&(expect, diag)), bits[i], "neighbour {i}");
                }
            }
        }
    }

    #[test]
    fn a_traced_batch_spans_and_times_each_query() {
        let spans = Arc::new(SpanRecorder::new(4096));
        let registry = Arc::new(Registry::new());
        let mut a = RupsNode::new(cfg())
            .with_observability(Arc::clone(&registry))
            .with_span_recorder(Arc::clone(&spans));
        drive(&mut a, 0, 400);
        let snaps: Vec<ContextSnapshot> = [(2, 30), (3, 100_000), (4, 60)]
            .into_iter()
            .map(|(id, start)| {
                let mut v = RupsNode::new(cfg()).with_vehicle_id(id);
                drive(&mut v, start, 350);
                v.traced_snapshot(None, 7).0
            })
            .collect();
        let fixes = a.fix_distances_parallel(&snaps);
        assert!(fixes[0].is_ok() && fixes[1].is_err() && fixes[2].is_ok());
        if cfg!(feature = "obs") {
            let queries: Vec<_> = spans
                .recent()
                .into_iter()
                .filter(|r| r.name == "engine.query")
                .collect();
            assert_eq!(queries.len(), 3);
            for snap in &snaps {
                let trace = snap.trace.expect("traced beacon").args();
                let joined: Vec<_> = queries
                    .iter()
                    .filter(|r| trace.iter().all(|(k, v)| r.args.get(k) == Some(v)))
                    .collect();
                assert_eq!(joined.len(), 1, "{snap:?}");
                assert_eq!(joined[0].args.get("neighbour_len_m"), Some(350));
            }
            let samples = registry.snapshot();
            let query_ns = samples.histogram("rups_core_engine_query_ns").unwrap();
            assert_eq!(query_ns.count, 3);
        }
    }

    #[test]
    fn parallel_batch_isolates_bad_snapshots_per_slot() {
        let mut a = RupsNode::new(cfg());
        drive(&mut a, 0, 400);
        let mut good = RupsNode::new(cfg());
        drive(&mut good, 60, 400);
        let snaps = vec![
            good.snapshot(None),
            mismatched_neighbour(60, 400, 16),
            good.snapshot(Some(0)),
        ];
        let fixes = a.fix_distances_parallel(&snaps);
        assert_eq!(fixes.len(), 3);
        let d = fixes[0].as_ref().unwrap().distance_m;
        assert!((d - 60.0).abs() < 1.0, "good slot got {d}");
        assert!(matches!(fixes[1], Err(RupsError::ChannelMismatch { .. })));
        assert!(matches!(
            fixes[2],
            Err(RupsError::InsufficientContext { .. })
        ));
    }

    #[test]
    fn inbox_fed_fixes_are_graded_not_rejected() {
        use crate::inbox::{InboxConfig, SnapshotInbox};
        use crate::quality::QualityConfig;

        let mut a = RupsNode::new(cfg());
        let mut b = RupsNode::new(cfg()).with_vehicle_id(2);
        let mut c = RupsNode::new(cfg()).with_vehicle_id(3);
        drive(&mut a, 0, 400);
        drive(&mut b, 70, 400);
        drive(&mut c, 120, 400);

        // Timestamps track road metres here, so b's newest metre is t = 469
        // and c's is t = 519; a 60 s horizon keeps both fresh at t = 521.
        let mut inbox = SnapshotInbox::new(InboxConfig::for_rups(&cfg(), 60.0));
        let now = 521.0;
        assert!(inbox.accept(b.snapshot(None), now).unwrap());
        assert!(inbox.accept(c.snapshot(None), now).unwrap());
        // A wrong-band snapshot never reaches the query path.
        assert!(inbox
            .accept(mismatched_neighbour(70, 400, 16), now)
            .is_err());

        let out = a.fix_inbox_parallel(&inbox, now, &QualityConfig::default());
        assert_eq!(out.len(), 2);
        for (id, graded) in &out {
            let graded = graded.as_ref().expect("vetted snapshots should fix");
            let expect = match id {
                Some(2) => 70.0,
                Some(3) => 120.0,
                other => panic!("unexpected neighbour {other:?}"),
            };
            assert!(
                (graded.fix.distance_m - expect).abs() < 1.0,
                "neighbour {id:?} got {}",
                graded.fix.distance_m
            );
            // Fixes come graded, with a finite positive error bound.
            assert!(graded.report.error_bound_m.is_finite());
            assert!(graded.report.error_bound_m > 0.0);
        }
        // Once everything went stale, the query path sees nothing at all.
        let out = a.fix_inbox_parallel(&inbox, now + 100.0, &QualityConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn flight_recorder_gets_fix_reports_and_fires_on_error_spike() {
        use crate::inbox::{InboxConfig, SnapshotInbox};
        use crate::quality::QualityConfig;
        use crate::report::default_flight_config;
        use rups_obs::Registry;
        use serde::value::Value;
        use std::sync::Arc;

        let reg = Arc::new(Registry::new());
        let flight = Arc::new(FlightRecorder::new(
            default_flight_config(),
            Arc::clone(&reg),
        ));
        let mut a = RupsNode::new(cfg())
            .with_observability(Arc::clone(&reg))
            .with_flight_recorder(Arc::clone(&flight));
        assert!(a.flight_recorder().is_some());
        drive(&mut a, 0, 400);

        let mut inbox = SnapshotInbox::new(InboxConfig::for_rups(&cfg(), 60.0));
        let now = 471.0;
        // One genuine neighbour…
        let mut b = RupsNode::new(cfg()).with_vehicle_id(2);
        drive(&mut b, 70, 400);
        assert!(inbox.accept(b.snapshot(None), now).unwrap());
        // …and four structurally valid strangers whose GSM field is
        // unrelated (different testfield seed, same metres/timestamps), so
        // every SYN search against them misses.
        for i in 0..4u64 {
            let mut rogue = RupsNode::new(cfg()).with_vehicle_id(100 + i);
            for j in 0..400usize {
                let s = (70 + j) as f64;
                let geo = GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: s,
                };
                let pv = PowerVector::from_fn(32, |ch| Some(crate::testfield::rssi(40 + i, s, ch)));
                rogue.append_metre(geo, &pv).unwrap();
            }
            assert!(inbox.accept(rogue.snapshot(None), now).unwrap());
        }

        // First pass opens the observation window; the second one is
        // evaluated against it and carries a 4/5 error rate.
        let out = a.fix_inbox_parallel(&inbox, now, &QualityConfig::default());
        assert_eq!(out.iter().filter(|(_, g)| g.is_err()).count(), 4);
        a.fix_inbox_parallel(&inbox, now, &QualityConfig::default());
        assert!(flight.has_triggered(), "fix-error spike must fire");

        let dump = flight.dump();
        assert!(dump.triggered.iter().any(|t| t.rule == "fix_error_spike"));
        assert!(!dump.windows.is_empty(), "registry deltas retained");
        assert!(dump.fixes.len() >= 8, "one FixReport per miss per pass");
        // The reports are structured: kernel, scan counts, context state.
        let Value::Map(kv) = dump.fixes.last().unwrap() else {
            panic!("fix reports must be JSON objects");
        };
        let get = |key: &str| kv.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(get("outcome").and_then(|v| v.as_str()), Some("Miss"));
        assert!(get("kernel").and_then(|v| v.as_str()).is_some());
        assert!(get("windows_scanned").and_then(|v| v.as_u64()).unwrap() > 0);
        assert_eq!(get("own_context_m").and_then(|v| v.as_u64()), Some(400));
        assert!(get("snapshot_age_s").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        // Healthy fixes stay out of the ring: every report is a miss here.
        assert!(dump.fixes.iter().all(|f| matches!(
            f,
            Value::Map(kv) if kv.iter().any(|(k, v)| k == "outcome" && v.as_str() == Some("Miss"))
        )));
    }

    #[test]
    fn tail_sampler_keeps_anomalous_traces_and_sheds_ordinary_ones() {
        use crate::inbox::{InboxConfig, SnapshotInbox};
        use crate::quality::QualityConfig;
        use rups_obs::{SampleConfig, TailSampler, TRACE_ARG};
        use std::sync::Arc;

        let spans = Arc::new(SpanRecorder::new(4096));
        // head_rate 0: only anomalous traces may commit.
        let sampler = Arc::new(TailSampler::new(SampleConfig {
            head_rate: 0.0,
            ..SampleConfig::default()
        }));
        let mut a = RupsNode::new(cfg())
            .with_span_recorder(Arc::clone(&spans))
            .with_trace_sampler(Arc::clone(&sampler));
        assert!(a.trace_sampler().is_some());
        drive(&mut a, 0, 400);

        // One genuine neighbour and one structurally valid stranger whose
        // unrelated GSM field guarantees a miss; both broadcast traced.
        let mut b = RupsNode::new(cfg()).with_vehicle_id(2);
        drive(&mut b, 70, 400);
        let (good_snap, good_trace) = b.traced_snapshot(None, 1);
        let mut rogue = RupsNode::new(cfg()).with_vehicle_id(66);
        for j in 0..400usize {
            let s = (70 + j) as f64;
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: s,
            };
            let pv = PowerVector::from_fn(32, |ch| Some(crate::testfield::rssi(40, s, ch)));
            rogue.append_metre(geo, &pv).unwrap();
        }
        let (rogue_snap, rogue_trace) = rogue.traced_snapshot(None, 1);
        let (good_trace, rogue_trace) = (good_trace.unwrap(), rogue_trace.unwrap());

        let mut inbox = SnapshotInbox::new(InboxConfig::for_rups(&cfg(), 60.0));
        let now = 521.0;
        assert!(inbox.accept(good_snap, now).unwrap());
        assert!(inbox.accept(rogue_snap, now).unwrap());
        let out = a.fix_inbox_parallel(&inbox, now, &QualityConfig::default());
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().filter(|(_, g)| g.is_err()).count(), 1);

        let stats = sampler.stats();
        if cfg!(feature = "obs") {
            assert_eq!(stats.traces_finished, 2, "both traces settled");
            // The miss's trace committed its spans; the healthy trace was
            // shed (head rate zero), so every committed traced span belongs
            // to the rogue trace.
            assert!(stats.traces_committed >= 1);
            let committed = sampler.committed();
            let traced: Vec<i64> = committed
                .iter()
                .filter_map(|r| r.args.get(TRACE_ARG))
                .collect();
            assert!(
                traced.iter().any(|&t| t as u64 == rogue_trace.trace_id),
                "anomalous trace must be retained"
            );
            assert!(
                traced.iter().all(|&t| t as u64 != good_trace.trace_id),
                "ordinary trace must be shed at head rate zero"
            );
        } else {
            // Without `obs` the span ring is compiled out, so no trace ever
            // buffers spans and settlement is a no-op.
            assert_eq!(stats.traces_finished, 0);
            assert!(sampler.committed().is_empty());
        }
    }

    #[test]
    fn replaced_beacons_settle_their_traces_at_the_next_fix() {
        use crate::inbox::{InboxConfig, SnapshotInbox};
        use crate::quality::QualityConfig;
        use rups_obs::{SampleConfig, TailSampler};
        use std::sync::Arc;

        let spans = Arc::new(SpanRecorder::new(4096));
        let sampler = Arc::new(TailSampler::new(SampleConfig::default()));
        let mut a = RupsNode::new(cfg())
            .with_span_recorder(Arc::clone(&spans))
            .with_trace_sampler(Arc::clone(&sampler));
        drive(&mut a, 0, 400);
        let mut inbox =
            SnapshotInbox::new(InboxConfig::for_rups(&cfg(), 60.0)).with_spans(Arc::clone(&spans));
        // Three traced beacons from one sender, each replacing the last:
        // every intake tags an `inbox.validate` span with its own trace.
        let mut b = RupsNode::new(cfg()).with_vehicle_id(2);
        drive(&mut b, 70, 400);
        for seq in 1..=3u32 {
            drive(&mut b, 469 + seq as usize, 1);
            let (snap, _) = b.traced_snapshot(None, seq);
            assert!(inbox.accept(snap, 521.0).unwrap());
        }
        assert_eq!(inbox.len(), 1);
        let out = a.fix_inbox_parallel(&inbox, 521.0, &QualityConfig::default());
        assert_eq!(out.len(), 1);
        // The held beacon's trace settles on its verdict and the two it
        // replaced as ordinary; without `obs` no span ever buffers.
        let settled = if cfg!(feature = "obs") { 3 } else { 0 };
        assert_eq!(sampler.stats().traces_finished, settled);
    }

    #[test]
    fn quality_grades_land_in_the_shared_registry() {
        use crate::inbox::{InboxConfig, SnapshotInbox};
        use crate::quality::QualityConfig;
        use rups_obs::Registry;
        use std::sync::Arc;

        let reg = Arc::new(Registry::new());
        let mut a = RupsNode::new(cfg()).with_observability(Arc::clone(&reg));
        assert!(Arc::ptr_eq(a.registry(), &reg));
        let mut b = RupsNode::new(cfg()).with_vehicle_id(2);
        drive(&mut a, 0, 400);
        drive(&mut b, 70, 400);

        let mut inbox = SnapshotInbox::new(InboxConfig::for_rups(&cfg(), 60.0));
        let now = 471.0;
        assert!(inbox.accept(b.snapshot(None), now).unwrap());
        let out = a.fix_inbox_parallel(&inbox, now, &QualityConfig::default());
        let ok = out.iter().filter(|(_, g)| g.is_ok()).count() as u64;
        assert_eq!(ok, 1);

        let snap = reg.snapshot();
        let graded: u64 = [
            "rups_core_quality_grade_high",
            "rups_core_quality_grade_medium",
            "rups_core_quality_grade_low",
        ]
        .iter()
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
        assert_eq!(
            graded, ok,
            "every graded fix must bump exactly one grade counter"
        );
        assert_eq!(snap.counter("rups_core_quality_rejected"), Some(0));
        // The node's engine records into the same registry.
        assert!(snap.counter("rups_core_engine_queries").unwrap_or(0) > 0);
        // A clone never shares these handles.
        let cloned = a.clone();
        assert!(!Arc::ptr_eq(cloned.registry(), a.registry()));
    }
}
