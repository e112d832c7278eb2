//! Batched SYN-query engine with per-context caching (§V-A, §V-B).
//!
//! Every distance query against a [`crate::pipeline::RupsNode`] needs the
//! same querying-side quantities: the interpolated own context, the
//! per-window channel selections and the own rows' rolled window
//! statistics. Under tracking loads ("track a neighboring vehicle on every
//! 0.1 second", §V-B) or convoy loads (tens of neighbours per epoch) those
//! quantities are identical across queries — only the neighbour side
//! changes.
//!
//! [`SynQueryEngine`] precomputes them **once per context update** and
//! answers any number of queries against the cached state:
//!
//! * the interpolated own context, rebuilt only when the context version
//!   changes;
//! * per window length, the own rows' rolled window means and sums
//!   (`syn_fast::RolledTable`): the sliding side of every reverse pass,
//!   filled a channel at a time on first use and shared by the reverse
//!   passes of every query in a batch;
//! * memoised packed spectra over the dense context (the sliding-side
//!   inputs of the FFT kernel);
//! * per-`(len, end)` checking windows with memoised reversed spectra (the
//!   fixed-side inputs of the FFT kernel);
//! * scratch arenas (FFT work areas, the score loop's buffers, the table a
//!   query rolls its neighbour's rows into for its forward passes) from the
//!   process-wide pool the full scan of [`crate::syn`] runs in too, so
//!   concurrent rayon queries allocate nothing in steady state;
//! * a per-batch kernel choice — lane dot products vs the engine's own FFT
//!   correlation — driven by context density and length.
//!
//! Every directed pass takes an exact peak through the one score loop of
//! `syn_fast::DensePass`: the kernel only picks where its dot products come
//! from. The loop walks the window's channels in order and drops a
//! placement as soon as its exact bound can no longer win, or reach a floor
//! its caller would drop anyway. Rows it refuses take the recompute scan of
//! record and [`crate::syn::peak`]. On the reference kernel, results are
//! **bit-identical** to [`crate::syn::find_syn_points`], which runs the
//! same loop with no bound and scores every placement before picking its
//! peak. The FFT kernel agrees to rounding, and a warm engine answers bit
//! for bit like a cold one. Cache-hit, scratch-reuse and pruning counters
//! are exported via [`SynQueryEngine::stats`] for the bench harness.
//!
//! The engine's one other pass is the anchored check behind
//! [`crate::pipeline::RupsNode::tracked_fix`]: the newest own window from
//! the same memo, rolled over only the ±[`ANCHOR_SLACK_M`] placements
//! around a known SYN shift, and counted as a query like any other.

use crate::config::RupsConfig;
use crate::dsp::{self, Complex};
use crate::error::RupsError;
use crate::gsm::GsmTrajectory;
use crate::pipeline::{ContextSnapshot, DistanceFix};
use crate::syn::{self, SynPoint};
use crate::syn_fast::{self, RolledTable};
use crate::window::CheckWindow;
use rups_obs::{Counter, Histogram, Registry, SpanArgs, SpanRecorder, TraceContext};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};

/// Placement slack (± metres) of the anchored check: how far a tracked
/// neighbour's SYN shift may drift between two fixes before the full
/// search has to re-acquire it.
pub const ANCHOR_SLACK_M: usize = 25;

/// Which sliding-scan kernel a query (or batch of queries) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The `O(mwk)` scan of [`crate::syn::slide_scores`], run bounded: the
    /// score loop takes lane dot products at the placements still alive, a
    /// channel at a time. NaN-aware through its per-placement fallback.
    Reference,
    /// The engine's own `O(k·m log m)` dot products: packed-FFT
    /// correlations ([`crate::dsp`]) against memoised own-side spectra, at
    /// every placement, which the same bounded score loop then reads, with
    /// its window statistics from the same rolled tables. Needs a wholly
    /// finite own context (lane dot products otherwise); a pass whose
    /// selected channels carry missing values takes the reference
    /// kernel's per-placement fallback.
    Fft,
}

impl Kernel {
    /// Stable lower-case name, for reports and artefacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Fft => "fft",
        }
    }
}

/// Per-query diagnostics surfaced alongside a fix result, so a miss can be
/// explained (which kernel ran, how many directed window passes were
/// actually scanned before giving up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryDiag {
    /// The kernel chosen for the batch this query ran in.
    pub kernel: Kernel,
    /// Directed sliding passes (forward + reverse, across all SYN
    /// segments) that actually executed for this query.
    pub windows_scanned: u32,
}

/// Counters describing how much work the engine's caches saved.
///
/// All counts are cumulative over the engine's registry: engines sharing
/// one registry count into the same `rups_core_engine_*` counters, so
/// bracket a workload with two snapshots and [`EngineStats::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered (one per neighbour context).
    pub queries: u64,
    /// Context lookups answered from the version-keyed cache.
    pub context_hits: u64,
    /// Context rebuilds (interpolation of the raw context).
    pub context_rebuilds: u64,
    /// Checking-window lookups answered from the `(len, end)` memo.
    pub window_hits: u64,
    /// Checking-window constructions (channel selection).
    pub window_misses: u64,
    /// Scratch arenas this engine's queries reused from the process-wide
    /// pool.
    pub scratch_reuses: u64,
    /// Scratch arenas this engine's queries had to allocate because the
    /// pool was empty.
    pub scratch_allocs: u64,
    /// Directed passes answered by the reference scan.
    pub reference_passes: u64,
    /// Directed passes answered by the FFT scan.
    pub fft_passes: u64,
    /// Directed passes that requested the FFT scan but fell back to the
    /// reference scan because a selected neighbour channel carried NaN.
    pub fft_fallbacks: u64,
    /// Window placements the score loop's exact bound dropped before their
    /// full score, on every directed pass that ran it (either kernel, full
    /// and anchored).
    pub pruned_placements: u64,
}

impl EngineStats {
    /// Field-wise `self − earlier` (saturating), for per-epoch deltas from
    /// two cumulative snapshots.
    pub fn delta(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            queries: self.queries.saturating_sub(earlier.queries),
            context_hits: self.context_hits.saturating_sub(earlier.context_hits),
            context_rebuilds: self
                .context_rebuilds
                .saturating_sub(earlier.context_rebuilds),
            window_hits: self.window_hits.saturating_sub(earlier.window_hits),
            window_misses: self.window_misses.saturating_sub(earlier.window_misses),
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
            scratch_allocs: self.scratch_allocs.saturating_sub(earlier.scratch_allocs),
            reference_passes: self
                .reference_passes
                .saturating_sub(earlier.reference_passes),
            fft_passes: self.fft_passes.saturating_sub(earlier.fft_passes),
            fft_fallbacks: self.fft_fallbacks.saturating_sub(earlier.fft_fallbacks),
            pruned_placements: self
                .pruned_placements
                .saturating_sub(earlier.pruned_placements),
        }
    }

    /// Fraction of context lookups served from cache (`NaN`-free: 0.0 when
    /// no lookups happened).
    pub fn context_hit_rate(&self) -> f64 {
        ratio(self.context_hits, self.context_hits + self.context_rebuilds)
    }

    /// Fraction of window lookups served from the `(len, end)` memo.
    pub fn window_hit_rate(&self) -> f64 {
        ratio(self.window_hits, self.window_hits + self.window_misses)
    }

    /// Fraction of scratch arenas reused rather than freshly allocated.
    pub fn scratch_reuse_rate(&self) -> f64 {
        ratio(
            self.scratch_reuses,
            self.scratch_reuses + self.scratch_allocs,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Pre-registered registry handles for every engine metric: resolved once
/// at engine construction so the record path is a relaxed atomic add, no
/// name lookups and no allocation (naming per DESIGN.md § Observability).
struct EngineMetrics {
    queries: Counter,
    context_hits: Counter,
    context_rebuilds: Counter,
    window_hits: Counter,
    window_misses: Counter,
    scratch_reuses: Counter,
    scratch_allocs: Counter,
    reference_passes: Counter,
    fft_passes: Counter,
    fft_fallbacks: Counter,
    pruned_placements: Counter,
    query_ns: Histogram,
    context_rebuild_ns: Histogram,
    window_build_ns: Histogram,
    kernel_scan_ns: Histogram,
    resolve_ns: Histogram,
}

impl EngineMetrics {
    fn register(reg: &Registry) -> Self {
        Self {
            queries: reg.counter("rups_core_engine_queries"),
            context_hits: reg.counter("rups_core_engine_context_hits"),
            context_rebuilds: reg.counter("rups_core_engine_context_rebuilds"),
            window_hits: reg.counter("rups_core_engine_window_hits"),
            window_misses: reg.counter("rups_core_engine_window_misses"),
            scratch_reuses: reg.counter("rups_core_engine_scratch_reuses"),
            scratch_allocs: reg.counter("rups_core_engine_scratch_allocs"),
            reference_passes: reg.counter("rups_core_engine_reference_passes"),
            fft_passes: reg.counter("rups_core_engine_fft_passes"),
            fft_fallbacks: reg.counter("rups_core_engine_fft_fallbacks"),
            pruned_placements: reg.counter("rups_core_engine_pruned_placements"),
            query_ns: reg.histogram("rups_core_engine_query_ns"),
            context_rebuild_ns: reg.histogram("rups_core_engine_context_rebuild_ns"),
            window_build_ns: reg.histogram("rups_core_engine_window_build_ns"),
            kernel_scan_ns: reg.histogram("rups_core_engine_kernel_scan_ns"),
            resolve_ns: reg.histogram("rups_core_engine_resolve_ns"),
        }
    }
}

/// A channel pair's packed spectra (`b` empty for a lone trailing
/// channel). Cached because the packing makes each channel's
/// spectrum partner-dependent in floating point: a cache hit must return
/// exactly what a fresh [`dsp::real_spectra_pair_into`] over the same pair
/// would produce.
struct SpectraPair {
    a: Vec<Complex>,
    b: Vec<Complex>,
}

/// Cache key for [`SpectraPair`]: `(fft_size, ch_a, ch_b)`, with
/// `usize::MAX` as the lone-channel sentinel.
type SpectraKey = (usize, usize, usize);

/// The querying vehicle's context, fully preprocessed for matching: the
/// matching rows, their packed spectra for the FFT kernel and their rolled
/// tables for every reverse pass, both filled on first use. Every pass
/// reads the `f32` rows, which widen to `f64` exactly, so the context keeps
/// no `f64` copy.
pub(crate) struct OwnContext {
    /// Version stamp of the raw context this was built from.
    version: u64,
    /// The matching context (interpolated when the config asks for it) —
    /// exactly what `RupsNode::own_matching_context` used to rebuild per
    /// query.
    gsm: GsmTrajectory,
    /// True when every cell of `gsm` is finite (the FFT kernel applicable).
    dense: bool,
    /// Packed spectra of the own sliding rows, keyed by transform size and
    /// channel pair: the sliding-side inputs of every reverse FFT pass,
    /// shared across all neighbours and segments. Lazily filled because
    /// the transform size depends on the query's window length.
    sliding_spectra: RwLock<HashMap<SpectraKey, Arc<SpectraPair>>>,
    /// Rolled window statistics of `gsm` over every placement, per window
    /// length: the sliding side of every reverse pass, so the passes of all
    /// neighbours and segments roll each own channel once. Channels fill on
    /// first use.
    tables: RwLock<HashMap<usize, Arc<RolledTable>>>,
}

impl OwnContext {
    fn build(version: u64, raw: &GsmTrajectory, cfg: &RupsConfig) -> Self {
        let gsm = if cfg.interpolate_missing {
            raw.interpolated()
        } else {
            raw.clone()
        };
        let n = gsm.n_channels();
        let dense = (0..n).all(|ch| gsm.channel(ch).iter().all(|v| v.is_finite()));
        Self {
            version,
            gsm,
            dense,
            sliding_spectra: RwLock::new(HashMap::new()),
            tables: RwLock::new(HashMap::new()),
        }
    }

    /// The rolled table of the own rows at window length `w`, created empty
    /// on first use.
    fn table(&self, w: usize) -> Arc<RolledTable> {
        let tables = self.tables.read().expect("own-context table lock poisoned");
        if let Some(t) = tables.get(&w) {
            return Arc::clone(t);
        }
        drop(tables);
        let mut tables = self
            .tables
            .write()
            .expect("own-context table lock poisoned");
        let placements = 0..(self.gsm.len() + 1).saturating_sub(w);
        let table = tables
            .entry(w)
            .or_insert_with(|| Arc::new(RolledTable::new(self.gsm.n_channels(), w, placements)));
        Arc::clone(table)
    }

    /// The cached packed spectra of own rows `(ch_a, ch_b)` at `size`,
    /// computing and memoising them on first use. The caller's scratch
    /// buffers stage the computation; the cached copy is what every later
    /// hit returns, bit-identical to a fresh evaluation.
    fn sliding_spectra(
        &self,
        size: usize,
        ch_a: usize,
        ch_b: Option<usize>,
        work: &mut Vec<Complex>,
        xa: &mut Vec<Complex>,
        xb: &mut Vec<Complex>,
    ) -> Arc<SpectraPair> {
        let key = (size, ch_a, ch_b.unwrap_or(usize::MAX));
        if let Some(p) = self
            .sliding_spectra
            .read()
            .expect("own-context spectra lock poisoned")
            .get(&key)
        {
            return Arc::clone(p);
        }
        let b: &[f32] = ch_b.map_or(&[], |ch| self.gsm.channel(ch));
        dsp::real_spectra_pair_into(self.gsm.channel(ch_a), b, false, size, work, xa, xb);
        let pair = Arc::new(SpectraPair {
            a: xa.clone(),
            b: xb.clone(),
        });
        self.sliding_spectra
            .write()
            .expect("own-context spectra lock poisoned")
            .insert(key, Arc::clone(&pair));
        pair
    }

    /// The preprocessed matching context.
    pub(crate) fn gsm(&self) -> &GsmTrajectory {
        &self.gsm
    }
}

/// Window memo keyed by `(len, end)` placement; `None` records placements
/// that resolve to no window, so misses are cached too.
type WindowMemo = HashMap<(usize, usize), Option<Arc<WindowEntry>>>;

/// A memoised checking window plus the fixed-side spectra of the FFT
/// kernel for its exact `[end − len, end)` placement on the own context.
struct WindowEntry {
    window: CheckWindow,
    /// Packed time-reversed spectra of the fixed slice, one per pair of
    /// window channels, keyed by transform size (which depends on the
    /// neighbour's context length). Channels are packed pairwise in window
    /// order — exactly how a fresh forward pass pairs them — so the cached
    /// spectra are bit-identical to fresh ones.
    spectra: RwLock<HashMap<usize, Arc<Vec<Arc<SpectraPair>>>>>,
}

/// Per-query scratch arena: every buffer a directed pass needs, popped from
/// the process-wide scratch pool for one query.
type Scratch = syn_fast::DenseScratch;

/// Caching, batching SYN-query engine (see the module docs).
///
/// All methods take `&self`: caches use interior mutability so queries can
/// fan out over rayon. An engine is cheap to create; its caches warm up on
/// first use and are invalidated whenever a new context version is
/// installed.
pub struct SynQueryEngine {
    cfg: RupsConfig,
    ctx: RwLock<Option<Arc<OwnContext>>>,
    /// Own-version counter for standalone (non-`RupsNode`) use via
    /// [`SynQueryEngine::set_context`].
    own_version: AtomicU64,
    windows: RwLock<WindowMemo>,
    registry: Arc<Registry>,
    metrics: EngineMetrics,
    /// Span sink for the query stages, when attached (None costs one
    /// branch per stage).
    spans: Option<Arc<SpanRecorder>>,
}

impl fmt::Debug for SynQueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SynQueryEngine")
            .field("context_len", &self.context_len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Clone for SynQueryEngine {
    /// Cloning yields a fresh engine with the same configuration and cold
    /// caches (cache state is per-instance by design).
    fn clone(&self) -> Self {
        Self::new(self.cfg.clone())
    }
}

impl SynQueryEngine {
    /// Creates an engine for the given configuration with a private
    /// metrics registry. The configuration is assumed valid (callers
    /// embedding the engine in a [`crate::pipeline::RupsNode`] have already
    /// validated it).
    pub fn new(cfg: RupsConfig) -> Self {
        Self::with_registry(cfg, Arc::new(Registry::new()))
    }

    /// Creates an engine whose metrics land in the given shared registry
    /// (under `rups_core_engine_*`), so a node, link, and inbox can export
    /// one merged snapshot.
    pub fn with_registry(cfg: RupsConfig, registry: Arc<Registry>) -> Self {
        let metrics = EngineMetrics::register(&registry);
        Self {
            cfg,
            ctx: RwLock::new(None),
            own_version: AtomicU64::new(0),
            windows: RwLock::new(HashMap::new()),
            registry,
            metrics,
            spans: None,
        }
    }

    /// Records the query stages into `spans` from this call on:
    /// `engine.query` / `engine.context_rebuild` / `engine.window_build` /
    /// `engine.kernel_scan` / `engine.resolve` spans plus
    /// `engine.context_hit` / `engine.window_hit` cache events.
    pub fn attach_spans(&mut self, spans: Arc<SpanRecorder>) {
        self.spans = Some(spans);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RupsConfig {
        &self.cfg
    }

    /// The metrics registry this engine records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Metres of preprocessed context currently cached (0 when none is
    /// installed yet).
    pub fn context_len(&self) -> usize {
        self.ctx
            .read()
            .expect("engine context lock poisoned")
            .as_ref()
            .map_or(0, |c| c.gsm.len())
    }

    /// Installs the querying vehicle's raw context (standalone use).
    /// Interpolates missing channels per the configuration and rebuilds
    /// every cache. [`crate::pipeline::RupsNode`] instead calls the
    /// crate-internal `ensure_context` with its own version counter so
    /// unchanged contexts are never rebuilt.
    pub fn set_context(&self, raw: &GsmTrajectory) {
        let v = self.own_version.fetch_add(1, Relaxed).wrapping_add(1);
        self.ensure_context(v, raw);
    }

    /// Returns the preprocessed context for `version`, rebuilding it (and
    /// invalidating the window memo) only when the cached version differs.
    pub(crate) fn ensure_context(&self, version: u64, raw: &GsmTrajectory) -> Arc<OwnContext> {
        {
            let guard = self.ctx.read().expect("engine context lock poisoned");
            if let Some(ctx) = guard.as_ref() {
                if ctx.version == version {
                    self.metrics.context_hits.inc();
                    if let Some(s) = &self.spans {
                        s.event("engine.context_hit");
                    }
                    return Arc::clone(ctx);
                }
            }
        }
        let mut guard = self.ctx.write().expect("engine context lock poisoned");
        // Double-check: another thread may have rebuilt while we waited.
        if let Some(ctx) = guard.as_ref() {
            if ctx.version == version {
                self.metrics.context_hits.inc();
                if let Some(s) = &self.spans {
                    s.event("engine.context_hit");
                }
                return Arc::clone(ctx);
            }
        }
        self.metrics.context_rebuilds.inc();
        let _t = self.metrics.context_rebuild_ns.start_timer();
        let _s = self
            .spans
            .as_ref()
            .map(|s| s.span("engine.context_rebuild"));
        let ctx = Arc::new(OwnContext::build(version, raw, &self.cfg));
        *guard = Some(Arc::clone(&ctx));
        self.windows
            .write()
            .expect("engine window lock poisoned")
            .clear();
        ctx
    }

    /// The installed own context, or the error a query without one
    /// reports.
    pub(crate) fn own_context(&self) -> Result<Arc<OwnContext>, RupsError> {
        self.ctx
            .read()
            .expect("engine context lock poisoned")
            .clone()
            .ok_or(RupsError::InsufficientContext {
                available_m: 0,
                required_m: self.cfg.min_window_len_m.max(2),
            })
    }

    /// Snapshot of the cache/scratch/kernel counters, read straight off the
    /// registry atomics (a cheap view — the registry owns the live state,
    /// so two snapshots bracket a workload without drift).
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        EngineStats {
            queries: m.queries.get(),
            context_hits: m.context_hits.get(),
            context_rebuilds: m.context_rebuilds.get(),
            window_hits: m.window_hits.get(),
            window_misses: m.window_misses.get(),
            scratch_reuses: m.scratch_reuses.get(),
            scratch_allocs: m.scratch_allocs.get(),
            reference_passes: m.reference_passes.get(),
            fft_passes: m.fft_passes.get(),
            fft_fallbacks: m.fft_fallbacks.get(),
            pruned_placements: m.pruned_placements.get(),
        }
    }

    /// The kernel the engine would pick for one query against a neighbour
    /// context of `their_len` metres, given the installed own context
    /// ([`Kernel::Reference`] when none is installed).
    pub fn choose_kernel(&self, their_len: usize) -> Kernel {
        self.own_context()
            .map_or(Kernel::Reference, |ctx| self.kernel_for(&ctx, their_len))
    }

    /// Density/length heuristic: the FFT scan costs `O(k·m log m)` with a
    /// hefty constant (from-scratch radix-2 FFT) against the reference
    /// scan's `O(k·m·w)`, so it pays off once the window is comfortably
    /// wider than `log₂ m`.
    pub(crate) fn kernel_for(&self, ctx: &OwnContext, their_len: usize) -> Kernel {
        if !ctx.dense {
            return Kernel::Reference;
        }
        let shorter = ctx.gsm.len().min(their_len);
        let w = syn::adaptive_window_len(shorter, &self.cfg);
        let m = ctx.gsm.len().max(their_len).max(2);
        if w as f64 >= 8.0 * (m as f64).log2() {
            Kernel::Fft
        } else {
            Kernel::Reference
        }
    }

    /// Runs `f` with an arena from the process-wide scratch pool, counting
    /// the pop as a reuse or an allocation.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        syn_fast::with_scratch(|s, reused| {
            if reused {
                self.metrics.scratch_reuses.inc();
            } else {
                self.metrics.scratch_allocs.inc();
            }
            f(s)
        })
    }

    /// Memoised equivalent of `CheckWindow::with_len(own, cfg, len, end)`,
    /// with room for that placement's FFT fixed-side spectra. Concurrent queries
    /// of one batch build each placement once: a miss re-checks under the
    /// write lock and builds while holding it.
    fn window_entry(&self, ctx: &OwnContext, len: usize, end: usize) -> Option<Arc<WindowEntry>> {
        let key = (len, end);
        let hit = |e: &Option<Arc<WindowEntry>>| {
            self.metrics.window_hits.inc();
            if let Some(s) = &self.spans {
                s.event("engine.window_hit");
            }
            e.clone()
        };
        if let Some(e) = self
            .windows
            .read()
            .expect("engine window lock poisoned")
            .get(&key)
        {
            return hit(e);
        }
        let mut windows = self.windows.write().expect("engine window lock poisoned");
        // Double-check: another task may have built it while we waited.
        if let Some(e) = windows.get(&key) {
            return hit(e);
        }
        self.metrics.window_misses.inc();
        let _t = self.metrics.window_build_ns.start_timer();
        let _s = self.spans.as_ref().map(|s| s.span("engine.window_build"));
        let entry = CheckWindow::with_len(&ctx.gsm, &self.cfg, len, end).map(|window| {
            Arc::new(WindowEntry {
                window,
                spectra: RwLock::new(HashMap::new()),
            })
        });
        windows.insert(key, entry.clone());
        entry
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Multi-SYN search against the installed context, with the kernel
    /// picked automatically. Semantics (and, for the reference kernel,
    /// bits) match [`crate::syn::find_syn_points`] run against the same
    /// interpolated context.
    pub fn find_syn_points(&self, theirs: &GsmTrajectory) -> Result<Vec<SynPoint>, RupsError> {
        let ctx = self.own_context()?;
        let kernel = self.kernel_for(&ctx, theirs.len());
        self.query(&ctx, theirs, kernel, None, &mut 0)
    }

    /// [`find_syn_points`](Self::find_syn_points) with an explicit kernel.
    pub fn find_syn_points_with(
        &self,
        theirs: &GsmTrajectory,
        kernel: Kernel,
    ) -> Result<Vec<SynPoint>, RupsError> {
        let ctx = self.own_context()?;
        self.query(&ctx, theirs, kernel, None, &mut 0)
    }

    /// The kernel for one batch of neighbours: chosen once from the
    /// own-context density and the median neighbour length.
    pub(crate) fn batch_kernel(&self, ctx: &OwnContext, neighbours: &[&ContextSnapshot]) -> Kernel {
        if neighbours.is_empty() {
            return Kernel::Reference;
        }
        let mut lens: Vec<usize> = neighbours.iter().map(|n| n.gsm.len()).collect();
        lens.sort_unstable();
        self.kernel_for(ctx, lens[lens.len() / 2])
    }

    /// Resolves and aggregates a query's SYN points into a distance fix.
    pub(crate) fn build_fix(
        &self,
        ours_len: usize,
        theirs_len: usize,
        points: Vec<SynPoint>,
    ) -> Result<DistanceFix, RupsError> {
        let _t = self.metrics.resolve_ns.start_timer();
        let _s = self.spans.as_ref().map(|s| s.span("engine.resolve"));
        DistanceFix::from_syn_points(points, ours_len, theirs_len, self.cfg.aggregation)
    }

    /// The engine's double-sliding multi-SYN search: the control flow of
    /// [`crate::syn::find_syn_points`] (adaptive length, forward +
    /// perspective-swapped reverse passes, threshold filtering, multi-SYN
    /// stride loop), with the own side served from the cache. Counts the
    /// directed passes it actually ran into `scanned`. When the neighbour
    /// snapshot carried a [`TraceContext`] the `engine.query` span joins that
    /// causal trace (its args gain `trace` + `clock` alongside the window
    /// sizes).
    pub(crate) fn query(
        &self,
        ctx: &OwnContext,
        theirs: &GsmTrajectory,
        kernel: Kernel,
        trace: Option<TraceContext>,
        scanned: &mut u32,
    ) -> Result<Vec<SynPoint>, RupsError> {
        self.metrics.queries.inc();
        let _t = self.metrics.query_ns.start_timer();
        let mut _s = self.spans.as_ref().map(|s| s.span("engine.query"));
        let ours = &ctx.gsm;
        if ours.n_channels() != theirs.n_channels() {
            return Err(RupsError::ChannelMismatch {
                ours: ours.n_channels(),
                theirs: theirs.n_channels(),
            });
        }
        let shorter = ours.len().min(theirs.len());
        let w = syn::adaptive_window_len(shorter, &self.cfg);
        if let Some(g) = _s.as_mut() {
            // Two slots of the four carry the causal trace when present,
            // the other two the query's own shape.
            let base = trace.map_or_else(SpanArgs::new, |t| t.args());
            g.set_args(
                base.with("window_len_m", w as i64)
                    .with("neighbour_len_m", theirs.len() as i64),
            );
        }
        let too_short = || RupsError::InsufficientContext {
            available_m: shorter,
            required_m: self.cfg.min_window_len_m.max(2),
        };
        if w < self.cfg.min_window_len_m.max(2) {
            return Err(too_short());
        }
        let own_table = ctx.table(w);
        self.with_scratch(|scratch| {
            // The forward passes roll their trajectory once, into the
            // arena's table.
            scratch
                .table
                .reset(theirs.n_channels(), w, 0..theirs.len() + 1 - w);
            // Forward: an own window slid over their trajectory.
            let fwd = |e: &WindowEntry, end: usize, floor: f64, s: &mut Scratch| {
                let fft = |s: &mut Scratch| self.fft_dots(ctx, Some(e), &e.window, end, theirs, s);
                let window = &e.window;
                self.directed(ctx, kernel, ours, end, theirs, None, window, floor, s, fft)
            };
            // Reverse: their window slid over ours, swapped to our view.
            let rev = |wnd: &CheckWindow, end: usize, floor: f64, s: &mut Scratch| {
                let fft = |s: &mut Scratch| self.fft_dots(ctx, None, wnd, end, theirs, s);
                let table = Some(&*own_table);
                self.directed(ctx, kernel, theirs, end, ours, table, wnd, floor, s, fft)
                    .map(syn::swap_perspective)
            };
            // Most recent segment: the full double-sliding check.
            let entry = self
                .window_entry(ctx, w, ours.len())
                .ok_or_else(too_short)?;
            let rev_wnd = CheckWindow::with_len(theirs, &self.cfg, w, theirs.len());
            *scanned += 1 + u32::from(rev_wnd.is_some());
            let threshold = entry.window.threshold;
            let newest = |floor: f64, scratch: &mut Scratch| {
                let best_fwd = fwd(&entry, ours.len(), floor, scratch);
                let best_rev = rev_wnd
                    .as_ref()
                    .and_then(|wnd| rev(wnd, theirs.len(), floor, scratch));
                syn::better_pass(best_fwd, best_rev)
            };
            // A pass whose peak is below `threshold − PASS_TIE_MARGIN` can
            // neither clear the threshold nor out-tie a pass that does, so
            // that floor changes no hit. A miss re-runs without it, so that
            // it reports the unbounded search's best score. The FFT
            // kernel's newest passes take no floor, and so never re-run.
            let floor = match kernel {
                Kernel::Reference => threshold - syn::PASS_TIE_MARGIN,
                Kernel::Fft => f64::NEG_INFINITY,
            };
            let mut best = newest(floor, scratch);
            if floor > f64::NEG_INFINITY && best.is_none_or(|p| p.score < threshold) {
                best = newest(f64::NEG_INFINITY, scratch);
            }
            let best = match best {
                Some(b) if b.score >= threshold => b,
                miss => {
                    return Err(RupsError::NoSynPoint {
                        best_score: miss.map_or(f64::NEG_INFINITY, |p| p.score),
                        threshold,
                    })
                }
            };
            let mut points = vec![best];
            // Older segments, symmetrically (cf. syn::find_syn_points),
            // keeping only peaks that clear their window's threshold.
            for s in 1..self.cfg.n_syn_points {
                let older_fwd = ours
                    .len()
                    .checked_sub(s * self.cfg.syn_segment_stride_m)
                    .filter(|&end| end >= w)
                    .and_then(|end| self.window_entry(ctx, w, end).map(|e| (end, e)))
                    .and_then(|(end, e)| {
                        *scanned += 1;
                        fwd(&e, end, e.window.threshold, scratch)
                    });
                let older_rev = theirs
                    .len()
                    .checked_sub(s * self.cfg.syn_segment_stride_m)
                    .filter(|&end| end >= w)
                    .and_then(|end| {
                        CheckWindow::with_len(theirs, &self.cfg, w, end).map(|wnd| (end, wnd))
                    })
                    .and_then(|(end, wnd)| {
                        *scanned += 1;
                        rev(&wnd, end, wnd.threshold, scratch)
                    });
                if let Some(p) = syn::better_pass(older_fwd, older_rev) {
                    points.push(p);
                }
            }
            Ok(points)
        })
    }

    /// The anchored check of §V-B, counted, timed and spanned as one query:
    /// our newest window (the one [`CheckWindow::for_context`] picks,
    /// served from the window memo) slid only over the placements within
    /// [`ANCHOR_SLACK_M`] of where the last SYN point put it on their
    /// trajectory, `shift = self_end − other_end`. Returns the refined peak
    /// when it clears the coherency threshold; `None` (the caller runs the
    /// full search) when it does not, or when nothing is left to scan.
    pub(crate) fn anchored(
        &self,
        ctx: &OwnContext,
        theirs: &GsmTrajectory,
        shift: i64,
    ) -> Option<SynPoint> {
        self.metrics.queries.inc();
        let _t = self.metrics.query_ns.start_timer();
        let _s = self.spans.as_ref().map(|s| s.span("engine.query"));
        let ours = &ctx.gsm;
        let w = self.cfg.window_len_m.min(ours.len());
        if w < self.cfg.min_window_len_m.max(2) {
            return None;
        }
        let window = &self.window_entry(ctx, w, ours.len())?.window;
        // Last time our window sat at placement other_end − w on theirs.
        let centre = ours.len() as i64 - shift - w as i64;
        let slack = ANCHOR_SLACK_M as i64;
        let n_pos = (theirs.len() + 1).saturating_sub(w) as i64;
        let js = (centre - slack).clamp(0, n_pos) as usize
            ..(centre + slack + 1).clamp(0, n_pos) as usize;
        self.with_scratch(|s| {
            s.table.reset(theirs.n_channels(), w, js);
            let (kernel, no_fft) = (Kernel::Reference, |_: &mut Scratch| {});
            let (end, floor) = (ours.len(), window.threshold);
            self.directed(
                ctx, kernel, ours, end, theirs, None, window, floor, s, no_fft,
            )
        })
    }

    /// One directed pass: the `fixed` window `[end − w, end)` slid over the
    /// placements of `sliding` that its rolled table covers — `table`, or
    /// the arena's own `scratch.table` when `None` — returning the best one
    /// from the `fixed` side's perspective, or `None` when it scores below
    /// `floor`. The bounded score loop resolves it: on [`Kernel::Fft`] over
    /// a dense own context, from the dot products `fft` fills into
    /// `scratch.fft_dots` (every placement: FFT passes run over full
    /// tables); on [`Kernel::Reference`], from lane dot products. Rows the
    /// loop refuses take the recompute scan of record and [`syn::peak`].
    #[allow(clippy::too_many_arguments)]
    fn directed(
        &self,
        ctx: &OwnContext,
        kernel: Kernel,
        fixed: &GsmTrajectory,
        end: usize,
        sliding: &GsmTrajectory,
        table: Option<&RolledTable>,
        window: &CheckWindow,
        floor: f64,
        scratch: &mut Scratch,
        fft: impl FnOnce(&mut Scratch),
    ) -> Option<SynPoint> {
        let w = window.len_m;
        if end < w || sliding.len() < w {
            return None;
        }
        let scan_t = self.metrics.kernel_scan_ns.start_timer();
        let scan_s = self.spans.as_ref().map(|s| s.span("engine.kernel_scan"));
        let finite = syn_fast::DensePass {
            fixed,
            fixed_start: end - w,
            sliding,
            table: table.unwrap_or(&scratch.table),
            window,
            dots: syn_fast::Dots::Lanes,
        }
        .finite();
        let fft_dots = kernel == Kernel::Fft && ctx.dense && finite;
        if fft_dots {
            fft(scratch);
            self.metrics.fft_passes.inc();
        } else {
            if kernel == Kernel::Fft {
                self.metrics.fft_fallbacks.inc();
            }
            self.metrics.reference_passes.inc();
        }
        let table = table.unwrap_or(&scratch.table);
        let js = table.placements();
        let best = if finite {
            let pass = syn_fast::DensePass {
                fixed,
                fixed_start: end - w,
                sliding,
                table,
                window,
                dots: if fft_dots {
                    syn_fast::Dots::Fft(&scratch.fft_dots)
                } else {
                    syn_fast::Dots::Lanes
                },
            };
            let (peak, pruned) = pass.peak(floor, &mut scratch.pass);
            self.metrics.pruned_placements.add(pruned);
            peak
        } else {
            let scores = &mut scratch.scores;
            syn::slide_scores_reference_into(fixed, end - w, sliding, window, js.clone(), scores);
            syn::peak(scores)
        };
        drop(scan_t);
        drop(scan_s);
        let (j, score, refine) = best.filter(|&(_, score, _)| score >= floor)?;
        Some(SynPoint {
            self_end: end,
            other_end: js.start + j + w,
            refine_m: refine,
            score,
            window_len: w,
        })
    }

    /// The memoised packed reversed spectra of `entry`'s fixed slice at
    /// `size`, built on first use from the own rows (channels paired in
    /// window order, exactly like a fresh forward pass).
    fn fixed_spectra(
        &self,
        ctx: &OwnContext,
        entry: &WindowEntry,
        end: usize,
        size: usize,
        s: &mut Scratch,
    ) -> Arc<Vec<Arc<SpectraPair>>> {
        if let Some(sp) = entry
            .spectra
            .read()
            .expect("window spectra lock poisoned")
            .get(&size)
        {
            return Arc::clone(sp);
        }
        let window = &entry.window;
        let w = window.len_m;
        let mut out = Vec::with_capacity(window.channels.len().div_ceil(2));
        for pair in window.channels.chunks(2) {
            let fixed_a = &ctx.gsm.channel(pair[0])[end - w..end];
            let fixed_b: &[f32] = pair
                .get(1)
                .map_or(&[], |&ch| &ctx.gsm.channel(ch)[end - w..end]);
            dsp::real_spectra_pair_into(
                fixed_a,
                fixed_b,
                true,
                size,
                &mut s.work,
                &mut s.spec_fa,
                &mut s.spec_fb,
            );
            out.push(Arc::new(SpectraPair {
                a: s.spec_fa.clone(),
                b: s.spec_fb.clone(),
            }));
        }
        let arc = Arc::new(out);
        entry
            .spectra
            .write()
            .expect("window spectra lock poisoned")
            .insert(size, Arc::clone(&arc));
        arc
    }

    /// Fills `s.fft_dots` with an FFT pass's dot products at every
    /// placement, window channel by window channel. With `entry` our window
    /// `[end − w, end)` is fixed (its reversed spectra memoised there) and
    /// their rows slide; without, their window `[end − w, end)` is fixed
    /// and our rows slide (their spectra memoised on the context). The
    /// other side is transformed fresh, its channels paired in window
    /// order like the memoised side's.
    fn fft_dots(
        &self,
        ctx: &OwnContext,
        entry: Option<&WindowEntry>,
        window: &CheckWindow,
        end: usize,
        theirs: &GsmTrajectory,
        s: &mut Scratch,
    ) {
        let (w, forward) = (window.len_m, entry.is_some());
        let m = if forward { theirs.len() } else { ctx.gsm.len() };
        let (n_pos, size) = (m - w + 1, dsp::corr_fft_size(w, m));
        let fixed_spectra = entry.map(|e| self.fixed_spectra(ctx, e, end, size, s));
        let rows = |ch: usize| {
            let row = theirs.channel(ch);
            if forward {
                row
            } else {
                &row[end - w..end]
            }
        };
        s.fft_dots.clear();
        for (i, pair) in window.channels.chunks(2).enumerate() {
            let ch_b = pair.get(1).copied();
            let memo = match &fixed_spectra {
                Some(fixed) => Arc::clone(&fixed[i]),
                None => {
                    let (work, sa, sb) = (&mut s.work, &mut s.spec_sa, &mut s.spec_sb);
                    ctx.sliding_spectra(size, pair[0], ch_b, work, sa, sb)
                }
            };
            let (a, b) = (rows(pair[0]), ch_b.map_or(&[][..], rows));
            let (work, xa, xb) = (&mut s.work, &mut s.spec_fa, &mut s.spec_fb);
            dsp::real_spectra_pair_into(a, b, !forward, size, work, xa, xb);
            let (memo, fresh) = ((&memo.a, &memo.b), (&s.spec_fa, &s.spec_fb));
            let ((fa, fb), (sa, sb)) = if forward {
                (memo, fresh)
            } else {
                (fresh, memo)
            };
            let (work, da, db) = (&mut s.work, &mut s.dots_a, &mut s.dots_b);
            dsp::corr_from_spectra_pair_into(fa, sa, fb, sb, w, n_pos, work, da, db);
            s.fft_dots.extend_from_slice(&s.dots_a);
            s.fft_dots.extend_from_slice(&s.dots_b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoSample;
    use crate::gsm::PowerVector;
    use crate::pipeline::RupsNode;
    use crate::testfield;

    fn traj(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
        let mut t = GsmTrajectory::with_capacity(n_channels, len);
        for i in 0..len {
            let s = (start + i) as f64;
            t.push(&PowerVector::from_fn(n_channels, |ch| {
                Some(testfield::rssi(seed, s, ch))
            }));
        }
        t
    }

    fn cfg(n_channels: usize) -> RupsConfig {
        RupsConfig {
            n_channels,
            window_channels: n_channels.min(45),
            ..RupsConfig::default()
        }
    }

    #[test]
    fn reference_kernel_is_bit_identical_to_syn() {
        let ours = traj(11, 0, 400, 24);
        let theirs = traj(11, 70, 400, 24);
        let c = cfg(24);
        let engine = SynQueryEngine::new(c.clone());
        engine.set_context(&ours);
        let expect = syn::find_syn_points(&ours, &theirs, &c).unwrap();
        let got = engine
            .find_syn_points_with(&theirs, Kernel::Reference)
            .unwrap();
        assert_eq!(expect.len(), got.len());
        for (e, g) in expect.iter().zip(&got) {
            assert_eq!(e, g, "engine must replicate the reference bit-for-bit");
            assert_eq!(e.score.to_bits(), g.score.to_bits());
            assert_eq!(e.refine_m.to_bits(), g.refine_m.to_bits());
        }
        // The rolling passes' bound drops placements the full scan of
        // record scores.
        let s = engine.stats();
        assert_eq!((s.fft_passes, s.fft_fallbacks), (0, 0), "{s:?}");
        assert!(s.pruned_placements > 0, "{s:?}");
    }

    #[test]
    fn rolling_bound_drops_most_placements_on_a_long_context() {
        // A discover-shaped pair: 64 channels, a 24-channel window, 2000 m
        // of own context and a 1200 m neighbour 30 m ahead.
        let c = RupsConfig {
            n_channels: 64,
            window_channels: 24,
            max_context_m: 2000,
            ..RupsConfig::default()
        };
        let ours = traj(23, 0, 2000, 64);
        let theirs = traj(23, 830, 1200, 64);
        let engine = SynQueryEngine::new(c.clone());
        engine.set_context(&ours);
        assert_eq!(engine.choose_kernel(theirs.len()), Kernel::Reference);
        let got = engine.find_syn_points(&theirs).unwrap();
        assert_eq!(got, syn::find_syn_points(&ours, &theirs, &c).unwrap());
        // Every segment slides a forward window over their 1200 m and a
        // reverse window over our 2000 m.
        let s = engine.stats();
        let w = c.window_len_m;
        let segments = c.n_syn_points as u64;
        assert_eq!(s.reference_passes, 2 * segments, "{s:?}");
        let scanned = segments * ((1200 - w + 1) + (2000 - w + 1)) as u64;
        assert!(
            s.pruned_placements * 10 >= scanned * 9,
            "the bound dropped {} of {scanned} placements",
            s.pruned_placements
        );
    }

    #[test]
    fn newest_segment_floor_keeps_the_tie_margin() {
        // Both contexts end on the same road metre, so each newest window
        // lies on the other context and the two passes score one match,
        // apart only by how their window sums rolled. With the threshold on
        // the higher score, the search of record keeps the lower forward
        // peak (within PASS_TIE_MARGIN) and misses; a floor at the
        // threshold itself would drop the forward pass and hit.
        let c = cfg(12);
        let peak = |a: &GsmTrajectory, b: &GsmTrajectory| {
            let w = CheckWindow::with_len(a, &c, c.window_len_m, a.len()).unwrap();
            let scores = syn::slide_scores(a, a.len() - w.len_m, b, &w);
            syn::peak(&scores).unwrap().1
        };
        for seed in 1..50 {
            let (ours, theirs) = (traj(seed, 0, 300, 12), traj(seed, 50, 250, 12));
            let (f, r) = (peak(&ours, &theirs), peak(&theirs, &ours));
            if f == r {
                continue;
            }
            let (a, b) = if f < r {
                (ours, theirs)
            } else {
                (theirs, ours)
            };
            let c = RupsConfig {
                coherency_threshold: f.max(r),
                ..c
            };
            let expect = syn::find_syn_points(&a, &b, &c);
            assert!(
                matches!(expect, Err(RupsError::NoSynPoint { .. })),
                "{expect:?}"
            );
            let engine = SynQueryEngine::new(c);
            engine.set_context(&a);
            assert_eq!(engine.find_syn_points_with(&b, Kernel::Reference), expect);
            return;
        }
        panic!("no seed split the two passes' scores");
    }

    fn node(c: &RupsConfig, seed: u64, start: usize, len: usize) -> RupsNode {
        let mut node = RupsNode::new(c.clone());
        for i in 0..len {
            let s = (start + i) as f64;
            let power = PowerVector::from_fn(c.n_channels, |ch| Some(testfield::rssi(seed, s, ch)));
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: s,
            };
            node.append_metre(geo, &power).unwrap();
        }
        node
    }

    /// A SYN point with its scores as bits.
    type PointBits = (usize, usize, u64, u64, usize);

    fn point_bits(points: &[SynPoint]) -> Vec<PointBits> {
        points
            .iter()
            .map(|p| {
                let (score, refine) = (p.score.to_bits(), p.refine_m.to_bits());
                (p.self_end, p.other_end, score, refine, p.window_len)
            })
            .collect()
    }

    /// A query's answer, with scores as bits: its SYN points, or the best
    /// score and threshold of a miss.
    fn answer_bits(answer: Result<Vec<SynPoint>, RupsError>) -> Result<Vec<PointBits>, (u64, u64)> {
        answer.map(|p| point_bits(&p)).map_err(|e| match e {
            RupsError::NoSynPoint {
                best_score,
                threshold,
            } => (best_score.to_bits(), threshold.to_bits()),
            other => panic!("{other:?}"),
        })
    }

    #[test]
    fn batched_fixes_share_one_own_table_per_window_length() {
        // Three neighbours of two lengths: the 60 m one shrinks the window
        // to 36 m, the others keep 40 m, so the own context rolls two
        // tables, each shared by its queries' reverse passes.
        let c = RupsConfig {
            window_len_m: 40,
            ..cfg(16)
        };
        let own = node(&c, 31, 0, 400);
        let snaps: Vec<_> = [(60, 300), (250, 60), (120, 250)]
            .iter()
            .map(|&(start, len)| node(&c, 31, start, len).snapshot(None))
            .collect();
        let fixes = own.fix_distances_parallel(&snaps);
        let ctx = own.engine().own_context().unwrap();
        for (snap, fix) in snaps.iter().zip(fixes) {
            let expect = syn::find_syn_points(ctx.gsm(), &snap.gsm, &c).unwrap();
            assert_eq!(point_bits(&fix.unwrap().syn_points), point_bits(&expect));
        }
        let mut lens: Vec<usize> = ctx.tables.read().unwrap().keys().copied().collect();
        lens.sort_unstable();
        assert_eq!(lens, [36, 40]);
        let s = own.engine_stats();
        assert_eq!((s.fft_passes, s.fft_fallbacks), (0, 0), "{s:?}");
    }

    #[test]
    fn own_rows_refuse_only_the_passes_that_select_them() {
        let c = RupsConfig {
            window_channels: 8,
            interpolate_missing: false,
            ..cfg(16)
        };
        let rows = |seed: u64, start: usize, len: usize| -> Vec<Vec<f32>> {
            let t = traj(seed, start, len, 16);
            (0..16).map(|ch| t.channel(ch).to_vec()).collect()
        };
        // Channel 0 is 40 dB below the rest, so no window selects it.
        let weak = |mut r: Vec<Vec<f32>>| {
            r[0].iter_mut().for_each(|v| *v -= 40.0);
            r
        };
        let theirs = GsmTrajectory::from_rows(weak(rows(19, 45, 300)));
        let clean = weak(rows(19, 0, 300));
        let mut holed = clean.clone();
        holed[0][150] = f32::NAN;
        let run = |ours: &GsmTrajectory, theirs: &GsmTrajectory, c: &RupsConfig| {
            let engine = SynQueryEngine::new(c.clone());
            engine.set_context(ours);
            let got = engine.find_syn_points_with(theirs, Kernel::Reference);
            let expect = syn::find_syn_points(ours, theirs, c);
            assert_eq!(answer_bits(got.clone()), answer_bits(expect));
            (got, engine.stats().pruned_placements)
        };
        // A hole in the unselected channel refuses no pass: every pass
        // drops exactly the placements it drops without the hole.
        let (with_hole, pruned) = run(&GsmTrajectory::from_rows(holed.clone()), &theirs, &c);
        let (without, pruned_clean) = run(&GsmTrajectory::from_rows(clean), &theirs, &c);
        assert!(with_hole.is_ok());
        assert_eq!(answer_bits(with_hole), answer_bits(without));
        assert_eq!(pruned, pruned_clean);
        // With every channel selected the hole lies on every reverse pass:
        // those take the recompute scan, and a miss against an unrelated
        // neighbour reports the search of record's best score bit for bit.
        let all = RupsConfig {
            window_channels: 16,
            ..c
        };
        let unrelated = GsmTrajectory::from_rows(weak(rows(977, 0, 300)));
        let (miss, _) = run(&GsmTrajectory::from_rows(holed), &unrelated, &all);
        assert!(
            matches!(miss, Err(RupsError::NoSynPoint { .. })),
            "{miss:?}"
        );
    }

    #[test]
    fn counters_show_cache_reuse_across_queries() {
        let ours = traj(13, 0, 300, 16);
        let c = cfg(16);
        let engine = SynQueryEngine::new(c);
        engine.set_context(&ours);
        for off in [20usize, 35, 50] {
            let theirs = traj(13, off, 300, 16);
            engine.find_syn_points(&theirs).unwrap();
        }
        let s = engine.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.context_rebuilds, 1);
        assert!(
            s.window_hits > 0,
            "repeat queries must hit the window memo: {s:?}"
        );
        // One pop from the process-wide pool per query; whether it reuses
        // or allocates depends on what concurrently running tests hold.
        assert_eq!(s.scratch_allocs + s.scratch_reuses, 3, "{s:?}");
    }

    #[test]
    fn no_context_reports_insufficient() {
        let engine = SynQueryEngine::new(cfg(8));
        let theirs = traj(1, 0, 100, 8);
        assert!(matches!(
            engine.find_syn_points(&theirs),
            Err(RupsError::InsufficientContext { available_m: 0, .. })
        ));
    }

    #[test]
    fn fft_falls_back_per_pass_on_sparse_neighbours() {
        let ours = traj(15, 0, 300, 12);
        let mut rows: Vec<Vec<f32>> = (0..12)
            .map(|ch| traj(15, 40, 300, 12).channel(ch).to_vec())
            .collect();
        rows[0][150] = f32::NAN;
        let theirs = GsmTrajectory::from_rows(rows);
        let c = RupsConfig {
            interpolate_missing: false,
            ..cfg(12)
        };
        let engine = SynQueryEngine::new(c.clone());
        engine.set_context(&ours);
        let got = engine.find_syn_points_with(&theirs, Kernel::Fft).unwrap();
        let expect = syn::find_syn_points(&ours, &theirs, &c).unwrap();
        assert_eq!(expect.len(), got.len());
        for (e, g) in expect.iter().zip(&got) {
            assert_eq!(
                e.self_end as i64 - e.other_end as i64,
                g.self_end as i64 - g.other_end as i64
            );
            assert!((e.score - g.score).abs() < 1e-9, "{e:?} vs {g:?}");
        }
        let s = engine.stats();
        assert!(
            s.fft_fallbacks > 0 && s.fft_passes > 0,
            "NaN neighbour rows must trigger the reference fallback per pass: {s:?}"
        );
    }

    #[test]
    fn shared_registry_sees_engine_counters_and_stage_latencies() {
        let reg = Arc::new(Registry::new());
        let ours = traj(17, 0, 300, 16);
        let engine = SynQueryEngine::with_registry(cfg(16), Arc::clone(&reg));
        engine.set_context(&ours);
        let before = engine.stats();
        engine.find_syn_points(&traj(17, 30, 300, 16)).unwrap();
        engine.find_syn_points(&traj(17, 45, 300, 16)).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rups_core_engine_queries"), Some(2));
        assert_eq!(
            snap.counter("rups_core_engine_context_rebuilds"),
            Some(1),
            "registry and EngineStats must agree: {:?}",
            engine.stats()
        );
        let d = engine.stats().delta(&before);
        assert_eq!(d.queries, 2);
        assert_eq!(
            d.context_rebuilds, 0,
            "delta must exclude the set_context rebuild"
        );
        assert!(d.window_hit_rate() > 0.0);
        if cfg!(feature = "obs") {
            let q = snap
                .histogram("rups_core_engine_query_ns")
                .expect("query latency histogram registered");
            assert_eq!(q.count, 2, "one timer sample per query");
            assert!(
                snap.histogram("rups_core_engine_kernel_scan_ns")
                    .map_or(0, |h| h.count)
                    > 0,
                "directed passes must record scan latency"
            );
        }
    }

    #[test]
    fn context_version_gates_rebuilds() {
        let c = cfg(8);
        let engine = SynQueryEngine::new(c);
        let raw = traj(16, 0, 120, 8);
        let a = engine.ensure_context(7, &raw);
        let b = engine.ensure_context(7, &raw);
        assert!(Arc::ptr_eq(&a, &b));
        let c2 = engine.ensure_context(8, &raw);
        assert!(!Arc::ptr_eq(&a, &c2));
        let s = engine.stats();
        assert_eq!(s.context_rebuilds, 2);
        assert_eq!(s.context_hits, 1);
    }
}
