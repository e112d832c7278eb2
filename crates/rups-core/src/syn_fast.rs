//! The one score loop of every dense SYN pass: the stand-alone full scan of
//! [`crate::syn::slide_scores`] and the engine's rolling, anchored and FFT
//! passes.
//!
//! The per-placement double-sliding check costs `O(mwk)` (§V-A): every
//! window placement recomputes per-channel sums over `w` metres. After
//! missing-channel interpolation the rows are dense, and the
//! placement-dependent quantities reduce to
//!
//! * per-channel sliding dot products `Σ f_i · s_{j+i}` — four-lane naive
//!   dot products ([`lane_dot`]; [`lane_dots`] takes eight placements per
//!   load of the fixed row on AVX hosts, bit for bit alike), or the
//!   packed-FFT cross-correlation of the engine's FFT kernel ([`Dots`]),
//! * per-channel window sums/sum-of-squares, rolled in `O(1)` per
//!   placement (`roll`).
//!
//! A pass ([`DensePass`]) reads its sliding side from a [`RolledTable`]:
//! one trajectory's window means and checkpointed window sums at one window
//! length, rolled a channel at a time on first use. The passes of a batch
//! that slide over one trajectory share it — the engine keeps the own
//! context's table per window length and a neighbour's in the query's
//! scratch — so each channel is rolled once per batch, not once per pass.
//! From the table's channel-major means every placement's profile term
//! `P(j)`, the second term of Eq. (2), is scored a block of placements at a
//! time (`profile_terms`), in [`PairSums::accumulate`]'s summation order,
//! so it equals [`stats::pearson`](crate::stats::pearson) bit for bit.
//!
//! The loop then walks the window's channels in window order. For each
//! channel it takes the dot products of the placements still alive and
//! adds that channel's Pearson to each one's running sum `S` over `n`
//! defined channels. A bounded pass first scores the [`SEEDS`] placements
//! with the highest `P(j)`, then drops a placement as soon as its exact
//! bound falls below the best score — the early abandoning of exact
//! subsequence search (Rakthanmanon et al., KDD 2012), run channel-major
//! so that it vectorises across placements. The full scan is the same loop
//! with no bound. Every peak is bit-identical to [`crate::syn::peak`] over
//! the full scan.
//!
//! Scores match the per-placement scan to floating-point rounding. A pass
//! refuses rows whose selected channels carry missing or corrupt values,
//! and its callers fall back to the non-finite-aware per-placement scan.
//! All buffers and tables come from one process-wide pool of arenas
//! ([`PooledArena`]), which the engine's queries and passes stage in too,
//! so steady-state passes allocate nothing.

use crate::dsp::{self, Complex};
use crate::gsm::GsmTrajectory;
use crate::stats::PairSums;
use crate::syn;
use crate::window::CheckWindow;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// A pass's peak as [`syn::peak`] returns it: placement (counted from the
/// first one scanned), Eq. (2) score and parabolic refinement.
pub(crate) type Peak = (usize, f64, f64);

/// Every buffer a directed pass needs besides its rolled table, pooled in
/// an [`Arena`] so repeated passes perform no allocation after warm-up.
#[derive(Default)]
pub(crate) struct DenseScratch {
    /// FFT work area shared by all transform calls.
    pub work: Vec<Complex>,
    /// Spectra of the current channel pair's fixed rows when an FFT pass
    /// transforms them fresh (a neighbour's window).
    pub spec_fa: Vec<Complex>,
    pub spec_fb: Vec<Complex>,
    /// Correlation lags of the current channel pair.
    pub dots_a: Vec<f64>,
    pub dots_b: Vec<f64>,
    /// An FFT pass's dot products at every placement, window channel by
    /// window channel: the source of [`Dots::Fft`].
    pub fft_dots: Vec<f64>,
    /// The score loop's buffers.
    pub pass: PassScratch,
    /// Per-placement scores: the full scan, or the recompute scan of rows
    /// the score loop refuses.
    pub scores: Vec<f64>,
}

/// The buffers of the score loop: per window channel the fixed-window
/// `(Σf, Σf²)` and mean, each placement's profile term (NaN where
/// undefined), the placements still alive with their running `(S, n)`, and
/// one channel's dot products and window sums at them; and the rows
/// [`lane_dots`] widens.
#[derive(Default)]
pub(crate) struct PassScratch {
    fixed_sums: Vec<(f64, f64)>,
    fixed_means: Vec<f32>,
    profile: Vec<f64>,
    alive: Vec<(usize, f64, u32)>,
    dots: Vec<f64>,
    wide: Vec<f64>,
    rolled: Vec<(f64, f64)>,
}

/// The mean of a `w`-metre window from its sum, quantised to f32 like the
/// reference path's profile.
fn window_mean(sum: f64, w: usize) -> f32 {
    (sum / w as f64) as f32
}

/// One channel's Pearson at one placement from its window sums and dot
/// product, and whether it is defined: the [`PairSums`] math of the
/// reference path, so thresholds and degenerate-variance handling agree.
fn channel_pearson_parts(
    w: usize,
    fixed: (f64, f64),
    sliding: (f64, f64),
    dot: f64,
) -> (bool, f64) {
    PairSums {
        n: w,
        sum_a: fixed.0,
        sum_b: sliding.0,
        sum_aa: fixed.1,
        sum_bb: sliding.1,
        sum_ab: dot,
    }
    .pearson_parts()
}

/// One step of the roll every pass runs: sliding-window sums `(Σs, Σs²)`,
/// seeded once with [`dsp::sum_sumsq`] over the first placement, moved on
/// by one metre in `O(1)` rather than rebuilt, which turns the `O(mw)`
/// statistics sweep into `O(m)`. `span` runs from the metre leaving the
/// window to the one entering it; an `f32` row rolls bit for bit like its
/// `f64` copy.
#[inline]
fn roll<T: Copy + Into<f64>>((sum, sumsq): (f64, f64), span: &[T]) -> (f64, f64) {
    let (dropped, added): (f64, f64) = (span[0].into(), span[span.len() - 1].into());
    (
        sum + (added - dropped),
        sumsq + (added * added - dropped * dropped),
    )
}

/// What a query stages in: the table its neighbour's rows roll into, the
/// memo their packed spectra fill, and the buffers of one running pass.
#[derive(Default)]
pub(crate) struct Arena {
    /// Re-targeted per query; keeps its filled channels' buffers.
    pub table: RolledTable,
    /// Emptied per query; keeps its entries' buffers.
    pub spectra: dsp::SpectraMemo,
    pub scratch: DenseScratch,
}

/// An [`Arena`] held out of the process-wide pool, returned to it on drop.
/// The pool grows to the peak number of arenas held at once and never
/// shrinks, and a returned arena keeps its buffers, so steady-state holders
/// are allocation-free.
pub(crate) struct PooledArena(Arena);

fn arena_pool() -> &'static Mutex<Vec<Arena>> {
    static POOL: Mutex<Vec<Arena>> = Mutex::new(Vec::new());
    &POOL
}

impl PooledArena {
    /// Pops an arena from the pool, or makes one when the pool is empty;
    /// the flag says whether it was reused.
    pub(crate) fn pop() -> (Self, bool) {
        let popped = arena_pool().lock().expect("arena pool poisoned").pop();
        let reused = popped.is_some();
        (Self(popped.unwrap_or_default()), reused)
    }
}

impl std::ops::Deref for PooledArena {
    type Target = Arena;
    fn deref(&self) -> &Arena {
        &self.0
    }
}

impl std::ops::DerefMut for PooledArena {
    fn deref_mut(&mut self) -> &mut Arena {
        &mut self.0
    }
}

impl Drop for PooledArena {
    fn drop(&mut self) {
        // A poisoned pool only loses this arena.
        if let Ok(mut pool) = arena_pool().lock() {
            pool.push(std::mem::take(&mut self.0));
        }
    }
}

/// Placements a bounded pass scores first, those with the highest profile
/// term, so that its best is high before the rest are walked.
const SEEDS: usize = 8;

/// Placements between two checkpoints of a [`RolledTable`]'s roll.
const CHECKPOINT: usize = 8;

/// Placements whose profile terms [`profile_terms`] scores together.
const PROFILE_BLOCK: usize = 4;

/// One trajectory's rolled window statistics at one window length over a
/// range of placements: the sliding side of every dense pass over that
/// trajectory. Channels are filled on first use and then shared, so the
/// passes that slide over one trajectory roll each channel once. A filled
/// channel holds whether its row is finite over the metres the range reads,
/// its `f32` window mean at every placement, and its `(Σ, Σ²)` every
/// [`CHECKPOINT`] placements, rolled from the range's first placement.
#[derive(Default)]
pub(crate) struct RolledTable {
    /// Window length.
    w: usize,
    /// The placements covered.
    placements: Range<usize>,
    /// Per trajectory channel, filled on first use.
    channels: Vec<OnceLock<ChannelRoll>>,
    /// Buffers of the channels filled before the last [`RolledTable::reset`],
    /// reused by the next fills.
    spare: Mutex<Vec<ChannelRoll>>,
}

/// One channel of a [`RolledTable`].
#[derive(Default)]
struct ChannelRoll {
    /// Every metre the table's placements read is finite.
    finite: bool,
    /// The window mean at each placement, `f32` like the reference profile
    /// (finite rows only).
    means: Vec<f32>,
    /// `(Σ, Σ²)` at every [`CHECKPOINT`]-th placement (finite rows only).
    checkpoints: Vec<(f64, f64)>,
}

impl ChannelRoll {
    /// Rolls `row` over `placements` of a `w`-metre window: seeded with
    /// [`dsp::sum_sumsq`] at the first placement and moved on by [`roll`].
    fn fill(&mut self, row: &[f32], w: usize, placements: Range<usize>) {
        self.means.clear();
        self.checkpoints.clear();
        self.finite = placements.is_empty()
            || row[placements.start..placements.end + w - 1]
                .iter()
                .all(|v| v.is_finite());
        if !self.finite {
            return;
        }
        let mut sums = (0.0, 0.0);
        for (j, at) in placements.enumerate() {
            sums = if j == 0 {
                dsp::sum_sumsq(&row[at..at + w])
            } else {
                roll(sums, &row[at - 1..at + w])
            };
            if j % CHECKPOINT == 0 {
                self.checkpoints.push(sums);
            }
            self.means.push(window_mean(sums.0, w));
        }
    }
}

impl RolledTable {
    /// An empty table over the valid window `placements` of a trajectory
    /// with `n_channels` channels, at window length `w`.
    pub(crate) fn new(n_channels: usize, w: usize, placements: Range<usize>) -> Self {
        let mut table = Self::default();
        table.reset(n_channels, w, placements);
        table
    }

    /// Empties the table and re-targets it, keeping the buffers of the
    /// channels it had filled for its next fills.
    pub(crate) fn reset(&mut self, n_channels: usize, w: usize, placements: Range<usize>) {
        let spare = self.spare.get_mut().expect("rolled table lock poisoned");
        spare.extend(self.channels.iter_mut().filter_map(OnceLock::take));
        self.channels.resize_with(n_channels, OnceLock::new);
        (self.w, self.placements) = (w, placements);
    }

    /// The placements the table covers.
    pub(crate) fn placements(&self) -> Range<usize> {
        self.placements.clone()
    }

    /// Channel `ch` of `sliding`, the trajectory the table covers, rolled
    /// on first use.
    fn channel(&self, sliding: &GsmTrajectory, ch: usize) -> &ChannelRoll {
        self.channels[ch].get_or_init(|| {
            let spare = self.spare.lock().expect("rolled table lock poisoned").pop();
            let mut roll = spare.unwrap_or_default();
            roll.fill(sliding.channel(ch), self.w, self.placements());
            roll
        })
    }
}

/// Every placement's mean-profile Pearson, the second term of Eq. (2) (NaN
/// where undefined), from the fixed window's channel means `fixed` and the
/// sliding windows' means, channel-major: `means(ci)[j]` is window channel
/// `ci`'s mean at placement `j`. Refills `out` with `n_pos` entries, each
/// bit for bit [`stats::pearson`](crate::stats::pearson) of `fixed` against
/// that placement's (finite) means: the sums follow
/// [`PairSums::accumulate`]'s order — four lanes over channels merged
/// `(0+1)+(2+3)`, then the `k mod 4` remainder — over [`PROFILE_BLOCK`]
/// placements at a time, and each block's coefficients come from the
/// branch-free [`PairSums::pearson_parts`], so that their divisions and
/// square roots run side by side.
fn profile_terms<'a>(
    fixed: &[f32],
    means: impl Fn(usize) -> &'a [f32],
    n_pos: usize,
    out: &mut Vec<f64>,
) {
    const B: usize = PROFILE_BLOCK;
    let (k, chunked) = (fixed.len(), fixed.len() - fixed.len() % 4);
    let merge = |l: [f64; 4]| (l[0] + l[1]) + (l[2] + l[3]);
    let (mut sa, mut saa) = ([0.0; 4], [0.0; 4]);
    for (c, &f) in fixed[..chunked].iter().enumerate() {
        let f = f64::from(f);
        sa[c % 4] += f;
        saa[c % 4] += f * f;
    }
    let (mut sum_a, mut sum_aa) = (merge(sa), merge(saa));
    for &f in &fixed[chunked..] {
        let f = f64::from(f);
        sum_a += f;
        sum_aa += f * f;
    }
    out.clear();
    for j0 in (0..n_pos).step_by(B) {
        let len = B.min(n_pos - j0);
        // The block's means of window channel `c`, zero-padded past the
        // last placement.
        let block = |c: usize| -> [f64; B] {
            let row = &means(c)[j0..j0 + len];
            let xs: [f32; B] = row.try_into().unwrap_or_else(|_| {
                let mut padded = [0.0; B];
                padded[..len].copy_from_slice(row);
                padded
            });
            xs.map(f64::from)
        };
        // `(Σs, Σs², Σfs)` at each placement of the block: per lane over
        // the chunked channels, merged, then the remainder channels.
        let add = |[sb, sbb, sab]: &mut [[f64; B]; 3], f: f32, xs: [f64; B]| {
            let f = f64::from(f);
            for (b, x) in xs.into_iter().enumerate() {
                sb[b] += x;
                sbb[b] += x * x;
                sab[b] += f * x;
            }
        };
        let lanes: [[[f64; B]; 3]; 4] = std::array::from_fn(|l| {
            let mut lane = [[0.0; B]; 3];
            for c in (l..chunked).step_by(4) {
                add(&mut lane, fixed[c], block(c));
            }
            lane
        });
        let mut sums = std::array::from_fn(|i| {
            std::array::from_fn(|b| merge(std::array::from_fn(|l| lanes[l][i][b])))
        });
        for (c, &f) in fixed.iter().enumerate().skip(chunked) {
            add(&mut sums, f, block(c));
        }
        let [sum_b, sum_bb, sum_ab] = sums;
        let terms: [f64; B] = std::array::from_fn(|b| {
            let (defined, r) = PairSums {
                n: k,
                sum_a,
                sum_b: sum_b[b],
                sum_aa,
                sum_bb: sum_bb[b],
                sum_ab: sum_ab[b],
            }
            .pearson_parts();
            if defined {
                r
            } else {
                f64::NAN
            }
        });
        out.extend_from_slice(&terms[..len]);
    }
}

/// Where a pass's per-channel sliding dot products come from.
#[derive(Clone, Copy)]
pub(crate) enum Dots<'a> {
    /// [`lane_dots`] over the fixed and sliding rows, taken only at the
    /// placements still alive, a run of consecutive ones at a time.
    Lanes,
    /// The FFT kernel's correlations: every placement's dot products, one
    /// row of the table's placement count per window channel, in window
    /// order.
    Fft(&'a [f64]),
}

/// One dense pass: the `fixed` window `[fixed_start, fixed_start + w)`
/// against the placements of `sliding` that `table` covers, rolled at the
/// window's length.
pub(crate) struct DensePass<'a> {
    pub fixed: &'a GsmTrajectory,
    pub fixed_start: usize,
    pub sliding: &'a GsmTrajectory,
    pub table: &'a RolledTable,
    pub window: &'a CheckWindow,
    pub dots: Dots<'a>,
}

impl DensePass<'_> {
    /// True when every selected channel is finite over the fixed window and
    /// over the sliding metres the pass reads: the loop assumes
    /// full-support windows, where [`PairSums`] would skip samples `n = w`
    /// still counts. Rows that fail take the recompute scan of record.
    pub(crate) fn finite(&self) -> bool {
        let fixed_rows = self.fixed_start..self.fixed_start + self.window.len_m;
        self.window.channels.iter().all(|&ch| {
            self.fixed.channel(ch)[fixed_rows.clone()]
                .iter()
                .all(|v| v.is_finite())
                && self.table.channel(self.sliding, ch).finite
        })
    }

    /// Every placement's Eq. (2) score (NaN where undefined), refilling
    /// `out`: the score loop with no bound, the full scan behind
    /// [`syn::slide_scores`]. The rows must be [`finite`](Self::finite).
    pub(crate) fn scores(&self, s: &mut PassScratch, out: &mut Vec<f64>) {
        self.prepare(s);
        s.alive.clear();
        s.alive.extend((0..s.profile.len()).map(|j| (j, 0.0, 0)));
        self.run(f64::NEG_INFINITY, s);
        out.clear();
        out.extend(
            s.alive
                .iter()
                .map(|&(j, sum, n)| score(s.profile[j], sum, n)),
        );
    }

    /// The peak [`syn::peak`] picks over the full scan, bit for bit —
    /// `None` inside when it scores below `floor` — and the number of
    /// placements the exact bound dropped before their full score. The
    /// rows must be [`finite`](Self::finite).
    ///
    /// The [`SEEDS`] placements with the highest profile terms run through
    /// the loop first, bounded by `floor` alone, and set the best score;
    /// the rest then run bounded by `max(best, floor)`. Among the
    /// placements scored in full, the lowest one wins among equal maxima,
    /// and the peak's neighbours are scored in full for
    /// [`syn::refine_peak`].
    pub(crate) fn peak(&self, floor: f64, s: &mut PassScratch) -> (Option<Peak>, u64) {
        self.prepare(s);
        let n_pos = self.table.placements.len();
        // The SEEDS highest profile terms, from one linear scan.
        let mut seeds = [(f64::NEG_INFINITY, usize::MAX); SEEDS];
        for (j, &p) in s.profile.iter().enumerate() {
            if let Some(i) = seeds.iter().position(|&(q, _)| p >= q) {
                seeds.copy_within(i..SEEDS - 1, i + 1);
                seeds[i] = (p, j);
            }
        }
        let mut seeds = seeds.map(|(_, j)| j);
        seeds.sort_unstable();
        s.alive.clear();
        s.alive
            .extend(seeds.iter().filter(|&&j| j < n_pos).map(|&j| (j, 0.0, 0)));
        let mut pruned = self.run(floor, s);
        let best = best_scored(s, None);
        let profile = &s.profile;
        s.alive.clear();
        s.alive.extend(
            (0..n_pos)
                .filter(|j| !profile[*j].is_nan() && !seeds.contains(j))
                .map(|j| (j, 0.0, 0)),
        );
        pruned += self.run(best.map_or(floor, |(_, b)| b.max(floor)), s);
        let peak = best_scored(s, best)
            .filter(|&(_, x)| x >= floor)
            .map(|(i, x)| (i, x, syn::refine_peak(i, x, n_pos, |j| self.score_at(j, s))));
        (peak, pruned)
    }

    /// Placement `j`'s full score, through the loop with no bound.
    fn score_at(&self, j: usize, s: &mut PassScratch) -> f64 {
        s.alive.clear();
        s.alive.push((j, 0.0, 0));
        self.run(f64::NEG_INFINITY, s);
        let (_, sum, n) = s.alive[0];
        score(s.profile[j], sum, n)
    }

    /// Fills the fixed window's per-channel sums and means and every
    /// placement's profile term from the table's means.
    fn prepare(&self, s: &mut PassScratch) {
        let w = self.window.len_m;
        debug_assert_eq!(w, self.table.w, "a table rolls one window length");
        let fixed_rows = self.fixed_start..self.fixed_start + w;
        s.fixed_sums.clear();
        s.fixed_means.clear();
        for &ch in &self.window.channels {
            let sums = dsp::sum_sumsq(&self.fixed.channel(ch)[fixed_rows.clone()]);
            s.fixed_sums.push(sums);
            s.fixed_means.push(window_mean(sums.0, w));
        }
        let rolled = |ci: usize| self.table.channel(self.sliding, self.window.channels[ci]);
        let n_pos = self.table.placements.len();
        profile_terms(
            &s.fixed_means,
            |ci| &rolled(ci).means,
            n_pos,
            &mut s.profile,
        );
    }

    /// The score loop over the ascending placements of `s.alive`, returning
    /// how many it dropped. It walks the window's channels in window order,
    /// and before each one drops every placement whose exact bound
    /// `P + (S + r)/(n + r) + PASS_TIE_MARGIN`, with `r` channels left,
    /// falls below `target` (a target above −∞ needs every placement's
    /// profile term defined): Pearsons are clamped to ≤ 1 and the margin
    /// dwarfs the rounding of a sum of a few dozen terms, so no dropped
    /// placement can reach `target`. It then takes the channel's dot
    /// products at the placements left, a run of consecutive ones at a
    /// time, with their window sums rolled to the run's first placement
    /// from the table's checkpoint and then along the run — the full
    /// scan's roll, so the bits are the same — and adds each one's Pearson
    /// to its running `(S, n)`.
    fn run(&self, target: f64, s: &mut PassScratch) -> u64 {
        let (w, k) = (self.window.len_m, self.window.channels.len());
        let (first, n_pos) = (self.table.placements.start, self.table.placements.len());
        let fixed_rows = self.fixed_start..self.fixed_start + w;
        let mut dropped = 0;
        for (ci, &ch) in self.window.channels.iter().enumerate() {
            if target > f64::NEG_INFINITY {
                let (left, before, profile) = ((k - ci) as f64, s.alive.len(), &s.profile);
                s.alive.retain(|&(j, sum, n)| {
                    profile[j] + (sum + left) / (n as f64 + left) + syn::PASS_TIE_MARGIN >= target
                });
                dropped += (before - s.alive.len()) as u64;
            }
            if s.alive.is_empty() {
                break;
            }
            let (row, rolled) = (
                self.sliding.channel(ch),
                self.table.channel(self.sliding, ch),
            );
            let f = &self.fixed.channel(ch)[fixed_rows.clone()];
            let len = s.alive.len();
            s.dots.resize(len, 0.0);
            s.rolled.resize(len, (0.0, 0.0));
            let mut i = 0;
            while i < len {
                let j = s.alive[i].0;
                let run = run_len(&s.alive[i..]);
                let span = &row[first + j..first + j + run + w - 1];
                let dots = &mut s.dots[i..i + run];
                match self.dots {
                    Dots::Fft(all) => dots.copy_from_slice(&all[ci * n_pos + j..][..run]),
                    Dots::Lanes => lane_dots(f, span, dots, &mut s.wide),
                }
                let base = j - j % CHECKPOINT;
                let mut sums = rolled.checkpoints[base / CHECKPOINT];
                for at in base + 1..=j {
                    sums = roll(sums, &row[first + at - 1..first + at + w]);
                }
                s.rolled[i] = sums;
                for (t, out) in s.rolled[i + 1..i + run].iter_mut().enumerate() {
                    sums = roll(sums, &span[t..=t + w]);
                    *out = sums;
                }
                i += run;
            }
            // The Pearsons replace the dot products (NaN where undefined),
            // side by side so that their divisions vectorise.
            let fixed = s.fixed_sums[ci];
            for (dot, &sums) in s.dots.iter_mut().zip(&s.rolled) {
                let (defined, r) = channel_pearson_parts(w, fixed, sums, *dot);
                *dot = if defined { r } else { f64::NAN };
            }
            for (entry, &r) in s.alive.iter_mut().zip(&s.dots) {
                if !r.is_nan() {
                    entry.1 += r;
                    entry.2 += 1;
                }
            }
        }
        dropped
    }
}

/// How many placements at the head of the ascending `alive` are
/// consecutive.
fn run_len(alive: &[(usize, f64, u32)]) -> usize {
    let j = alive[0].0;
    if alive[alive.len() - 1].0 - j == alive.len() - 1 {
        return alive.len();
    }
    (alive.iter().zip(j..))
        .take_while(|&(&(a, ..), b)| a == b)
        .count()
}

/// The Eq. (2) score of a placement from its profile term and its running
/// `(S, n)`: mean per-channel Pearson plus the profile term, NaN when
/// either is undefined.
fn score(profile: f64, sum: f64, n: u32) -> f64 {
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64 + profile
    }
}

/// The best of `best` and the placements the loop scored in full in
/// `s.alive`: the highest score, the lowest placement among equal ones.
fn best_scored(s: &PassScratch, mut best: Option<(usize, f64)>) -> Option<(usize, f64)> {
    for &(j, sum, n) in &s.alive {
        let x = score(s.profile[j], sum, n);
        if !x.is_nan() && best.is_none_or(|(i, b)| x > b || (x == b && j < i)) {
            best = Some((j, x));
        }
    }
    best
}

/// Dot product hand-unrolled into four independent f64 lanes (combined in
/// a fixed `(0+1)+(2+3)` order). `f32` operands are widened exactly, so they
/// multiply bit for bit like their `f64` copies.
#[inline]
pub(crate) fn lane_dot<F: Copy, S: Copy>(f: &[F], s: &[S]) -> f64
where
    f64: From<F> + From<S>,
{
    debug_assert_eq!(f.len(), s.len());
    let mut acc = [0.0f64; 4];
    let mut fc = f.chunks_exact(4);
    let mut sc = s.chunks_exact(4);
    for (cf, cs) in (&mut fc).zip(&mut sc) {
        acc[0] += f64::from(cf[0]) * f64::from(cs[0]);
        acc[1] += f64::from(cf[1]) * f64::from(cs[1]);
        acc[2] += f64::from(cf[2]) * f64::from(cs[2]);
        acc[3] += f64::from(cf[3]) * f64::from(cs[3]);
    }
    let mut out = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&a, &b) in fc.remainder().iter().zip(sc.remainder()) {
        out += f64::from(a) * f64::from(b);
    }
    out
}

/// Sliding dot products of the fixed row `f` against consecutive
/// placements of `s`: `out[j]` is set to `lane_dot(f, &s[j..j + f.len()])`
/// bit for bit. Panics when `out` is not empty and `s` is shorter than
/// `out.len() + f.len() - 1`.
///
/// On x86_64 hosts with AVX, runs of at least [`AVX_BLOCK`] placements take
/// the blocked `lane_dots_avx` pass over `f64` copies of the rows, widened
/// once into `wide` (exactly) so that each value is converted once rather
/// than once per placement that reads it; the CPU check alone picks it.
/// Everywhere else the scalar loop runs on the `f32` rows.
pub(crate) fn lane_dots(f: &[f32], s: &[f32], out: &mut [f64], wide: &mut Vec<f64>) {
    let (w, n_pos) = (f.len(), out.len());
    assert_covers(s.len(), n_pos, w);
    #[cfg(target_arch = "x86_64")]
    if n_pos >= AVX_BLOCK && is_x86_feature_detected!("avx") {
        wide.clear();
        wide.extend(f.iter().map(|&v| f64::from(v)));
        wide.extend(s[..n_pos + w - 1].iter().map(|&v| f64::from(v)));
        let (f, s) = wide.split_at(w);
        // SAFETY: the CPU supports AVX, checked on the line above.
        unsafe { lane_dots_avx(f, s, out) };
        return;
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = lane_dot(f, &s[j..j + w]);
    }
}

/// Panics unless a sliding row of `s_len` values covers `n_pos` placements
/// of a `w`-long fixed row, i.e. `s_len >= n_pos + w - 1`.
fn assert_covers(s_len: usize, n_pos: usize, w: usize) {
    assert!(
        n_pos == 0 || s_len >= n_pos + w - 1,
        "lane_dots: sliding row of {s_len} values is shorter than {n_pos} placements of {w}"
    );
}

/// Placements the AVX pass scores per load of a fixed-row chunk.
#[cfg(target_arch = "x86_64")]
const AVX_BLOCK: usize = 8;

/// [`lane_dots`] over `out.len()` placements, in blocks of [`AVX_BLOCK`]
/// placements with one `__m256d` accumulator each: each 4-wide chunk of
/// `f` is loaded once per block, and the accumulator's four lanes are
/// [`lane_dot`]'s four lanes. Bit-identical to [`lane_dot`]: a separate
/// multiply then add rounds twice exactly like the scalar `acc += f * s`
/// (no FMA, which would round once), the lanes are combined in the same
/// `(0+1)+(2+3)` order and the `w mod 4` tail is added in the same order.
/// Placements after the last full block go through [`lane_dot`].
///
/// # Safety
///
/// The CPU must support AVX. Any slice lengths are sound: the bounds the
/// raw loads need are asserted before the first one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn lane_dots_avx(f: &[f64], s: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    let (w, n_pos) = (f.len(), out.len());
    assert_covers(s.len(), n_pos, w);
    let chunked = w - w % 4;
    let blocked = n_pos - n_pos % AVX_BLOCK;
    for j0 in (0..blocked).step_by(AVX_BLOCK) {
        let mut acc: [__m256d; AVX_BLOCK] = [_mm256_setzero_pd(); AVX_BLOCK];
        for i in (0..chunked).step_by(4) {
            // SAFETY: `i + 4 <= chunked <= w == f.len()`. Each sliding load
            // reads `s[j0 + b + i..j0 + b + i + 4]`, whose end is at most
            // `(blocked - 1) + chunked <= n_pos - 1 + w <= s.len()`
            // (asserted above).
            let fv = unsafe { _mm256_loadu_pd(f.as_ptr().add(i)) };
            for (b, a) in acc.iter_mut().enumerate() {
                // SAFETY: in bounds, as above.
                let sv = unsafe { _mm256_loadu_pd(s.as_ptr().add(j0 + b + i)) };
                *a = _mm256_add_pd(*a, _mm256_mul_pd(fv, sv));
            }
        }
        for (b, a) in acc.iter().enumerate() {
            let j = j0 + b;
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` holds exactly the four f64 the store writes.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), *a) };
            let mut dot = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            for (x, y) in f[chunked..].iter().zip(&s[j + chunked..j + w]) {
                dot += x * y;
            }
            out[j] = dot;
        }
    }
    for (j, o) in out.iter_mut().enumerate().skip(blocked) {
        *o = lane_dot(f, &s[j..j + w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RupsConfig;
    use crate::gsm::PowerVector;
    use crate::stats;
    use crate::testfield;

    fn dense_traj(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
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

    /// The pass of `fixed`'s window ending at `end` over the placements of
    /// `sliding` that `table` covers, with lane dot products.
    fn lanes<'a>(
        fixed: &'a GsmTrajectory,
        end: usize,
        sliding: &'a GsmTrajectory,
        table: &'a RolledTable,
        window: &'a CheckWindow,
    ) -> DensePass<'a> {
        let (fixed_start, dots) = (end - window.len_m, Dots::Lanes);
        DensePass {
            fixed,
            fixed_start,
            sliding,
            table,
            window,
            dots,
        }
    }

    /// The unbounded loop of `fixed`'s newest window over every placement
    /// on `sliding`, or `None` when it refuses the rows.
    fn lane_dot_scan(
        fixed: &GsmTrajectory,
        sliding: &GsmTrajectory,
        w: &CheckWindow,
    ) -> Option<Vec<f64>> {
        let table = RolledTable::new(
            sliding.n_channels(),
            w.len_m,
            0..sliding.len() - w.len_m + 1,
        );
        let pass = lanes(fixed, fixed.len(), sliding, &table, w);
        let mut out = Vec::new();
        let (mut a, _) = PooledArena::pop();
        pass.finite()
            .then(|| pass.scores(&mut a.scratch.pass, &mut out))?;
        Some(out)
    }

    /// A bounded pass at `floor`, on rows it must accept.
    fn peak_of(pass: &DensePass<'_>, floor: f64) -> (Option<Peak>, u64) {
        assert!(pass.finite(), "dense rows");
        pass.peak(floor, &mut PooledArena::pop().0.scratch.pass)
    }

    /// The bounded pass of `fixed`'s newest window over `placements` of
    /// `sliding` at `floor`, on rows it must accept.
    fn bounded(
        fixed: &GsmTrajectory,
        sliding: &GsmTrajectory,
        w: &CheckWindow,
        placements: Range<usize>,
        floor: f64,
    ) -> (Option<Peak>, u64) {
        let table = RolledTable::new(sliding.n_channels(), w.len_m, placements);
        peak_of(&lanes(fixed, fixed.len(), sliding, &table, w), floor)
    }

    fn peak_bits(p: Option<Peak>) -> Option<(usize, u64, u64)> {
        p.map(|(j, score, refine)| (j, score.to_bits(), refine.to_bits()))
    }

    /// The bounded pass over every placement answers `syn::peak` over the
    /// full scan bit for bit at floors up to that peak's score, and nothing
    /// above it. Returns the placements the bound dropped at no floor.
    fn assert_bounded_is_full_scan_peak(
        fixed: &GsmTrajectory,
        sliding: &GsmTrajectory,
        w: &CheckWindow,
    ) -> u64 {
        let full = syn::slide_scores(fixed, fixed.len() - w.len_m, sliding, w);
        let expect = syn::peak(&full);
        let mut floors = vec![f64::NEG_INFINITY, w.threshold];
        if let Some((_, max, _)) = expect {
            floors.extend([max.next_down(), max, max.next_up()]);
        }
        for floor in floors {
            let (got, _) = bounded(fixed, sliding, w, 0..full.len(), floor);
            let want = expect.filter(|&(_, score, _)| score >= floor);
            assert_eq!(peak_bits(got), peak_bits(want), "floor {floor}");
        }
        bounded(fixed, sliding, w, 0..full.len(), f64::NEG_INFINITY).1
    }

    /// `rows` (one per channel) as a trajectory.
    fn from_rows(rows: &[Vec<f32>]) -> GsmTrajectory {
        GsmTrajectory::from_rows(rows.to_vec())
    }

    /// `len` dBm values: f32-representable, as the rows store them, or at
    /// full f64 precision. f32 values multiply exactly in f64, so only the
    /// full-precision rows make a fused multiply-add or a reordered tail
    /// show in the bits.
    fn dbm_row(seed: u64, len: usize, f32_exact: bool) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let x = -75.0 + 20.0 * testfield::value_noise(seed, 3, i as f64 * 0.37);
                if f32_exact {
                    x as f32 as f64
                } else {
                    x
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lane_dots_match_lane_dot_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        let avx = is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        if !avx {
            eprintln!("no AVX on this host: only the scalar lane-dot path is checked");
        }
        let mut wide = Vec::new();
        for w in [1, 2, 3, 4, 5, 7, 8, 45, 84, 85, 86, 100] {
            for n_pos in [0, 1, 7, 8, 9, 15, 16, 17, 51, 316] {
                let (f, s) = (
                    f32_row(w as u64, w),
                    f32_row(1000 + n_pos as u64, n_pos + w - 1),
                );
                let expect: Vec<u64> = (0..n_pos)
                    .map(|j| lane_dot(&f, &s[j..j + w]).to_bits())
                    .collect();
                let mut got = vec![f64::NAN; n_pos];
                lane_dots(&f, &s, &mut got, &mut wide);
                assert_eq!(bits(&got), expect, "lane_dots, w {w}, n_pos {n_pos}");
                // The AVX pass itself, on f32-representable rows (what
                // `lane_dots` widens) and on full-precision rows, where a
                // fused multiply-add or a reordered tail would show.
                #[cfg(target_arch = "x86_64")]
                if avx {
                    for f32_exact in [true, false] {
                        let f = dbm_row(w as u64, w, f32_exact);
                        let s = dbm_row(1000 + n_pos as u64, n_pos + w - 1, f32_exact);
                        let expect: Vec<u64> = (0..n_pos)
                            .map(|j| lane_dot(&f, &s[j..j + w]).to_bits())
                            .collect();
                        let mut out = vec![f64::NAN; n_pos];
                        // SAFETY: the CPU supports AVX, checked above.
                        unsafe { lane_dots_avx(&f, &s, &mut out) };
                        let case = format!("w {w}, n_pos {n_pos}, f32 {f32_exact}");
                        assert_eq!(bits(&out), expect, "AVX pass, {case}");
                    }
                }
            }
        }
    }

    /// `len` f32 dBm values.
    fn f32_row(seed: u64, len: usize) -> Vec<f32> {
        dbm_row(seed, len, true).iter().map(|&v| v as f32).collect()
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn lane_dots_refuse_a_short_sliding_row() {
        let (w, n_pos) = (84, 16);
        let mut out = vec![0.0; n_pos];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx") {
            let (f, s) = (dbm_row(1, w, true), dbm_row(2, n_pos + w - 2, true));
            // SAFETY: the CPU supports AVX; the short row must trip the
            // length assert before any load.
            unsafe { lane_dots_avx(&f, &s, &mut out) };
            return;
        }
        let (f, s) = (f32_row(1, w), f32_row(2, n_pos + w - 2));
        lane_dots(&f, &s, &mut out, &mut Vec::new());
    }

    #[test]
    fn rolling_naive_scan_matches_recompute_reference() {
        let a = dense_traj(21, 0, 240, 17); // odd channel count: lone tail channel
        let b = dense_traj(21, 35, 240, 17);
        let c = cfg(17);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let reference = syn::slide_scores_reference(&a, a.len() - w.len_m, &b, &w);
        let rolling = lane_dot_scan(&a, &b, &w).expect("dense input");
        assert_eq!(reference.len(), rolling.len());
        for (i, (r, f)) in reference.iter().zip(&rolling).enumerate() {
            match (r.is_nan(), f.is_nan()) {
                (true, true) => {}
                (false, false) => {
                    assert!(
                        (r - f).abs() < 1e-6,
                        "placement {i}: ref {r} vs rolling {f}"
                    )
                }
                _ => panic!("definedness mismatch at {i}: ref {r}, rolling {f}"),
            }
        }
    }

    /// The bounded pass of `fixed`'s newest window over every placement on
    /// `sliding` at `floor`, reading its dot products from a precomputed
    /// table as an FFT pass does: here every placement's [`lane_dot`], so
    /// the answer must be the lane pass's bit for bit.
    fn precomputed(
        fixed: &GsmTrajectory,
        sliding: &GsmTrajectory,
        w: &CheckWindow,
        floor: f64,
    ) -> (Option<Peak>, u64) {
        let (fs, n_pos) = (fixed.len() - w.len_m, sliding.len() - w.len_m + 1);
        let dots: Vec<f64> = (w.channels.iter())
            .flat_map(|&ch| {
                let f = &fixed.channel(ch)[fs..fs + w.len_m];
                let s = sliding.channel(ch);
                (0..n_pos).map(move |j| lane_dot(f, &s[j..j + w.len_m]))
            })
            .collect();
        let table = RolledTable::new(sliding.n_channels(), w.len_m, 0..n_pos);
        let pass = DensePass {
            dots: Dots::Fft(&dots),
            ..lanes(fixed, fixed.len(), sliding, &table, w)
        };
        peak_of(&pass, floor)
    }

    #[test]
    fn pruned_peak_equals_full_scan_peak() {
        for (seed, off) in [(7u64, 30usize), (8, 55), (9, 10)] {
            let a = dense_traj(seed, 0, 300, 19);
            let b = dense_traj(seed, off, 300, 19);
            let c = cfg(19);
            let w = CheckWindow::for_context(&a, &c).unwrap();
            let full = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
            let expect = syn::peak(&full);
            assert!(expect.is_some());
            let n_pos = full.len();
            for floor in [f64::NEG_INFINITY, w.threshold] {
                let want = expect.filter(|&(_, x, _)| x >= floor);
                let (got, pruned) = precomputed(&a, &b, &w, floor);
                assert_eq!(
                    peak_bits(got),
                    peak_bits(want),
                    "seed {seed}, floor {floor}"
                );
                let (lane_peak, lane_pruned) = bounded(&a, &b, &w, 0..n_pos, floor);
                assert_eq!(
                    (peak_bits(got), pruned),
                    (peak_bits(lane_peak), lane_pruned)
                );
            }
        }
    }

    #[test]
    fn precomputed_dots_pass_drops_most_placements() {
        let a = dense_traj(33, 0, 350, 16);
        let b = dense_traj(33, 60, 350, 16);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let n_pos = b.len() - w.len_m + 1;
        let (peak, pruned) = precomputed(&a, &b, &w, f64::NEG_INFINITY);
        assert!(peak.is_some());
        // The table's dot products are the lane pass's, so it drops the
        // same placements.
        let lanes = bounded(&a, &b, &w, 0..n_pos, f64::NEG_INFINITY).1;
        assert_eq!(pruned, lanes);
        assert!(
            pruned > (n_pos as u64) / 4,
            "expected the bound to drop a sizeable share of {n_pos} placements, pruned {pruned}"
        );
    }

    #[test]
    fn bounded_peak_is_the_full_scan_peak_at_every_floor() {
        for (seed, off, len) in [(7u64, 30usize, 300usize), (8, 55, 300), (9, 10, 260)] {
            let a = dense_traj(seed, 0, len, 19);
            let b = dense_traj(seed, off, len, 19);
            let w = CheckWindow::for_context(&a, &cfg(19)).unwrap();
            // Most placements are dropped before their full score.
            let n_pos = (len - w.len_m + 1) as u64;
            let pruned = assert_bounded_is_full_scan_peak(&a, &b, &w);
            assert!(pruned * 10 > n_pos * 9, "dropped {pruned} of {n_pos}");
            // Unrelated rows: the peak sits below the threshold.
            let far = dense_traj(seed ^ 0xFA2, 0, len, 19);
            assert_bounded_is_full_scan_peak(&a, &far, &w);
        }
    }

    #[test]
    fn bounded_peak_over_a_placement_range_rolls_from_its_first_placement() {
        let a = dense_traj(12, 0, 320, 16);
        let b = dense_traj(12, 40, 320, 16);
        let w = CheckWindow::for_context(&a, &cfg(16)).unwrap();
        for js in [0..51, 150..201, 200..236] {
            // The full scan of the sliding metres those placements cover.
            let rows: Vec<Vec<f32>> = (0..16)
                .map(|ch| b.channel(ch)[js.start..js.end + w.len_m - 1].to_vec())
                .collect();
            let cut = from_rows(&rows);
            let full = syn::slide_scores(&a, a.len() - w.len_m, &cut, &w);
            let (got, _) = bounded(&a, &b, &w, js.clone(), f64::NEG_INFINITY);
            assert_eq!(peak_bits(got), peak_bits(syn::peak(&full)), "{js:?}");
        }
    }

    /// Whole-dBm rows keep every rolled sum, dot product and mean exact, so
    /// equal windows score bit for bit alike wherever they sit.
    fn whole_dbm_rows(seed: u64, len: usize, n_channels: usize) -> Vec<Vec<f32>> {
        (0..n_channels)
            .map(|ch| {
                (0..len)
                    .map(|i| testfield::rssi(seed, i as f64, ch).round())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bounded_peak_keeps_the_first_of_equal_maxima() {
        let (n_ch, w_m) = (12, 40);
        let fixed = whole_dbm_rows(3, 200, n_ch);
        let mut sliding = whole_dbm_rows(4, 300, n_ch);
        // The fixed window twice on the sliding rows: at placement 40 and
        // at placement 230. Equal profile terms rank the later copy first.
        for row in 0..n_ch {
            let window = fixed[row][200 - w_m..].to_vec();
            sliding[row][40..40 + w_m].copy_from_slice(&window);
            sliding[row][230..230 + w_m].copy_from_slice(&window);
        }
        let (a, b) = (from_rows(&fixed), from_rows(&sliding));
        let c = RupsConfig {
            window_len_m: w_m,
            ..cfg(n_ch)
        };
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let full = syn::slide_scores(&a, a.len() - w_m, &b, &w);
        assert_eq!(full[40].to_bits(), full[230].to_bits(), "an exact tie");
        assert_eq!(syn::peak(&full).map(|p| p.0), Some(40));
        assert_bounded_is_full_scan_peak(&a, &b, &w);
    }

    #[test]
    fn bounded_peak_skips_undefined_profiles_and_channels() {
        let (n_ch, len) = (10, 260);
        let a = dense_traj(17, 0, len, n_ch);
        let b = dense_traj(17, 45, len, n_ch);
        let w = CheckWindow::for_context(&a, &cfg(n_ch)).unwrap();
        let rows = |t: &GsmTrajectory| -> Vec<Vec<f32>> {
            (0..n_ch).map(|ch| t.channel(ch).to_vec()).collect()
        };
        let fixed_rows = len - w.len_m..len;
        // A selected channel flat over the fixed window: its Pearson is
        // undefined at every placement.
        let mut flat_channel = rows(&a);
        flat_channel[w.channels[2]][fixed_rows.clone()].fill(-70.0);
        let flat = from_rows(&flat_channel);
        let wf = CheckWindow::with_len(&flat, &cfg(n_ch), w.len_m, len).unwrap();
        assert!(wf.channels.contains(&w.channels[2]));
        assert_bounded_is_full_scan_peak(&flat, &b, &wf);
        // Every channel at one level over a stretch of the sliding rows:
        // the placements inside it have no profile term.
        let mut level = rows(&b);
        for row in &mut level {
            row[60..60 + 2 * w.len_m].fill(-70.0);
        }
        assert_bounded_is_full_scan_peak(&a, &from_rows(&level), &w);
        // A fixed window whose channels share one mean, each a rotation of
        // one whole-dBm window: no placement has a profile term, and there
        // is no peak.
        let mut same_mean = whole_dbm_rows(17, len, n_ch);
        let base = same_mean[0][fixed_rows.clone()].to_vec();
        for (ch, row) in same_mean.iter_mut().enumerate() {
            row[fixed_rows.clone()].copy_from_slice(&base);
            row[fixed_rows.clone()].rotate_left(7 * ch);
        }
        let same = from_rows(&same_mean);
        let ws = CheckWindow::with_len(&same, &cfg(n_ch), w.len_m, len).unwrap();
        assert_eq!(
            bounded(&same, &b, &ws, 0..len - w.len_m + 1, f64::NEG_INFINITY).0,
            None
        );
        assert_bounded_is_full_scan_peak(&same, &b, &ws);
    }

    #[test]
    fn profile_terms_are_stats_pearson_bit_for_bit() {
        let mean = |seed: u64, i: usize| dbm_row(seed, i + 1, false)[i] as f32;
        let mut got = Vec::new();
        for k in 0..=48 {
            let fixed: Vec<f32> = (0..k).map(|c| mean(7, c)).collect();
            for n_pos in [1, PROFILE_BLOCK - 1, PROFILE_BLOCK, PROFILE_BLOCK + 1, 37] {
                // Channel-major means; placement 0 is one level on every
                // channel, a constant profile.
                let rows: Vec<Vec<f32>> = (0..k)
                    .map(|c| {
                        let row = dbm_row(100 + c as u64, n_pos, true);
                        let mut row: Vec<f32> = row.iter().map(|&v| v as f32).collect();
                        row[0] = -70.0;
                        row
                    })
                    .collect();
                profile_terms(&fixed, |c| &rows[c], n_pos, &mut got);
                let expect: Vec<u64> = (0..n_pos)
                    .map(|j| {
                        let profile: Vec<f32> = rows.iter().map(|r| r[j]).collect();
                        stats::pearson(&fixed, &profile)
                            .unwrap_or(f64::NAN)
                            .to_bits()
                    })
                    .collect();
                assert_eq!(bits(&got), expect, "k {k}, n_pos {n_pos}");
                assert!(got[0].is_nan(), "a constant profile has no term");
                if k < 2 {
                    assert!(got.iter().all(|p| p.is_nan()), "k {k}");
                }
            }
        }
        // A constant fixed profile leaves every placement undefined.
        let row: Vec<f32> = dbm_row(1, 9, true).iter().map(|&v| v as f32).collect();
        profile_terms(&[-70.0; 6], |_| &row, 9, &mut got);
        assert!(got.iter().all(|p| p.is_nan()));
    }

    #[test]
    fn bounded_peak_on_a_shared_table_answers_like_a_table_per_pass() {
        let a = dense_traj(14, 0, 320, 16);
        let b = dense_traj(14, 40, 320, 16);
        let w = CheckWindow::for_context(&a, &cfg(16)).unwrap();
        let wl = w.len_m;
        // Windows ending at several metres of `a`, each with its own
        // channels, slide over full and anchored ranges of `b`.
        let windows: Vec<(usize, CheckWindow)> = [320, 300, 260, 200]
            .iter()
            .map(|&end| (end, CheckWindow::with_len(&a, &cfg(16), wl, end).unwrap()))
            .collect();
        for js in [0..b.len() - wl + 1, 150..201, 0..3] {
            let shared = RolledTable::new(16, wl, js.clone());
            for (end, wnd) in &windows {
                for floor in [f64::NEG_INFINITY, wnd.threshold] {
                    let pass =
                        |table: &RolledTable| peak_of(&lanes(&a, *end, &b, table, wnd), floor);
                    let own = RolledTable::new(16, wl, js.clone());
                    let (got, want) = (pass(&shared), pass(&own));
                    assert_eq!((peak_bits(got.0), got.1), (peak_bits(want.0), want.1));
                    // Both are the full scan's peak over those placements.
                    let cut: Vec<Vec<f32>> = (0..16)
                        .map(|ch| b.channel(ch)[js.start..js.end + wl - 1].to_vec())
                        .collect();
                    let full = syn::slide_scores(&a, end - wl, &from_rows(&cut), wnd);
                    let expect = syn::peak(&full).filter(|&(_, x, _)| x >= floor);
                    assert_eq!(peak_bits(got.0), peak_bits(expect), "{js:?} {end}");
                }
            }
        }
    }

    #[test]
    fn a_reset_table_rolls_its_new_trajectory() {
        let a = dense_traj(15, 0, 300, 12);
        let w = CheckWindow::for_context(&a, &cfg(12)).unwrap();
        let fs = a.len() - w.len_m;
        let mut table = RolledTable::default();
        // Each trajectory re-targets the one table, whose filled channels'
        // buffers the next fills reuse; a hole refuses only its own pass.
        let mut holed: Vec<Vec<f32>> = (0..12)
            .map(|ch| dense_traj(15, 10, 200, 12).channel(ch).to_vec())
            .collect();
        holed[w.channels[0]][100] = f32::NAN;
        let slidings = [
            dense_traj(15, 30, 300, 12),
            from_rows(&holed),
            dense_traj(15, 70, 150, 12),
            dense_traj(15, 30, 300, 12),
        ];
        for sliding in &slidings {
            let n_pos = sliding.len() - w.len_m + 1;
            table.reset(12, w.len_m, 0..n_pos);
            let pass = lanes(&a, a.len(), sliding, &table, &w);
            let dense = (0..12).all(|ch| sliding.channel(ch).iter().all(|v| v.is_finite()));
            assert_eq!(pass.finite(), dense);
            if dense {
                let (peak, _) = peak_of(&pass, f64::NEG_INFINITY);
                let full = syn::slide_scores(&a, fs, sliding, &w);
                assert_eq!(peak_bits(peak), peak_bits(syn::peak(&full)));
            }
        }
    }

    #[test]
    fn widened_f32_rows_sum_and_dot_like_their_f64_copies() {
        for len in [0, 1, 3, 4, 7, 85, 86] {
            let f: Vec<f32> = dbm_row(len as u64, len, true)
                .iter()
                .map(|&v| v as f32)
                .collect();
            let s: Vec<f32> = dbm_row(99, len, true).iter().map(|&v| v as f32).collect();
            let (f64s, s64s): (Vec<f64>, Vec<f64>) = (
                f.iter().map(|&v| v as f64).collect(),
                s.iter().map(|&v| v as f64).collect(),
            );
            assert_eq!(lane_dot(&f, &s).to_bits(), lane_dot(&f64s, &s64s).to_bits());
            let (sum, sumsq) = dsp::sum_sumsq(&f);
            let (sum64, sumsq64) = dsp::sum_sumsq(&f64s);
            assert_eq!(
                (sum.to_bits(), sumsq.to_bits()),
                (sum64.to_bits(), sumsq64.to_bits())
            );
        }
    }

    #[test]
    fn falls_back_on_missing_values() {
        let a = dense_traj(5, 0, 300, 16);
        let mut b = dense_traj(5, 50, 300, 16);
        // Punch a hole into a channel the window will select.
        let mut rows: Vec<Vec<f32>> = (0..16).map(|ch| b.channel(ch).to_vec()).collect();
        rows[0][120] = f32::NAN;
        b = GsmTrajectory::from_rows(rows);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        assert!(lane_dot_scan(&a, &b, &w).is_none());
        let table = RolledTable::new(16, w.len_m, 0..b.len() - w.len_m + 1);
        assert!(!lanes(&a, a.len(), &b, &table, &w).finite());
        // The scan answers through the per-placement path instead…
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let fs = a.len() - w.len_m;
        assert_eq!(
            bits(syn::slide_scores(&a, fs, &b, &w)),
            bits(syn::slide_scores_reference(&a, fs, &b, &w))
        );
        // …and the search still answers.
        let p = syn::find_best_syn(&a, &b, &c).unwrap();
        assert_eq!(p.self_end as i64 - p.other_end as i64, 50);
    }

    #[test]
    fn falls_back_on_infinite_values() {
        // ±∞ is corrupt data, not "missing": the dense kernels must refuse
        // it exactly like NaN so the non-finite-aware reference decides.
        let a = dense_traj(6, 0, 300, 16);
        let mut rows: Vec<Vec<f32>> = (0..16)
            .map(|ch| dense_traj(6, 50, 300, 16).channel(ch).to_vec())
            .collect();
        rows[1][80] = f32::INFINITY;
        let b = GsmTrajectory::from_rows(rows);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        assert!(lane_dot_scan(&a, &b, &w).is_none());
    }

    #[test]
    fn window_longer_than_sliding_context_is_empty() {
        let a = dense_traj(1, 0, 120, 8);
        let b = dense_traj(1, 0, 30, 8);
        let c = cfg(8);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let scores = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
        assert!(scores.is_empty());
    }

    #[test]
    fn scratch_pool_reuses_arenas() {
        let a = dense_traj(2, 0, 200, 8);
        let b = dense_traj(2, 20, 200, 8);
        let c = cfg(8);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        // Warm the pool, then verify repeated calls agree (stale buffer
        // state from the pool must never leak into results).
        let first = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
        for _ in 0..3 {
            let again = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
            assert_eq!(first, again);
        }
    }
}
