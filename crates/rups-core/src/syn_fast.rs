//! Dense-row kernels of the SYN search, shared by the rolling scan of
//! [`crate::syn::slide_scores`] and every dense pass of the engine.
//!
//! The per-placement double-sliding check costs `O(mwk)` (§V-A): every
//! window placement recomputes per-channel sums over `w` metres. After
//! missing-channel interpolation the rows are dense, and the
//! placement-dependent quantities reduce to
//!
//! * per-channel sliding dot products `Σ f_i · s_{j+i}` — four-lane
//!   naive dot products in the rolling scan's lane-dot pass (`lane_dots`,
//!   eight placements per load of the fixed row on AVX hosts, bit-identical
//!   to the scalar `lane_dot`), a packed-FFT cross-correlation in the
//!   engine's FFT kernel, and
//! * per-channel window sums/sum-of-squares — rolled incrementally in
//!   `O(1)` per placement (`accumulate_dense_channel`), by both.
//!
//! Both fill one accumulator arena ([`DenseScratch`]). Every dense pass of
//! the engine — rolling full, rolling anchored and FFT — resolves it with
//! one peak search (`combine_dense_peak`) that prunes placements whose score
//! upper bound — mean per-channel Pearson plus the profile term's hard cap
//! of 1 — cannot beat the current best; the bound is exact, so the pruned
//! argmax is bit-identical to the full scan. Only the stand-alone
//! [`crate::syn::slide_scores`] scores every placement
//! (`combine_dense_scores`).
//!
//! Scores match the per-placement scan to floating-point rounding. The
//! kernels refuse a pass whose selected channels carry missing or corrupt
//! values, and their callers fall back to the non-finite-aware
//! per-placement scan. All buffers come from the one process-wide scratch
//! pool (`with_scratch`), which the engine's queries stage in too, so
//! steady-state passes allocate nothing.

use crate::dsp::{self, Complex};
use crate::gsm::GsmTrajectory;
use crate::stats::{self, PairSums};
use crate::syn;
use crate::window::CheckWindow;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Every buffer a directed pass needs, pooled via [`with_scratch`] so
/// repeated passes perform no allocation after warm-up.
#[derive(Default)]
pub(crate) struct DenseScratch {
    /// FFT work area shared by all transform calls.
    pub work: Vec<Complex>,
    /// Spectra of the (reversed) fixed rows of the current channel pair.
    pub spec_fa: Vec<Complex>,
    pub spec_fb: Vec<Complex>,
    /// Spectra of the sliding rows of the current channel pair.
    pub spec_sa: Vec<Complex>,
    pub spec_sb: Vec<Complex>,
    /// `f64` stagings of the fixed-window rows.
    pub f64a: Vec<f64>,
    pub f64b: Vec<f64>,
    /// `f64` stagings of the sliding rows.
    pub s64a: Vec<f64>,
    pub s64b: Vec<f64>,
    /// Correlation lags of the current channel pair.
    pub dots_a: Vec<f64>,
    pub dots_b: Vec<f64>,
    /// Per-placement Σ of defined per-channel Pearsons / their count.
    pub chan_sum: Vec<f64>,
    pub chan_n: Vec<u32>,
    /// Fixed-window means per channel and sliding-window means per
    /// channel per placement (f32, matching the reference quantisation).
    pub mean_f: Vec<f32>,
    pub mean_s: Vec<Vec<f32>>,
    /// Mean-profile staging for one placement (`k` long).
    pub profile: Vec<f32>,
    /// Per-placement scores: the full scan of `combine_dense_scores`, or
    /// the engine's recompute scan of rows the dense kernels refuse.
    pub scores: Vec<f64>,
}

impl DenseScratch {
    /// Resets the per-pass accumulators for `n_pos` placements over `k`
    /// window channels. Capacity is retained.
    pub(crate) fn prepare(&mut self, n_pos: usize, k: usize) {
        self.chan_sum.clear();
        self.chan_sum.resize(n_pos, 0.0);
        self.chan_n.clear();
        self.chan_n.resize(n_pos, 0);
        self.mean_f.clear();
        while self.mean_s.len() < k {
            self.mean_s.push(Vec::new());
        }
        self.profile.clear();
        self.profile.resize(k, 0.0);
    }

    /// The Eq. (2) score of placement `j` from the filled accumulators: mean
    /// per-channel Pearson plus the mean-profile Pearson; NaN when either
    /// term is undefined. Stages the placement's profile in `profile`.
    fn score_at(&mut self, j: usize) -> f64 {
        if self.chan_n[j] == 0 {
            return f64::NAN;
        }
        for (slot, row) in self.profile.iter_mut().zip(&self.mean_s) {
            *slot = row[j];
        }
        match stats::pearson(&self.mean_f, &self.profile) {
            Some(mp) => self.chan_sum[j] / self.chan_n[j] as f64 + mp,
            None => f64::NAN,
        }
    }
}

fn scratch_pool() -> &'static Mutex<Vec<DenseScratch>> {
    static POOL: OnceLock<Mutex<Vec<DenseScratch>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `f` with a pooled [`DenseScratch`], returning the arena to the
/// pool afterwards; `f`'s second argument says whether the arena was
/// reused (`false`: freshly allocated). The pool grows to the peak number
/// of concurrent callers and never shrinks, so steady-state calls are
/// allocation-free.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut DenseScratch, bool) -> R) -> R {
    let popped = scratch_pool()
        .lock()
        .expect("syn_fast scratch pool poisoned")
        .pop();
    let reused = popped.is_some();
    let mut s = popped.unwrap_or_default();
    let r = f(&mut s, reused);
    scratch_pool()
        .lock()
        .expect("syn_fast scratch pool poisoned")
        .push(s);
    r
}

/// The rolling scan's lane-dot pass over the valid window `placements`:
/// stages each selected channel (the sliding row cut to the metres those
/// placements cover), takes its sliding dot products with [`lane_dots`]
/// (the AVX block pass where the CPU has it, bit-identical to [`lane_dot`]
/// per placement), and accumulates the rolling per-placement statistics
/// into `s.chan_sum`/`s.chan_n`/`s.mean_f`/`s.mean_s`, whose entry `i`
/// belongs to placement `placements.start + i`.
///
/// Returns `false` without touching the accumulators' meaning when there is
/// nothing to scan (an empty window or range), or when any selected row
/// carries a non-finite value in the staged metres — the dense kernels
/// assume full-support windows, and [`PairSums`] would otherwise silently
/// skip samples the `n = w` shortcut still counts.
pub(crate) fn dense_pass(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    placements: Range<usize>,
    s: &mut DenseScratch,
) -> bool {
    let w = window.len_m;
    let n_pos = placements.len();
    if w == 0 || n_pos == 0 {
        return false;
    }
    let fixed_rows = fixed_start..fixed_start + w;
    let rows = placements.start..placements.end + w - 1;
    for &ch in &window.channels {
        if fixed.channel(ch)[fixed_rows.clone()]
            .iter()
            .chain(&sliding.channel(ch)[rows.clone()])
            .any(|v| !v.is_finite())
        {
            return false;
        }
    }
    s.prepare(n_pos, window.channels.len());
    for (ci, &ch) in window.channels.iter().enumerate() {
        s.f64a.clear();
        s.f64a.extend(
            fixed.channel(ch)[fixed_rows.clone()]
                .iter()
                .map(|&v| v as f64),
        );
        s.s64a.clear();
        s.s64a
            .extend(sliding.channel(ch)[rows.clone()].iter().map(|&v| v as f64));
        lane_dots(&s.f64a, &s.s64a, n_pos, &mut s.dots_a);
        let (sum_f, sumsq_f) = dsp::sum_sumsq(&s.f64a);
        let row = &mut s.mean_s[ci];
        row.clear();
        let mf = accumulate_dense_channel(
            w,
            n_pos,
            sum_f,
            sumsq_f,
            &s.dots_a,
            &s.s64a,
            &mut s.chan_sum,
            &mut s.chan_n,
            row,
        );
        s.mean_f.push(mf);
    }
    true
}

/// Dot product hand-unrolled into four independent f64 lanes (combined in
/// a fixed `(0+1)+(2+3)` order), for the lane-dot pass.
#[inline]
pub(crate) fn lane_dot(f: &[f64], s: &[f64]) -> f64 {
    debug_assert_eq!(f.len(), s.len());
    let mut acc = [0.0f64; 4];
    let mut fc = f.chunks_exact(4);
    let mut sc = s.chunks_exact(4);
    for (cf, cs) in (&mut fc).zip(&mut sc) {
        acc[0] += cf[0] * cs[0];
        acc[1] += cf[1] * cs[1];
        acc[2] += cf[2] * cs[2];
        acc[3] += cf[3] * cs[3];
    }
    let mut out = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (a, b) in fc.remainder().iter().zip(sc.remainder()) {
        out += a * b;
    }
    out
}

/// Sliding dot products of the fixed row `f` against every placement of
/// `s`: `out` is refilled with `n_pos` entries, `out[j]` equal to
/// `lane_dot(f, &s[j..j + f.len()])` bit for bit. Panics when `n_pos > 0`
/// and `s` is shorter than `n_pos + f.len() - 1`.
///
/// On x86_64 hosts with AVX the blocked `lane_dots_avx` pass runs; the
/// CPU check alone picks it. Everywhere else the scalar loop runs.
pub(crate) fn lane_dots(f: &[f64], s: &[f64], n_pos: usize, out: &mut Vec<f64>) {
    assert_covers(s, n_pos, f.len());
    out.clear();
    out.resize(n_pos, 0.0);
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx") {
        // SAFETY: the CPU supports AVX, checked on the line above.
        unsafe { lane_dots_avx(f, s, out) };
        return;
    }
    let w = f.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o = lane_dot(f, &s[j..j + w]);
    }
}

/// Panics unless the sliding row `s` covers `n_pos` placements of a
/// `w`-long fixed row, i.e. `s.len() >= n_pos + w - 1`.
fn assert_covers(s: &[f64], n_pos: usize, w: usize) {
    assert!(
        n_pos == 0 || s.len() >= n_pos + w - 1,
        "lane_dots: sliding row of {} values is shorter than {n_pos} placements of {w}",
        s.len()
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
    assert_covers(s, n_pos, w);
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

/// Accumulates one dense channel's per-placement Pearson contributions into
/// `chan_sum`/`chan_n`, pushes the per-placement sliding-window means into
/// `means_row`, and returns the fixed-window mean. `dots[j]` must be the
/// fixed·sliding dot product at placement `j`; the window sums over
/// `s_row` are **rolled** — seeded once over `[0, w)` and updated in `O(1)`
/// per placement — rather than rebuilt, turning the `O(mw)` statistics
/// sweep into `O(m)`.
///
/// This is the placement-dependent half of Eq. (2), shared by the lane-dot
/// pass and the engine's FFT passes, so both turn their dot products into
/// scores the same way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn accumulate_dense_channel(
    w: usize,
    n_pos: usize,
    sum_f: f64,
    sumsq_f: f64,
    dots: &[f64],
    s_row: &[f64],
    chan_sum: &mut [f64],
    chan_n: &mut [u32],
    means_row: &mut Vec<f32>,
) -> f32 {
    let (mut sum_s, mut sumsq_s) = dsp::sum_sumsq(&s_row[..w]);
    for j in 0..n_pos {
        if j > 0 {
            let dropped = s_row[j - 1];
            let added = s_row[j + w - 1];
            sum_s += added - dropped;
            sumsq_s += added * added - dropped * dropped;
        }
        // Reuse the exact PairSums → Pearson math of the reference path
        // so thresholds and degenerate-variance handling agree.
        let sums = PairSums {
            n: w,
            sum_a: sum_f,
            sum_b: sum_s,
            sum_aa: sumsq_f,
            sum_bb: sumsq_s,
            sum_ab: dots[j],
        };
        if let Some(r) = sums.pearson() {
            chan_sum[j] += r;
            chan_n[j] += 1;
        }
        means_row.push((sum_s / w as f64) as f32);
    }
    (sum_f / w as f64) as f32
}

/// Every placement's Eq. (2) score from an arena a dense pass filled,
/// refilling `s.scores` — the full scan behind [`crate::syn::slide_scores`].
pub(crate) fn combine_dense_scores(s: &mut DenseScratch) {
    s.scores.clear();
    for j in 0..s.chan_n.len() {
        let score = s.score_at(j);
        s.scores.push(score);
    }
}

/// Pruned peak search over an arena a dense pass filled: returns the first
/// maximum `(j, score, refine)` exactly as `syn::peak` over
/// [`combine_dense_scores`] would, plus the number of placements whose
/// mean-profile Pearson was skipped.
///
/// The upper bound is exact, not heuristic: the profile term is clamped to
/// `[−1, 1]` by [`PairSums::pearson`], so `score(j) ≤ partial(j) + 1`, and
/// IEEE addition is monotonic — `fl(partial + profile) ≤ fl(partial + 1)`.
/// A placement with `fl(partial + 1) ≤ best` therefore can never satisfy
/// the strict `score > best` test of the reference first-max scan, and
/// skipping its `O(k)` profile correlation cannot change the argmax. The
/// peak's neighbours are evaluated exactly afterwards for the shared
/// [`syn::refine_peak`], so the refinement is bit-identical too.
pub(crate) fn combine_dense_peak(s: &mut DenseScratch) -> (Option<(usize, f64, f64)>, u64) {
    let n_pos = s.chan_n.len();
    let mut best: Option<(usize, f64)> = None;
    let mut pruned = 0u64;
    for j in 0..n_pos {
        if s.chan_n[j] == 0 {
            continue;
        }
        if let Some((_, b)) = best {
            let partial = s.chan_sum[j] / s.chan_n[j] as f64;
            if partial + 1.0 <= b {
                pruned += 1;
                continue;
            }
        }
        let score = s.score_at(j);
        if !score.is_nan() && best.is_none_or(|(_, b)| score > b) {
            best = Some((j, score));
        }
    }
    let peak = best.map(|(i, score)| {
        let refine = syn::refine_peak(i, score, n_pos, |j| s.score_at(j));
        (i, score, refine)
    });
    (peak, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RupsConfig;
    use crate::gsm::PowerVector;
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

    /// The lane-dot scan of `fixed`'s newest window over every placement on
    /// `sliding`, or `None` when it refuses the rows.
    fn lane_dot_scan(
        fixed: &GsmTrajectory,
        sliding: &GsmTrajectory,
        w: &CheckWindow,
    ) -> Option<Vec<f64>> {
        with_scratch(|s, _| {
            let n_pos = sliding.len() - w.len_m + 1;
            dense_pass(fixed, fixed.len() - w.len_m, sliding, w, 0..n_pos, s).then(|| {
                combine_dense_scores(s);
                s.scores.clone()
            })
        })
    }

    /// `len` dBm values: f32-representable, as the lane-dot pass stages
    /// them, or at full f64 precision. f32 values multiply exactly in f64,
    /// so only the full-precision rows make a fused multiply-add or a
    /// reordered tail show in the bits.
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
        let mut got = Vec::new();
        for w in [1, 2, 3, 4, 5, 7, 8, 45, 84, 85, 86, 100] {
            for n_pos in [0, 1, 7, 8, 9, 15, 16, 17, 51, 316] {
                for f32_exact in [true, false] {
                    let f = dbm_row(w as u64, w, f32_exact);
                    let s = dbm_row(1000 + n_pos as u64, n_pos + w - 1, f32_exact);
                    let expect: Vec<u64> = (0..n_pos)
                        .map(|j| lane_dot(&f, &s[j..j + w]).to_bits())
                        .collect();
                    let case = format!("w {w}, n_pos {n_pos}, f32 {f32_exact}");
                    lane_dots(&f, &s, n_pos, &mut got);
                    assert_eq!(bits(&got), expect, "lane_dots, {case}");
                    #[cfg(target_arch = "x86_64")]
                    if avx {
                        let mut out = vec![f64::NAN; n_pos];
                        // SAFETY: the CPU supports AVX, checked above.
                        unsafe { lane_dots_avx(&f, &s, &mut out) };
                        assert_eq!(bits(&out), expect, "AVX pass, {case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn lane_dots_refuse_a_short_sliding_row() {
        let (w, n_pos) = (84, 16);
        let f = dbm_row(1, w, true);
        let s = dbm_row(2, n_pos + w - 2, true);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx") {
            let mut out = vec![0.0; n_pos];
            // SAFETY: the CPU supports AVX; the short row must trip the
            // length assert before any load.
            unsafe { lane_dots_avx(&f, &s, &mut out) };
            return;
        }
        lane_dots(&f, &s, n_pos, &mut Vec::new());
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

    #[test]
    fn pruned_peak_equals_full_scan_peak() {
        for (seed, off) in [(7u64, 30usize), (8, 55), (9, 10)] {
            let a = dense_traj(seed, 0, 300, 19);
            let b = dense_traj(seed, off, 300, 19);
            let c = cfg(19);
            let w = CheckWindow::for_context(&a, &c).unwrap();
            let full = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
            let expect = syn::peak(&full);
            let got = with_scratch(|s, _| {
                let n_pos = b.len() - w.len_m + 1;
                assert!(dense_pass(&a, a.len() - w.len_m, &b, &w, 0..n_pos, s));
                combine_dense_peak(s).0
            });
            match (expect, got) {
                (Some((ei, es, er)), Some((gi, gs, gr))) => {
                    assert_eq!(ei, gi, "seed {seed}: pruned argmax diverged");
                    assert!(es.to_bits() == gs.to_bits(), "seed {seed}: score bits");
                    assert!(er.to_bits() == gr.to_bits(), "seed {seed}: refine bits");
                }
                (None, None) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }

    #[test]
    fn pruning_actually_skips_profile_evaluations() {
        let a = dense_traj(33, 0, 350, 16);
        let b = dense_traj(33, 60, 350, 16);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let n_pos = b.len() - w.len_m + 1;
        let pruned = with_scratch(|s, _| {
            assert!(dense_pass(&a, a.len() - w.len_m, &b, &w, 0..n_pos, s));
            let (peak, pruned) = combine_dense_peak(s);
            assert!(peak.is_some());
            pruned
        });
        assert!(
            pruned > (n_pos as u64) / 4,
            "expected the bound to skip a sizeable share of {n_pos} placements, pruned {pruned}"
        );
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
