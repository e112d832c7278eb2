//! SYN-point search: the double-sliding context-consistency check (§IV-D).
//!
//! Given the GSM-aware trajectories of two vehicles, RUPS looks for a
//! *SYN point* — a pair of trajectory offsets at which both vehicles
//! traversed the same road location. The most recent `w`-metre segment of
//! trajectory A is slid across every window position of trajectory B (and
//! vice versa — the "double-sliding check" of Fig. 7), scoring each
//! placement with the trajectory correlation coefficient of Eq. (2). The
//! placement with the maximum score wins, provided it clears the coherency
//! threshold; otherwise the two trajectories are declared unrelated.
//!
//! [`find_best_syn`] and [`find_syn_points`] are the stand-alone search of
//! record: the batched [`crate::engine::SynQueryEngine`], which every
//! [`crate::pipeline::RupsNode`] fix runs through, is tested bit for bit
//! against them.

use crate::config::RupsConfig;
use crate::error::RupsError;
use crate::gsm::GsmTrajectory;
use crate::syn_fast::{self, Arena, PooledArena};
use crate::window::CheckWindow;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A matched pair of trajectory offsets.
///
/// The window `[self_end − len, self_end)` of the querying vehicle's
/// trajectory matched the window `[other_end − len, other_end)` of the
/// neighbour's trajectory: metre `self_end − 1` on our trajectory and metre
/// `other_end − 1` on theirs are (estimates of) the same road location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynPoint {
    /// Exclusive end index of the matched window on the querying vehicle's
    /// trajectory.
    pub self_end: usize,
    /// Exclusive end index of the matched window on the neighbour's
    /// trajectory.
    pub other_end: usize,
    /// Sub-metre refinement of `other_end` from parabolic interpolation of
    /// the correlation peak, in `[-0.5, 0.5]` metres. Add to `other_end`
    /// when resolving distances.
    pub refine_m: f64,
    /// Trajectory correlation coefficient at the peak (Eq. (2), `[-2, 2]`).
    pub score: f64,
    /// Length of the matched window in metres.
    pub window_len: usize,
}

impl SynPoint {
    /// Refined (fractional) end offset on the neighbour trajectory.
    #[inline]
    pub fn other_end_refined(&self) -> f64 {
        self.other_end as f64 + self.refine_m
    }
}

/// Correlation score of one fixed segment against every window placement on
/// `sliding`. Entry `j` of the result is the score of the `sliding` window
/// ending at `w + j` (i.e. covering `[j, j + w)`); `NaN` where undefined.
///
/// Dense (all-finite) inputs take the score loop of every dense pass with
/// no bound — window sums roll in `O(1)` per placement instead of being
/// recomputed, leaving `O(mwk)` work in the dot products alone. Inputs with
/// missing or non-finite samples in the scanned rows fall back to
/// [`slide_scores_reference`], which handles partial windows.
pub fn slide_scores(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
) -> Vec<f64> {
    with_slide_scores(fixed, fixed_start, sliding, window, <[f64]>::to_vec)
}

/// Runs `f` on the [`slide_scores`] of one pass, scored into the pooled
/// scratch arena's buffer, so that a warm pass allocates nothing.
fn with_slide_scores<R>(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    f: impl FnOnce(&[f64]) -> R,
) -> R {
    let (mut arena, _) = PooledArena::pop();
    let Arena {
        table, scratch: s, ..
    } = &mut *arena;
    let n_pos = (sliding.len() + 1).saturating_sub(window.len_m);
    table.reset(sliding.n_channels(), window.len_m, 0..n_pos);
    let pass = syn_fast::DensePass {
        fixed,
        fixed_start,
        sliding,
        table,
        window,
        dots: syn_fast::Dots::Lanes,
    };
    if pass.finite() {
        pass.scores(&mut s.pass, &mut s.scores);
    } else {
        let scores = &mut s.scores;
        slide_scores_reference_into(fixed, fixed_start, sliding, window, 0..n_pos, scores);
    }
    f(&s.scores)
}

/// The recompute-per-placement scan of record: every window placement
/// re-derives its sums from scratch through [`GsmTrajectory::correlation`].
/// `O(mwk)`, tolerant of missing/non-finite samples, and deliberately left
/// untouched by the incremental kernels — the differential tests compare
/// every fast path against this.
pub fn slide_scores_reference(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
) -> Vec<f64> {
    let mut out = Vec::new();
    let n_pos = (sliding.len() + 1).saturating_sub(window.len_m);
    slide_scores_reference_into(fixed, fixed_start, sliding, window, 0..n_pos, &mut out);
    out
}

/// [`slide_scores_reference`] over the valid placements `js`, refilling
/// `out` (entry `i` scores placement `js.start + i`): the engine's answer
/// for rows the score loop refuses.
pub(crate) fn slide_scores_reference_into(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    js: Range<usize>,
    out: &mut Vec<f64>,
) {
    let w = window.len_m;
    out.clear();
    out.extend(js.map(|j| {
        fixed
            .correlation(
                fixed_start..fixed_start + w,
                sliding,
                j..j + w,
                Some(&window.channels),
            )
            .unwrap_or(f64::NAN)
    }));
}

/// Index and value of the maximum finite score (the first one on ties),
/// with parabolic sub-sample refinement of the peak position, in
/// `[-0.5, 0.5]` and 0 at either end of `scores`. `None` when every score
/// is NaN. The stand-alone search picks its peak here, and so does the
/// engine for rows its score loop refuses; its dense passes take the same
/// peak from a bounded loop that shares this refinement.
pub fn peak(scores: &[f64]) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &s) in scores.iter().enumerate() {
        if s.is_nan() {
            continue;
        }
        if best.is_none_or(|(_, b)| s > b) {
            best = Some((i, s));
        }
    }
    let (i, s) = best?;
    Some((i, s, refine_peak(i, s, scores.len(), |j| scores[j])))
}

/// Parabolic interpolation around the peak `score` at placement `i` of `n`
/// for sub-metre resolution, in `[-0.5, 0.5]`; `score_at` yields the
/// neighbours' scores. 0 at either end of the placements, next to an
/// undefined (NaN) neighbour, and on a flat top. Shared by [`peak`] and the
/// engine's bounded passes, so all refine bit for bit alike.
pub(crate) fn refine_peak(
    i: usize,
    score: f64,
    n: usize,
    mut score_at: impl FnMut(usize) -> f64,
) -> f64 {
    if i == 0 || i + 1 >= n {
        return 0.0;
    }
    let (l, r) = (score_at(i - 1), score_at(i + 1));
    let denom = l - 2.0 * score + r;
    if l.is_nan() || r.is_nan() || denom.abs() < 1e-12 {
        0.0
    } else {
        (0.5 * (l - r) / denom).clamp(-0.5, 0.5)
    }
}

/// Adaptive window sizing (§V-C): use the configured length when both
/// contexts are long; with short contexts, cap the window at 60 % of the
/// shorter context so the sliding pass retains room to discover partial
/// overlaps (a full-context window could only test perfect alignment).
/// `shorter` is the length of the shorter of the two contexts.
pub(crate) fn adaptive_window_len(shorter: usize, cfg: &RupsConfig) -> usize {
    let cap = (shorter * 3) / 5;
    cfg.window_len_m
        .min(cap.max(cfg.min_window_len_m))
        .min(shorter)
}

/// Re-expresses a reverse-pass hit from our perspective: a reverse pass
/// anchors *their* end and finds a window on *us*, so the roles swap, and
/// the parabolic refinement (which belongs to the swept axis) flips sign so
/// it still corrects `other_end` when the caller applies it.
pub(crate) fn swap_perspective(p: SynPoint) -> SynPoint {
    SynPoint {
        self_end: p.other_end,
        other_end: p.self_end,
        refine_m: -p.refine_m,
        ..p
    }
}

/// Score margin below which a forward/reverse pair counts as a tie. On
/// symmetric overlaps the two passes score the same match to within
/// rounding, and which one "wins" a raw `>=` comparison is a coin flip that
/// any kernel change re-tosses; requiring the reverse pass to win by more
/// than fp noise keeps the selection stable across kernels.
pub(crate) const PASS_TIE_MARGIN: f64 = 1e-9;

/// Picks between a forward-pass hit and a (already perspective-swapped)
/// reverse-pass hit: the forward pass wins unless the reverse pass beats it
/// by more than [`PASS_TIE_MARGIN`]. Shared with [`crate::engine`] so the
/// engine and the search of record select identically.
pub(crate) fn better_pass(fwd: Option<SynPoint>, rev: Option<SynPoint>) -> Option<SynPoint> {
    match (fwd, rev) {
        (Some(f), Some(r)) => Some(if f.score >= r.score - PASS_TIE_MARGIN {
            f
        } else {
            r
        }),
        (f, r) => f.or(r),
    }
}

/// Runs one directed sliding pass: the window of `a` ending at `a_end` slid
/// over all of `b`. Returns the best placement as a [`SynPoint`] (without
/// threshold filtering), or `None` if nothing correlates at all.
fn directed_best(
    a: &GsmTrajectory,
    a_end: usize,
    b: &GsmTrajectory,
    window: &CheckWindow,
) -> Option<SynPoint> {
    let w = window.len_m;
    if a_end < w || b.len() < w {
        return None;
    }
    let (j, score, refine) = with_slide_scores(a, a_end - w, b, window, peak)?;
    Some(SynPoint {
        self_end: a_end,
        other_end: j + w,
        refine_m: refine,
        score,
        window_len: w,
    })
}

/// The full double-sliding check of §IV-D between the most recent windows of
/// `ours` and `theirs`, returning the best SYN point above the coherency
/// threshold.
///
/// Pass 1 slides our most recent window over the whole neighbour trajectory;
/// pass 2 slides the neighbour's most recent window over ours. The global
/// maximum across both passes is the SYN-point estimate.
pub fn find_best_syn(
    ours: &GsmTrajectory,
    theirs: &GsmTrajectory,
    cfg: &RupsConfig,
) -> Result<SynPoint, RupsError> {
    if ours.n_channels() != theirs.n_channels() {
        return Err(RupsError::ChannelMismatch {
            ours: ours.n_channels(),
            theirs: theirs.n_channels(),
        });
    }
    let shorter = ours.len().min(theirs.len());
    let len = adaptive_window_len(shorter, cfg);
    let too_short = || RupsError::InsufficientContext {
        available_m: shorter,
        required_m: cfg.min_window_len_m.max(2),
    };
    if len < cfg.min_window_len_m.max(2) {
        return Err(too_short());
    }
    let window = CheckWindow::with_len(ours, cfg, len, ours.len()).ok_or_else(too_short)?;

    // Pass 1: our most recent window over their trajectory.
    let fwd = directed_best(ours, ours.len(), theirs, &window);
    // Pass 2: their most recent window over our trajectory (window channels
    // re-selected from their context).
    let rev_window = CheckWindow::with_len(theirs, cfg, window.len_m, theirs.len());
    let rev = rev_window
        .and_then(|wnd| directed_best(theirs, theirs.len(), ours, &wnd))
        // A reverse-pass hit anchors *their* end and a window on *us*; swap
        // roles so the SynPoint is always expressed from our perspective.
        .map(swap_perspective);

    let best = match better_pass(fwd, rev) {
        Some(b) => b,
        None => {
            return Err(RupsError::NoSynPoint {
                best_score: f64::NEG_INFINITY,
                threshold: window.threshold,
            })
        }
    };
    if best.score < window.threshold {
        return Err(RupsError::NoSynPoint {
            best_score: best.score,
            threshold: window.threshold,
        });
    }
    Ok(best)
}

/// Finds up to `cfg.n_syn_points` SYN points by repeating the directed check
/// with windows ending at successively older offsets of our trajectory
/// (§VI-C: "select multiple most-recent journey context segments … and
/// therefore locate multiple SYN points").
///
/// Each segment contributes at most one SYN point (its best placement above
/// the threshold). The returned list is ordered from the most recent segment
/// to the oldest and may be shorter than `cfg.n_syn_points`.
pub fn find_syn_points(
    ours: &GsmTrajectory,
    theirs: &GsmTrajectory,
    cfg: &RupsConfig,
) -> Result<Vec<SynPoint>, RupsError> {
    // The first (most recent) segment uses the full double-sliding check so
    // single-SYN behaviour is preserved.
    let first = find_best_syn(ours, theirs, cfg)?;
    let mut points = vec![first];
    let w = first.window_len;

    // Older segments repeat the check symmetrically: a segment of ours slid
    // over their context *and* a segment of theirs slid over ours, keeping
    // the better hit. The symmetry matters whenever the querier is the
    // front vehicle — its recent road is absent from the rear neighbour's
    // context, and only the reverse pass anchors correctly (cf. Fig. 7).
    for s in 1..cfg.n_syn_points {
        let fwd = ours
            .len()
            .checked_sub(s * cfg.syn_segment_stride_m)
            .filter(|&end| end >= w)
            .and_then(|end| CheckWindow::with_len(ours, cfg, w, end).map(|wnd| (end, wnd)))
            .and_then(|(end, wnd)| {
                directed_best(ours, end, theirs, &wnd).filter(|p| p.score >= wnd.threshold)
            });
        let rev = theirs
            .len()
            .checked_sub(s * cfg.syn_segment_stride_m)
            .filter(|&end| end >= w)
            .and_then(|end| CheckWindow::with_len(theirs, cfg, w, end).map(|wnd| (end, wnd)))
            .and_then(|(end, wnd)| {
                directed_best(theirs, end, ours, &wnd).filter(|p| p.score >= wnd.threshold)
            })
            .map(swap_perspective);
        if let Some(p) = better_pass(fwd, rev) {
            points.push(p);
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsm::PowerVector;

    /// Deterministic aperiodic road field: RSSI as a function of absolute
    /// road metre and channel.
    fn field(s: f64, ch: usize) -> f32 {
        crate::testfield::rssi(42, s, ch)
    }

    fn road_traj(start_m: usize, len: usize, n_channels: usize) -> GsmTrajectory {
        let mut t = GsmTrajectory::new(n_channels);
        for i in 0..len {
            let s = (start_m + i) as f64;
            t.push(&PowerVector::from_fn(n_channels, |ch| Some(field(s, ch))));
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
    fn finds_exact_offset_between_shifted_trajectories() {
        // Vehicle A covered road metres 0..400; vehicle B covered 60..460.
        let a = road_traj(0, 400, 24);
        let b = road_traj(60, 400, 24);
        let p = find_best_syn(&a, &b, &cfg(24)).unwrap();
        // A's trajectory end (road metre 399) must match B's offset such
        // that other_end - 1 + 60 == 399, i.e. other_end == 340.
        assert_eq!(p.self_end, 400);
        assert_eq!(p.other_end, 340);
        assert!(
            p.score > 1.8,
            "noise-free self-match should be near 2, got {}",
            p.score
        );
    }

    #[test]
    fn unrelated_roads_yield_no_syn_point() {
        let a = road_traj(0, 300, 24);
        let b = road_traj(100_000, 300, 24); // far-away road, unrelated field
        match find_best_syn(&a, &b, &cfg(24)) {
            Err(RupsError::NoSynPoint {
                best_score,
                threshold,
            }) => {
                assert!(best_score < threshold);
            }
            other => panic!("expected NoSynPoint, got {other:?}"),
        }
    }

    #[test]
    fn channel_mismatch_is_reported() {
        let a = road_traj(0, 200, 24);
        let b = road_traj(0, 200, 12);
        assert!(matches!(
            find_best_syn(&a, &b, &cfg(24)),
            Err(RupsError::ChannelMismatch {
                ours: 24,
                theirs: 12
            })
        ));
    }

    #[test]
    fn insufficient_context_is_reported() {
        let a = road_traj(0, 4, 24);
        let b = road_traj(0, 300, 24);
        assert!(matches!(
            find_best_syn(&a, &b, &cfg(24)),
            Err(RupsError::InsufficientContext { .. })
        ));
    }

    #[test]
    fn reverse_pass_covers_leading_vehicle_query() {
        // B (the neighbour) drove *behind* A: B's recent window lies within
        // A's trajectory, but A's recent window is beyond B's coverage.
        // Only the reverse pass can anchor the match.
        let a = road_traj(200, 300, 24); // covers 200..500
        let b = road_traj(0, 300, 24); // covers 0..300
        let p = find_best_syn(&a, &b, &cfg(24)).unwrap();
        // B's end (road 299) matches A's offset end: 299 - 200 + 1 = 100.
        assert_eq!(p.other_end, 300);
        assert_eq!(p.self_end, 100);
    }

    #[test]
    fn short_contexts_shrink_the_window_adaptively() {
        // 40 m of shared context only: full 85 m window cannot fit, the
        // adaptive policy (§V-C) shrinks it.
        let a = road_traj(0, 40, 24);
        let b = road_traj(10, 40, 24);
        let p = find_best_syn(&a, &b, &cfg(24)).unwrap();
        assert!(p.window_len <= 40);
        assert_eq!(p.self_end as i64 - p.other_end as i64, 10);
    }

    #[test]
    fn multi_syn_returns_multiple_consistent_points() {
        let a = road_traj(0, 500, 24);
        let b = road_traj(80, 500, 24);
        let pts = find_syn_points(&a, &b, &cfg(24)).unwrap();
        assert!(
            pts.len() >= 3,
            "expected several SYN points, got {}",
            pts.len()
        );
        for p in &pts {
            // Every SYN point implies the same 80 m shift.
            assert_eq!(
                p.self_end as i64 - p.other_end as i64,
                80,
                "inconsistent SYN point {p:?}"
            );
        }
        // Most recent first.
        assert_eq!(pts[0].self_end, 500);
        assert!(pts.windows(2).all(|w| w[1].self_end < w[0].self_end));
    }

    #[test]
    fn peak_refinement_is_subsample() {
        // Symmetric triangle peak: refinement must be 0.
        let scores = [0.0, 1.0, 2.0, 1.0, 0.0];
        let (i, s, r) = peak(&scores).unwrap();
        assert_eq!(i, 2);
        assert_eq!(s, 2.0);
        assert!(r.abs() < 1e-12);
        // Asymmetric peak leans toward the larger neighbour.
        let scores = [0.0, 1.0, 2.0, 1.8, 0.0];
        let (_, _, r) = peak(&scores).unwrap();
        assert!(r > 0.0 && r <= 0.5);
        // All-NaN yields None.
        assert!(peak(&[f64::NAN, f64::NAN]).is_none());
        // Peak at the boundary gets no refinement.
        let scores = [3.0, 1.0, 0.0];
        let (i, _, r) = peak(&scores).unwrap();
        assert_eq!(i, 0);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn slide_scores_length_and_peak_position() {
        let a = road_traj(0, 200, 16);
        let b = road_traj(50, 200, 16);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let scores = slide_scores(&a, 200 - w.len_m, &b, &w);
        assert_eq!(scores.len(), 200 - w.len_m + 1);
        let (j, _, _) = peak(&scores).unwrap();
        // Window [115, 200) on A ≡ road [115, 200) ≡ B indices [65, 150).
        assert_eq!(j, 200 - w.len_m - 50);
    }
}
