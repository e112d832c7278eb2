//! Differential property tests: the batched [`SynQueryEngine`] must be
//! score-identical to the reference double-sliding search in [`syn`], and
//! its FFT kernel must not depend on what its caches already hold — on
//! hits, misses and below-threshold cases alike.
//!
//! The reference-kernel comparisons demand *bit* equality — the engine's
//! passes take their peak from a bounded run of the score loop that
//! `syn::slide_scores` runs unbounded before `syn::peak` picks one, the
//! bound is exact, and the floors below which a pass answers nothing change
//! no hit and no miss score — and so does warm-vs-cold on the FFT kernel;
//! the FFT-vs-reference comparisons allow a 1e-9 score tolerance, since the
//! FFT correlation and the rolling window statistics legitimately
//! reassociate floating-point sums. The anchored check behind
//! `RupsNode::tracked_fix` rolls its window sums where the recompute scan
//! of record re-derives them, so it agrees with that scan to 1e-6.
//!
//! Each property runs 8 cases, or `PROPTEST_CASES` when that is set (CI
//! runs 256).

use proptest::prelude::*;
use rups_core::engine::{Kernel, SynQueryEngine, ANCHOR_SLACK_M};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::pipeline::{ContextSnapshot, RupsNode};
use rups_core::syn::{self, SynPoint};
use rups_core::testfield;
use rups_core::tracker::TrackMode;
use rups_core::window::CheckWindow;
use rups_core::{RupsConfig, RupsError};

const N_CHANNELS: usize = 12;
const SCORE_TOL: f64 = 1e-9;

/// 8 cases per property, or `PROPTEST_CASES` when set.
fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
    )
}

fn traj(seed: u64, start: usize, len: usize) -> GsmTrajectory {
    let mut t = GsmTrajectory::with_capacity(N_CHANNELS, len);
    for i in 0..len {
        let s = (start + i) as f64;
        t.push(&PowerVector::from_fn(N_CHANNELS, |ch| {
            Some(testfield::rssi(seed, s, ch))
        }));
    }
    t
}

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: N_CHANNELS,
        window_channels: N_CHANNELS,
        ..RupsConfig::default()
    }
}

fn engine_for(ours: &GsmTrajectory, cfg: &RupsConfig) -> SynQueryEngine {
    let engine = SynQueryEngine::new(cfg.clone());
    engine.set_context(ours);
    engine
}

/// FFT-vs-reference comparison: identical hit/miss outcome, scores within
/// [`SCORE_TOL`], and the same implied trajectory shift for every point.
///
/// The shift (`self_end − other_end`, which fixes the resolved distance) is
/// asserted rather than the raw `(self_end, other_end)` anchor: when two
/// strongly-overlapping contexts make the forward and reverse passes peak at
/// the *same* correlation, 1e-16-level reassociation noise can flip which
/// symmetric anchor wins, without changing shift, score or distance.
fn assert_close(
    reference: &Result<Vec<SynPoint>, RupsError>,
    fft: &Result<Vec<SynPoint>, RupsError>,
) -> Result<(), TestCaseError> {
    match (reference, fft) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.len(), b.len(), "SYN point counts differ");
            for (p, q) in a.iter().zip(b.iter()) {
                prop_assert_eq!(p.window_len, q.window_len);
                prop_assert_eq!(
                    p.self_end as i64 - p.other_end as i64,
                    q.self_end as i64 - q.other_end as i64,
                    "implied shifts diverge: reference {:?} vs fft {:?}",
                    p,
                    q
                );
                prop_assert!(
                    (p.score - q.score).abs() <= SCORE_TOL,
                    "scores diverge: reference {} vs fft {}",
                    p.score,
                    q.score
                );
                if p.self_end == q.self_end {
                    prop_assert!(
                        (p.refine_m - q.refine_m).abs() <= 1e-6,
                        "refinements diverge: reference {} vs fft {}",
                        p.refine_m,
                        q.refine_m
                    );
                }
            }
        }
        (
            Err(RupsError::NoSynPoint {
                best_score: a,
                threshold: ta,
            }),
            Err(RupsError::NoSynPoint {
                best_score: b,
                threshold: tb,
            }),
        ) => {
            prop_assert!(
                (a - b).abs() <= SCORE_TOL,
                "miss best-scores diverge: reference {a} vs fft {b}"
            );
            prop_assert_eq!(ta, tb, "miss thresholds differ");
        }
        (a, b) => {
            prop_assert!(false, "kernel outcomes disagree: {:?} vs {:?}", a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases())]

    // Engine + `Kernel::Reference` is bit-identical to the reference
    // search, and the single-best entry point `find_best_syn` agrees with
    // `points[0]`.
    #[test]
    fn reference_kernel_is_bit_identical_to_syn(
        seed in 1u64..100_000,
        gap in 10usize..70,
        len in 230usize..300,
    ) {
        let c = cfg();
        let ours = traj(seed, 0, len);
        let theirs = traj(seed, gap, len);
        let engine = engine_for(&ours, &c);

        let seq = syn::find_syn_points(&ours, &theirs, &c);
        let eng = engine.find_syn_points_with(&theirs, Kernel::Reference);
        prop_assert_eq!(&eng, &seq, "reference mismatch");

        let best = syn::find_best_syn(&ours, &theirs, &c);
        let pts = eng.expect("overlapping synthetic fields must produce SYN points");
        prop_assert_eq!(best.unwrap(), pts[0], "find_best_syn disagrees");
    }

    // The rolling passes' floors change no answer. The newest segment's
    // passes drop peaks below `threshold − PASS_TIE_MARGIN` and re-run
    // without a floor on a miss; older segments drop peaks below their
    // threshold. With the threshold drawn across the scores the passes
    // reach, a window narrower than the band, and neighbours that are
    // unrelated or overlap less than the older segments reach back, the
    // newest segment hits and misses and older segments clear the
    // threshold or not. Every outcome, miss scores included, is the
    // reference search's bit for bit.
    #[test]
    fn floored_rolling_passes_answer_like_the_full_search(
        seed in 1u64..100_000,
        gap in 10usize..140,
        len in 230usize..300,
        threshold in 0.6f64..1.95,
        related in any::<bool>(),
    ) {
        let c = RupsConfig {
            window_channels: 7,
            coherency_threshold: threshold,
            ..cfg()
        };
        let ours = traj(seed, 0, len);
        let field = if related { seed } else { seed ^ 0xF100D };
        let theirs = traj(field, gap, len);
        let engine = engine_for(&ours, &c);
        let eng = engine.find_syn_points_with(&theirs, Kernel::Reference);
        let seq = syn::find_syn_points(&ours, &theirs, &c);
        prop_assert_eq!(&eng, &seq, "reference mismatch");
        match (eng, seq) {
            (Ok(a), Ok(b)) => {
                for (p, q) in a.iter().zip(&b) {
                    prop_assert_eq!(p.score.to_bits(), q.score.to_bits());
                    prop_assert_eq!(p.refine_m.to_bits(), q.refine_m.to_bits());
                }
            }
            (
                Err(RupsError::NoSynPoint { best_score: a, .. }),
                Err(RupsError::NoSynPoint { best_score: b, .. }),
            ) => prop_assert_eq!(a.to_bits(), b.to_bits(), "miss scores differ"),
            other => prop_assert!(false, "outcomes differ: {:?}", other),
        }
    }

    // Engine + `Kernel::Fft` answers bit for bit the same whether its
    // window memo, fixed-side spectra and own sliding spectra were filled
    // by another neighbour's query first (warm) or not (cold). Neighbours
    // sit ahead of or behind the querier, so both the forward passes (own
    // window spectra cached) and the reverse passes (own sliding spectra
    // cached) decide some SYN points. An odd window narrower than the band
    // makes windows pick different channel subsets, so a cached spectrum
    // must be reused only for the exact channel pair it was packed from.
    #[test]
    fn warm_fft_kernel_is_bit_identical_to_cold(
        seed in 1u64..100_000,
        start in 0usize..80,
        other_start in 0usize..80,
        len in 230usize..300,
    ) {
        let c = RupsConfig {
            window_channels: 7,
            ..cfg()
        };
        let ours = traj(seed, 40, len);
        let theirs = traj(seed, start, len);
        let cold = engine_for(&ours, &c);
        let expect = cold.find_syn_points_with(&theirs, Kernel::Fft);

        // Warm up on a related neighbour and on one from another field,
        // whose windows pick other channel subsets.
        let warm = engine_for(&ours, &c);
        for other in [traj(seed, other_start, len), traj(seed ^ 0x5eed, start, len)] {
            let _ = warm.find_syn_points_with(&other, Kernel::Fft);
        }
        let before = warm.stats();
        let got = warm.find_syn_points_with(&theirs, Kernel::Fft);
        prop_assert_eq!(&got, &expect, "warm engine answers differently");
        let d = warm.stats().delta(&before);
        prop_assert!(d.window_hits > 0, "the second query must hit the window memo: {:?}", d);
        prop_assert!(d.fft_passes > 0 && d.fft_fallbacks == 0, "FFT kernel must run: {:?}", d);
    }

    // The two engine kernels agree with each other within 1e-9 on the
    // scores and exactly on every discrete placement, also when every
    // sample sits on a large constant dBm offset (catastrophic
    // cancellation in the rolled `Σx²` and the Pearson variance term).
    #[test]
    fn kernels_agree_within_tolerance(
        seed in 1u64..100_000,
        gap in 5usize..80,
        len in 225usize..310,
        offset in -2000.0f32..2000.0,
    ) {
        let c = cfg();
        let shifted = |t: GsmTrajectory| {
            GsmTrajectory::from_rows(
                (0..N_CHANNELS)
                    .map(|ch| t.channel(ch).iter().map(|v| v + offset).collect())
                    .collect(),
            )
        };
        let ours = shifted(traj(seed, 0, len));
        let theirs = shifted(traj(seed, gap, len));
        let engine = engine_for(&ours, &c);

        let reference = engine.find_syn_points_with(&theirs, Kernel::Reference);
        let fft = engine.find_syn_points_with(&theirs, Kernel::Fft);
        assert_close(&reference, &fft)?;
        let s = engine.stats();
        prop_assert!(s.fft_passes > 0 && s.fft_fallbacks == 0, "FFT kernel must run: {:?}", s);
    }

    // Unrelated journeys (disjoint synthetic fields) must miss — with the
    // same below-threshold best score from every search path.
    #[test]
    fn unrelated_contexts_miss_identically(
        seed in 1u64..50_000,
        len in 225usize..290,
    ) {
        let c = cfg();
        let ours = traj(seed, 0, len);
        let theirs = traj(seed + 777_777, 0, len);
        let engine = engine_for(&ours, &c);

        let seq = syn::find_syn_points(&ours, &theirs, &c);
        let eng = engine.find_syn_points_with(&theirs, Kernel::Reference);
        prop_assert_eq!(&eng, &seq, "reference miss mismatch");
        prop_assert!(
            matches!(eng, Err(RupsError::NoSynPoint { .. })),
            "unrelated fields must stay below the coherency threshold: {:?}",
            eng
        );
        prop_assert_eq!(
            syn::find_best_syn(&ours, &theirs, &c),
            Err(eng.clone().unwrap_err()),
            "find_best_syn miss mismatch"
        );

        let fft = engine.find_syn_points_with(&theirs, Kernel::Fft);
        assert_close(&eng, &fft)?;
    }
}

/// Tolerance of the anchored check against the recompute scan of record:
/// rolled and recomputed window sums of unquantised rows round apart.
const ANCHORED_TOL: f64 = 1e-6;

/// `t` rounded to the wire codec's 0.5 dB steps.
fn quantised(t: &GsmTrajectory) -> GsmTrajectory {
    GsmTrajectory::from_rows(
        (0..t.n_channels())
            .map(|ch| {
                t.channel(ch)
                    .iter()
                    .map(|v| (v * 2.0).round() / 2.0)
                    .collect()
            })
            .collect(),
    )
}

/// Vehicle 2's beacon carrying `gsm`.
fn beacon(gsm: GsmTrajectory) -> ContextSnapshot {
    let mut geo = GeoTrajectory::new();
    for i in 0..gsm.len() {
        geo.push(GeoSample {
            heading_rad: 0.0,
            timestamp_s: i as f64,
        });
    }
    ContextSnapshot {
        vehicle_id: Some(2),
        geo,
        gsm,
        trace: None,
    }
}

/// A node whose own context is `ours`.
fn node_for(ours: &GsmTrajectory, c: &RupsConfig) -> RupsNode {
    let mut node = RupsNode::new(c.clone());
    for i in 0..ours.len() {
        let geo = GeoSample {
            heading_rad: 0.0,
            timestamp_s: i as f64,
        };
        let pv = PowerVector::from_fn(ours.n_channels(), |ch| ours.get(ch, i));
        node.append_metre(geo, &pv).unwrap();
    }
    node
}

/// The anchored check of record: [`syn::peak`] over the recompute scan
/// [`syn::slide_scores_reference`] cut to the ±[`ANCHOR_SLACK_M`]
/// placements around `shift`, as `(distance_m, score)` when it clears the
/// coherency threshold, plus the cut range.
fn anchored_of_record(
    ours: &GsmTrajectory,
    theirs: &GsmTrajectory,
    shift: i64,
    c: &RupsConfig,
) -> (Option<(f64, f64)>, std::ops::Range<usize>) {
    let window = CheckWindow::for_context(ours, c).expect("own context fits a window");
    let w = window.len_m;
    let centre = ours.len() as i64 - shift - w as i64;
    let slack = ANCHOR_SLACK_M as i64;
    let scores = syn::slide_scores_reference(ours, ours.len() - w, theirs, &window);
    let lo = ((centre - slack).max(0) as usize).min(scores.len());
    let hi = ((centre + slack + 1).max(0) as usize).min(scores.len());
    let fix = syn::peak(&scores[lo..hi])
        .filter(|&(_, score, _)| score >= window.threshold)
        .map(|(i, score, refine)| {
            // Our newest metre matched their metre lo + i + w − 1 + refine.
            let other_end = (lo + i + w) as f64 + refine;
            (theirs.len() as f64 - other_end, score)
        });
    (fix, lo..hi)
}

/// Anchors a node on `anchor` (a full search), then tracks `theirs`: the
/// fix must be the anchored check of record when that clears the
/// threshold, and otherwise exactly what the full search answers.
fn assert_anchored_matches_record(
    ours: &GsmTrajectory,
    anchor: &ContextSnapshot,
    theirs: GsmTrajectory,
    c: &RupsConfig,
) -> Result<std::ops::Range<usize>, TestCaseError> {
    let mut node = node_for(ours, c);
    let full = node
        .fix_distance(anchor)
        .expect("the anchor neighbour overlaps");
    let first = node.tracked_fix(anchor).unwrap();
    prop_assert_eq!(first.mode, TrackMode::Full);
    let p = full.syn_points[0];
    let shift = p.self_end as i64 - p.other_end as i64;
    let (record, range) = anchored_of_record(ours, &theirs, shift, c);
    let snap = beacon(theirs);
    let fallback = node.fix_distance(&snap);
    let got = node.tracked_fix(&snap);
    match (record, got) {
        (Some((distance_m, score)), Ok(fix)) => {
            prop_assert_eq!(fix.mode, TrackMode::Incremental);
            prop_assert!(
                (fix.distance_m - distance_m).abs() <= ANCHORED_TOL,
                "placement or refinement diverge: {} vs record {}",
                fix.distance_m,
                distance_m
            );
            prop_assert!(
                (fix.score - score).abs() <= ANCHORED_TOL,
                "scores diverge: {} vs record {}",
                fix.score,
                score
            );
        }
        (None, Ok(fix)) => {
            prop_assert_eq!(fix.mode, TrackMode::Full);
            let full = fallback.expect("the fallback fixed the neighbour");
            prop_assert_eq!(fix.distance_m.to_bits(), full.distance_m.to_bits());
            prop_assert_eq!(fix.score.to_bits(), full.best_score.to_bits());
        }
        (None, Err(e)) => prop_assert_eq!(Err(e), fallback.map(|_| ())),
        (Some(r), Err(e)) => prop_assert!(false, "record fixed {:?}, tracker {:?}", r, e),
    }
    Ok(range)
}

proptest! {
    #![proptest_config(cases())]

    // The anchored check behind `tracked_fix` picks the placement and
    // refinement of the recompute scan of record over the anchored range,
    // and its score agrees to 1e-6, in the middle of their trajectory, at
    // either end of it and beyond it, on quantised and unquantised rows,
    // and with a NaN in a selected channel inside the range.
    #[test]
    fn anchored_check_matches_the_scan_of_record(
        seed in 1u64..100_000,
        gap in 25usize..60,
        far in 5usize..20,
        drift in 0usize..40,
        len in 280usize..320,
        nan_at in 0usize..100,
    ) {
        let c = cfg();
        let ours = traj(seed, 0, len);
        let w = c.window_len_m;
        let check = |anchor: &ContextSnapshot, theirs: GsmTrajectory| {
            assert_anchored_matches_record(&ours, anchor, theirs, &c)
        };
        let anchored = |gap: usize| beacon(quantised(&traj(seed, gap, len)));
        let near = anchored(gap);
        // The neighbour drifted up to ±20 m since the anchor.
        let moved = gap + drift - 20;
        // Placement of our newest window at the anchored shift.
        let centre = len - gap - w;

        // Inside their trajectory, quantised as on the wire and not.
        let range = check(&near, quantised(&traj(seed, moved, len)))?;
        prop_assert_eq!(range.len(), 2 * ANCHOR_SLACK_M + 1);
        check(&near, traj(seed, moved, len))?;

        // Clamped at placement 0: a neighbour so far ahead that our window
        // sits at placement `far` < 25 on its trajectory.
        let far_gap = len - w - far;
        let range = check(&anchored(far_gap), quantised(&traj(seed, far_gap + drift - 20, len)))?;
        prop_assert!(range.start == 0 && range.len() < 2 * ANCHOR_SLACK_M + 1, "{:?}", range);

        // Clamped at the last placement: their newest metres end near our
        // window's expected placement.
        let short = centre + w + drift / 2;
        let range = check(&near, quantised(&traj(seed, moved, short)))?;
        prop_assert!(range.end == short - w + 1 && range.start > 0, "{:?}", range);

        // Wholly past their newest metre: no anchored fix, the full search
        // answers.
        let shorter = centre + w - ANCHOR_SLACK_M - 1 - drift;
        let range = check(&near, quantised(&traj(seed, moved, shorter)))?;
        prop_assert!(range.is_empty(), "{:?}", range);

        // A NaN in a selected channel inside the range: the rolling scan
        // refuses the rows and the per-placement scan runs.
        let window = CheckWindow::for_context(&ours, &c).unwrap();
        let theirs = quantised(&traj(seed, moved, len));
        let mut rows: Vec<Vec<f32>> =
            (0..N_CHANNELS).map(|ch| theirs.channel(ch).to_vec()).collect();
        let ch = window.channels[nan_at % window.channels.len()];
        rows[ch][centre - ANCHOR_SLACK_M + nan_at] = f32::NAN;
        check(&near, GsmTrajectory::from_rows(rows))?;
    }
}

/// Deterministic spot check (not property-driven): the auto-selected kernel
/// answers exactly like whichever kernel it chose, so `find_syn_points`
/// never silently changes the answer relative to the explicit entry points.
#[test]
fn auto_kernel_matches_its_explicit_choice() {
    let c = cfg();
    let ours = traj(42, 0, 280);
    let theirs = traj(42, 33, 280);
    let engine = engine_for(&ours, &c);
    let kernel = engine.choose_kernel(theirs.len());
    let auto = engine.find_syn_points(&theirs);
    let explicit = engine.find_syn_points_with(&theirs, kernel);
    assert_eq!(auto, explicit);
}
