//! Property-based tests of the rups-core invariants.

use proptest::prelude::*;
use rups_core::config::{AggregationScheme, RupsConfig};
use rups_core::dsp::{self, Complex};
use rups_core::geo::{angle_diff, GeoSample, GeoTrajectory};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::motion::DeadReckoner;
use rups_core::resolve::resolve_relative_distance;
use rups_core::stats;
use rups_core::syn::{find_best_syn, slide_scores, slide_scores_reference, SynPoint};
use rups_core::testfield;
use rups_core::window::CheckWindow;

/// Strategy: an RSSI-like vector with optional missing entries.
fn rssi_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            8 => (-110.0f32..-40.0).prop_map(|v| v),
            1 => Just(f32::NAN),
        ],
        len,
    )
}

proptest! {
    #[test]
    fn pearson_is_bounded_and_symmetric(
        a in rssi_vec(32),
        b in rssi_vec(32),
    ) {
        if let Some(r) = stats::pearson(&a, &b) {
            prop_assert!((-1.0..=1.0).contains(&r), "r = {r}");
            let r2 = stats::pearson(&b, &a).unwrap();
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }

    #[test]
    fn pearson_self_is_one(a in rssi_vec(32)) {
        if let Some(r) = stats::pearson(&a, &a) {
            prop_assert!((r - 1.0).abs() < 1e-9, "self-correlation {r}");
        }
    }

    #[test]
    fn pearson_affine_invariance(
        a in proptest::collection::vec(-100.0f32..-40.0, 16),
        scale in 0.1f32..5.0,
        shift in -50.0f32..50.0,
    ) {
        let b: Vec<f32> = a.iter().map(|&x| scale * x + shift).collect();
        if let Some(r) = stats::pearson(&a, &b) {
            prop_assert!((r - 1.0).abs() < 1e-3, "affine image correlation {r}");
        }
    }

    #[test]
    fn relative_change_nonnegative_and_zero_on_self(a in rssi_vec(24), b in rssi_vec(24)) {
        if let Some(d) = stats::relative_change(&a, &b) {
            prop_assert!(d >= 0.0);
        }
        if let Some(d) = stats::relative_change(&a, &a) {
            prop_assert!(d.abs() < 1e-9);
        }
    }

    #[test]
    fn aggregations_stay_within_the_estimate_hull(
        est in proptest::collection::vec(-200.0f64..200.0, 1..12),
    ) {
        let lo = est.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = est.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for scheme in [
            AggregationScheme::Single,
            AggregationScheme::SimpleAverage,
            AggregationScheme::SelectiveAverage,
            AggregationScheme::Median,
        ] {
            let v = scheme.aggregate(&est).unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{scheme:?} = {v} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn selective_average_is_robust_to_one_outlier(
        base in -50.0f64..50.0,
        jitter in proptest::collection::vec(-1.0f64..1.0, 4),
        outlier in 100.0f64..1000.0,
    ) {
        // Four consistent estimates plus one wild outlier: the selective
        // average stays within the consistent cluster.
        let mut est: Vec<f64> = jitter.iter().map(|j| base + j).collect();
        est.push(base + outlier);
        let v = AggregationScheme::SelectiveAverage.aggregate(&est).unwrap();
        prop_assert!((v - base).abs() < 1.5, "selective avg {v} vs base {base}");
    }

    #[test]
    fn interpolation_is_idempotent_and_preserves_present_values(
        rows in proptest::collection::vec(rssi_vec(24), 1..6),
    ) {
        let original = GsmTrajectory::from_rows(rows);
        let once = original.interpolated();
        let twice = once.interpolated();
        prop_assert_eq!(&once, &twice, "interpolation must be idempotent");
        for ch in 0..original.n_channels() {
            for i in 0..original.len() {
                if let Some(v) = original.get(ch, i) {
                    prop_assert_eq!(once.get(ch, i), Some(v));
                }
            }
            // A row with at least one measurement becomes fully dense.
            let had_any = original.channel(ch).iter().any(|v| !v.is_nan());
            if had_any {
                prop_assert!(once.channel(ch).iter().all(|v| !v.is_nan()));
            }
        }
    }

    #[test]
    fn interpolated_values_stay_within_row_bounds(
        rows in proptest::collection::vec(rssi_vec(24), 1..4),
    ) {
        // Linear interpolation cannot overshoot the measured extremes.
        let original = GsmTrajectory::from_rows(rows);
        let filled = original.interpolated();
        for ch in 0..original.n_channels() {
            let present: Vec<f32> =
                original.channel(ch).iter().cloned().filter(|v| !v.is_nan()).collect();
            if present.is_empty() {
                continue;
            }
            let lo = present.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = present.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for &v in filled.channel(ch) {
                prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "{v} outside [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn trajectory_correlation_is_symmetric(
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        len in 20usize..60,
    ) {
        let mk = |seed: u64| {
            let rows = (0..8)
                .map(|ch| (0..len).map(|i| testfield::rssi(seed, i as f64, ch)).collect())
                .collect();
            GsmTrajectory::from_rows(rows)
        };
        let a = mk(seed_a);
        let b = mk(seed_b);
        let r_ab = a.correlation(0..len, &b, 0..len, None);
        let r_ba = b.correlation(0..len, &a, 0..len, None);
        match (r_ab, r_ba) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric definedness {other:?}"),
        }
    }

    #[test]
    fn syn_search_recovers_random_shifts(
        seed in 0u64..500,
        shift in 0usize..120,
    ) {
        let n_channels = 16;
        let len = 300;
        let mk = |start: usize| {
            let rows = (0..n_channels)
                .map(|ch| {
                    (0..len)
                        .map(|i| testfield::rssi(seed, (start + i) as f64, ch))
                        .collect()
                })
                .collect();
            GsmTrajectory::from_rows(rows)
        };
        let cfg = RupsConfig { n_channels, window_channels: 16, ..RupsConfig::default() };
        let a = mk(0);
        let b = mk(shift);
        let p = find_best_syn(&a, &b, &cfg).unwrap();
        prop_assert_eq!(p.self_end as i64 - p.other_end as i64, shift as i64,
            "failed to recover shift {}", shift);
    }

    #[test]
    fn resolve_distance_is_antisymmetric(
        self_end in 50usize..400,
        other_end in 50usize..400,
        len_self in 400usize..500,
        len_other in 400usize..500,
    ) {
        let p = SynPoint { self_end, other_end, refine_m: 0.0, score: 1.5, window_len: 50 };
        let d_ab = resolve_relative_distance(&p, len_self, len_other);
        let swapped =
            SynPoint { self_end: other_end, other_end: self_end, refine_m: 0.0, score: 1.5, window_len: 50 };
        let d_ba = resolve_relative_distance(&swapped, len_other, len_self);
        prop_assert!((d_ab + d_ba).abs() < 1e-9, "not antisymmetric: {d_ab} vs {d_ba}");
    }

    #[test]
    fn angle_diff_is_wrapped_and_antisymmetric(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let d = angle_diff(a, b);
        prop_assert!(d > -std::f64::consts::PI - 1e-12);
        prop_assert!(d <= std::f64::consts::PI + 1e-12);
        // a − b and b − a wrap to opposite values (except at exactly π).
        let e = angle_diff(b, a);
        let sum = (d + e).rem_euclid(std::f64::consts::TAU);
        prop_assert!(sum < 1e-9 || (sum - std::f64::consts::TAU).abs() < 1e-9);
        prop_assert!(angle_diff(a, a).abs() < 1e-12);
    }

    #[test]
    fn dead_reckoner_emits_one_mark_per_metre(
        speed in 0.5f64..30.0,
        secs in 1usize..30,
    ) {
        let mut dr = DeadReckoner::new(0.1);
        dr.update(0.0, speed, 0.0, Some(0.0));
        let mut marks = 0usize;
        for i in 1..=secs {
            marks += dr.update(i as f64, speed, 0.0, None).len();
        }
        let expect = (speed * secs as f64).floor() as usize;
        prop_assert!(
            (marks as i64 - expect as i64).abs() <= 1,
            "{marks} marks for {expect} metres"
        );
    }

    #[test]
    fn geo_positions_step_by_unit_distance(
        headings in proptest::collection::vec(-3.0f64..3.0, 2..50),
    ) {
        let traj = GeoTrajectory::from_samples(
            headings
                .iter()
                .enumerate()
                .map(|(i, &h)| GeoSample { heading_rad: h, timestamp_s: i as f64 })
                .collect(),
        );
        let pos = traj.positions();
        for w in pos.windows(2) {
            let dx = w[1].0 - w[0].0;
            let dy = w[1].1 - w[0].1;
            prop_assert!(((dx * dx + dy * dy).sqrt() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn power_vector_coverage_matches_present_count(values in rssi_vec(40)) {
        let pv = PowerVector::from_values(values.clone());
        let present = values.iter().filter(|v| !v.is_nan()).count();
        prop_assert_eq!(pv.present_count(), present);
        prop_assert!((pv.coverage() - present as f64 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_for_window_is_monotone(
        w1 in 2usize..200,
        w2 in 2usize..200,
    ) {
        let cfg = RupsConfig::default();
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(cfg.threshold_for_window(lo) <= cfg.threshold_for_window(hi) + 1e-12);
    }

    // Differential: the incremental rolling-sum scan against the
    // recompute-per-placement reference, under catastrophic-cancellation
    // stress — long contexts whose samples sit on a large constant dBm
    // offset, so the rolled `Σx²` and the Pearson variance term both
    // cancel heavily. The engine's FFT kernel meets the same offsets in
    // `engine_differential::kernels_agree_within_tolerance`.
    #[test]
    fn incremental_kernels_match_recompute_reference_under_offsets(
        seed in 0u64..10_000,
        shift in 0usize..90,
        len in 260usize..400,
        offset in -2000.0f32..2000.0,
    ) {
        let k = 12usize;
        let mk = |start: usize| {
            let rows = (0..k)
                .map(|ch| {
                    (0..len)
                        .map(|i| testfield::rssi(seed, (start + i) as f64, ch) + offset)
                        .collect()
                })
                .collect();
            GsmTrajectory::from_rows(rows)
        };
        let cfg = RupsConfig { n_channels: k, window_channels: k, ..RupsConfig::default() };
        let a = mk(0);
        let b = mk(shift);
        let w = CheckWindow::for_context(&a, &cfg).unwrap();
        let fs = len - w.len_m;
        let reference = slide_scores_reference(&a, fs, &b, &w);
        let rolling = slide_scores(&a, fs, &b, &w);
        prop_assert_eq!(reference.len(), rolling.len());
        for (j, (&r, &v)) in reference.iter().zip(&rolling).enumerate() {
            match (r.is_nan(), v.is_nan()) {
                (true, true) => {}
                (false, false) => prop_assert!(
                    (r - v).abs() < 1e-6,
                    "rolling diverged at placement {}: {} vs {} (offset {})",
                    j, r, v, offset
                ),
                _ => prop_assert!(
                    false,
                    "rolling definedness mismatch at {}: {} vs {}",
                    j, r, v
                ),
            }
        }
    }

    // Differential: the real complex-packing trick against two plain
    // complex transforms, both forward orientations, over the half-length
    // spectra's bins 0..=size/2.
    #[test]
    fn packed_real_fft_matches_complex_fft(
        a in proptest::collection::vec(-120.0f64..120.0, 1..48),
        b in proptest::collection::vec(-120.0f64..120.0, 0..48),
        reversed in any::<bool>(),
    ) {
        let size = (a.len().max(b.len()).max(2) * 2).next_power_of_two();
        let (mut work, mut xa, mut xb) = (Vec::new(), Vec::new(), Vec::new());
        dsp::real_spectra_pair_into(&a, &b, reversed, size, &mut work, &mut xa, &mut xb);
        let complex_fft = |row: &[f64]| {
            let mut buf = vec![Complex::default(); size];
            if reversed {
                for (i, &v) in row.iter().rev().enumerate() {
                    buf[i].re = v;
                }
            } else {
                for (i, &v) in row.iter().enumerate() {
                    buf[i].re = v;
                }
            }
            dsp::plan_for(size).process(&mut buf, false);
            buf
        };
        let ra = complex_fft(&a);
        prop_assert_eq!(xa.len(), size / 2 + 1);
        for (k, (p, q)) in xa.iter().zip(&ra).enumerate() {
            prop_assert!(
                (p.re - q.re).abs() < 1e-8 && (p.im - q.im).abs() < 1e-8,
                "channel-a bin {}: packed ({}, {}) vs complex ({}, {})",
                k, p.re, p.im, q.re, q.im
            );
        }
        if b.is_empty() {
            prop_assert!(xb.is_empty(), "lone-channel path must leave xb cleared");
        } else {
            let rb = complex_fft(&b);
            prop_assert_eq!(xb.len(), size / 2 + 1);
            for (k, (p, q)) in xb.iter().zip(&rb).enumerate() {
                prop_assert!(
                    (p.re - q.re).abs() < 1e-8 && (p.im - q.im).abs() < 1e-8,
                    "channel-b bin {}: packed ({}, {}) vs complex ({}, {})",
                    k, p.re, p.im, q.re, q.im
                );
            }
        }
    }

    // Differential: the engine's packed-FFT sliding dot products — two
    // channels through `real_spectra_pair_into` +
    // `corr_from_spectra_pair_into`, then the lone-channel form — against
    // the naive `O(mw)` sum, across arbitrary (including exact power-of-two
    // boundary) length combinations.
    #[test]
    fn sliding_dot_matches_naive_sum(
        seed in 0u64..10_000,
        f_len in 1usize..48,
        extra in 0usize..96,
        offset in -500.0f64..500.0,
    ) {
        let s_len = f_len + extra;
        let n_out = s_len - f_len + 1;
        let row = |ch: usize, len: usize| -> Vec<f64> {
            (0..len).map(|i| testfield::rssi(seed, i as f64, ch) as f64 + offset).collect()
        };
        let (fa, sa, fb, sb) = (row(0, f_len), row(1, s_len), row(2, f_len), row(3, s_len));
        let size = dsp::corr_fft_size(f_len, s_len);
        let scale = 1.0 + f_len as f64 * offset * offset;
        let (mut work, mut out_a, mut out_b) = (Vec::new(), Vec::new(), Vec::new());
        let (mut xfa, mut xfb, mut xsa, mut xsb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (f2, s2) in [(&fb[..], &sb[..]), (&[][..], &[][..])] {
            dsp::real_spectra_pair_into(&fa, f2, true, size, &mut work, &mut xfa, &mut xfb);
            dsp::real_spectra_pair_into(&sa, s2, false, size, &mut work, &mut xsa, &mut xsb);
            dsp::corr_from_spectra_pair_into(
                &xfa, &xsa, &xfb, &xsb, f_len, n_out, &mut work, &mut out_a, &mut out_b,
            );
            prop_assert_eq!(out_b.len(), if f2.is_empty() { 0 } else { n_out });
            for (f, s, dots) in [(&fa, &sa, &out_a), (&fb, &sb, &out_b)] {
                for (j, &d) in dots.iter().enumerate() {
                    let naive: f64 = f.iter().zip(&s[j..j + f_len]).map(|(x, y)| x * y).sum();
                    prop_assert!(
                        (d - naive).abs() < 1e-6 * scale.max(1.0),
                        "lag {}: fft {} vs naive {}",
                        j, d, naive
                    );
                }
            }
            prop_assert_eq!(out_a.len(), n_out);
        }
    }
}
