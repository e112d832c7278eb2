//! Small statistics kernels shared by the RUPS correlation machinery.
//!
//! Everything here operates on `f32` slices where `NaN` marks a *missing*
//! measurement (a channel the scanner did not reach at that metre, §IV-C).
//! Pairwise statistics skip positions where either operand is missing, which
//! is exactly how the prototype treats unmeasured channels before
//! interpolation.

/// Raw pairwise sums over the positions where both inputs are present —
/// the single-pass accumulator behind every correlation in the SYN search.
///
/// Division-free inner loop: the `O(mwk)` sliding search executes this for
/// every (placement, channel) pair, so the element step must stay a handful
/// of fused multiply-adds. dBm-scale magnitudes over ≤ a few hundred
/// samples keep the f64 sums far from any cancellation trouble.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairSums {
    /// Number of positions where both operands were present.
    pub n: usize,
    /// Σa over the common support.
    pub sum_a: f64,
    /// Σb.
    pub sum_b: f64,
    /// Σa².
    pub sum_aa: f64,
    /// Σb².
    pub sum_bb: f64,
    /// Σab.
    pub sum_ab: f64,
}

impl PairSums {
    /// Folds one position into the sums, skipping it unless both values
    /// are finite — NaN marks a missing measurement, and a stray ±∞ (a
    /// corrupt sample) would otherwise poison every downstream sum into
    /// NaN/∞ Pearson values.
    #[inline]
    fn push(&mut self, xa: f32, xb: f32) {
        if xa.is_finite() && xb.is_finite() {
            let xa = xa as f64;
            let xb = xb as f64;
            self.n += 1;
            self.sum_a += xa;
            self.sum_b += xb;
            self.sum_aa += xa * xa;
            self.sum_bb += xb * xb;
            self.sum_ab += xa * xb;
        }
    }

    /// Accumulates the sums in one pass, skipping positions where either
    /// value is non-finite.
    ///
    /// The loop runs four independent f64 lanes (lane `l` takes positions
    /// `l, l+4, …`) merged in a fixed `(0+1)+(2+3)` order, so results are
    /// deterministic across calls — though not bit-identical to a
    /// sequential fold, which every consumer tolerates (correlations are
    /// compared at ≥1e-6).
    pub fn accumulate(a: &[f32], b: &[f32]) -> PairSums {
        debug_assert_eq!(a.len(), b.len(), "pair operands must align");
        let mut lanes = [PairSums::default(); 4];
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for (ca, cb) in (&mut ac).zip(&mut bc) {
            lanes[0].push(ca[0], cb[0]);
            lanes[1].push(ca[1], cb[1]);
            lanes[2].push(ca[2], cb[2]);
            lanes[3].push(ca[3], cb[3]);
        }
        let [l0, l1, l2, l3] = lanes;
        let mut s = PairSums {
            n: l0.n + l1.n + l2.n + l3.n,
            sum_a: (l0.sum_a + l1.sum_a) + (l2.sum_a + l3.sum_a),
            sum_b: (l0.sum_b + l1.sum_b) + (l2.sum_b + l3.sum_b),
            sum_aa: (l0.sum_aa + l1.sum_aa) + (l2.sum_aa + l3.sum_aa),
            sum_bb: (l0.sum_bb + l1.sum_bb) + (l2.sum_bb + l3.sum_bb),
            sum_ab: (l0.sum_ab + l1.sum_ab) + (l2.sum_ab + l3.sum_ab),
        };
        for (&xa, &xb) in ac.remainder().iter().zip(bc.remainder()) {
            s.push(xa, xb);
        }
        s
    }

    /// Pearson's correlation coefficient from the sums; `None` for fewer
    /// than two points or zero variance on either side.
    pub fn pearson(&self) -> Option<f64> {
        let (defined, r) = self.pearson_parts();
        defined.then_some(r)
    }

    /// Whether [`PairSums::pearson`] is defined, and its value where it is
    /// (meaningless where not). Computed without branches, so callers that
    /// take many coefficients at once can run their divisions and square
    /// roots side by side.
    #[inline]
    pub(crate) fn pearson_parts(&self) -> (bool, f64) {
        let n = self.n as f64;
        let var_a = self.sum_aa - self.sum_a * self.sum_a / n;
        let var_b = self.sum_bb - self.sum_b * self.sum_b / n;
        // Constant slices leave a rounding residue in the sums-based
        // variance; reject anything within that numerical noise band.
        let tol_a = self.sum_aa.abs() * f64::EPSILON * n;
        let tol_b = self.sum_bb.abs() * f64::EPSILON * n;
        let cov = self.sum_ab - self.sum_a * self.sum_b / n;
        let r = (cov / (var_a * var_b).sqrt()).clamp(-1.0, 1.0);
        (self.n >= 2 && var_a > tol_a && var_b > tol_b, r)
    }

    /// Means of both operands over the common support.
    pub fn means(&self) -> Option<(f64, f64)> {
        (self.n > 0).then(|| (self.sum_a / self.n as f64, self.sum_b / self.n as f64))
    }
}

/// Pearson's correlation coefficient (Eq. (1) of the paper) between two
/// equal-length slices, computed over the positions where both are present.
///
/// Returns `None` when fewer than two common positions exist or when either
/// side has zero variance (the coefficient is undefined there; callers treat
/// such windows as "no evidence" rather than as a perfect match).
pub fn pearson(a: &[f32], b: &[f32]) -> Option<f64> {
    PairSums::accumulate(a, b).pearson()
}

/// Mean over the present (non-NaN) entries; `None` if everything is missing.
pub fn present_mean(a: &[f32]) -> Option<f64> {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    for &x in a {
        if !x.is_nan() {
            n += 1;
            sum += x as f64;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Relative change `‖X − X'‖ / ‖X‖` (Eq. (3) of the paper) between two power
/// vectors, computed over the common support. `None` when the common support
/// is empty or the reference vector has zero norm.
pub fn relative_change(reference: &[f32], other: &[f32]) -> Option<f64> {
    debug_assert_eq!(reference.len(), other.len());
    let mut diff_sq = 0.0f64;
    let mut ref_sq = 0.0f64;
    let mut n = 0usize;
    for (&x, &y) in reference.iter().zip(other) {
        if x.is_nan() || y.is_nan() {
            continue;
        }
        n += 1;
        let d = (x - y) as f64;
        diff_sq += d * d;
        ref_sq += (x as f64) * (x as f64);
    }
    if n == 0 || ref_sq <= f64::EPSILON {
        return None;
    }
    Some((diff_sq / ref_sq).sqrt())
}

/// Arithmetic mean over the non-NaN entries. `None` when nothing survives
/// the filter (empty input or all-NaN). NaN estimates appear legitimately
/// — the full scan of `syn::slide_scores` scores undefined placements NaN
/// — so the aggregation kernels treat them as "no estimate", never as data.
pub fn mean(xs: &[f64]) -> Option<f64> {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    for &x in xs {
        if !x.is_nan() {
            n += 1;
            sum += x;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Sample standard deviation over the non-NaN entries; `None` for fewer
/// than two surviving samples.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let mut n = 0usize;
    let mut ss = 0.0f64;
    for &x in xs {
        if !x.is_nan() {
            n += 1;
            ss += (x - m) * (x - m);
        }
    }
    if n < 2 {
        return None;
    }
    Some((ss / (n - 1) as f64).sqrt())
}

/// Median over the non-NaN entries (average of the two middle elements for
/// even lengths). `None` when nothing survives the filter. Does not
/// require pre-sorted input.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// "Selective average" of §VI-C: drop the single maximum and the single
/// minimum estimate, then average the rest. NaN entries are filtered out
/// first; falls back to the plain mean when fewer than three estimates
/// survive.
pub fn selective_average(xs: &[f64]) -> Option<f64> {
    let v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.len() < 3 {
        return mean(&v);
    }
    let (mut lo, mut hi) = (0usize, 0usize);
    for (i, &x) in v.iter().enumerate() {
        if x < v[lo] {
            lo = i;
        }
        if x > v[hi] {
            hi = i;
        }
    }
    let mut n = 0usize;
    let mut sum = 0.0;
    for (i, &x) in v.iter().enumerate() {
        if i != lo && i != hi {
            n += 1;
            sum += x;
        }
    }
    // When lo == hi (all values equal) we dropped one element only.
    if n == 0 {
        return mean(&v);
    }
    Some(sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAN: f32 = f32::NAN;

    #[test]
    fn pearson_of_identical_vectors_is_one() {
        let a = [1.0, 2.0, 3.0, 4.5, -2.0];
        assert!((pearson(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_negated_vector_is_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.5, -2.0];
        let b: Vec<f32> = a.iter().map(|x| -x).collect();
        assert!((pearson(&a, &b).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_is_shift_and_scale_invariant() {
        let a = [-75.0f32, -62.0, -88.0, -70.0, -65.0, -91.0];
        let b: Vec<f32> = a.iter().map(|x| 3.0 * x + 17.0).collect();
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_skips_missing_positions() {
        let a = [1.0, NAN, 3.0, 4.0, 100.0];
        let b = [2.0, 5.0, 6.0, 8.0, NAN];
        // Effective pairs: (1,2), (3,6), (4,8) — perfectly proportional.
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[2.0, 2.0, 2.0], &[1.0, 5.0, 9.0]), None); // zero variance
        assert_eq!(pearson(&[NAN, NAN], &[1.0, 2.0]), None);
    }

    #[test]
    fn pearson_uncorrelated_is_near_zero() {
        // Orthogonal patterns around their means.
        let a = [1.0f32, -1.0, 1.0, -1.0];
        let b = [1.0f32, 1.0, -1.0, -1.0];
        assert!(pearson(&a, &b).unwrap().abs() < 1e-12);
    }

    #[test]
    fn relative_change_matches_eq3() {
        let x = [3.0f32, 4.0];
        let y = [0.0f32, 0.0];
        // ‖x−y‖ = 5, ‖x‖ = 5 → 1.0
        assert!((relative_change(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!((relative_change(&x, &x).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn relative_change_ignores_missing() {
        let x = [3.0f32, NAN, 4.0];
        let y = [3.0f32, 7.0, 0.0];
        // Common support: positions 0 and 2 → ‖(0,4)‖ / ‖(3,4)‖ = 4/5.
        assert!((relative_change(&x, &y).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn relative_change_empty_support() {
        assert_eq!(relative_change(&[NAN], &[1.0]), None);
        assert_eq!(relative_change(&[0.0, 0.0], &[1.0, 1.0]), None); // zero ref norm
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn selective_average_drops_extremes() {
        // 100 is an outlier; selective average ignores it (and the min).
        let est = [10.0, 11.0, 9.0, 100.0, 10.5];
        let sel = selective_average(&est).unwrap();
        assert!((sel - (10.0 + 11.0 + 10.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn selective_average_small_inputs_fall_back_to_mean() {
        assert_eq!(selective_average(&[4.0, 6.0]), Some(5.0));
        assert_eq!(selective_average(&[7.0]), Some(7.0));
        assert_eq!(selective_average(&[]), None);
    }

    #[test]
    fn selective_average_all_equal() {
        assert_eq!(selective_average(&[5.0, 5.0, 5.0, 5.0]), Some(5.0));
    }

    #[test]
    fn stddev_basics() {
        assert_eq!(stddev(&[1.0]), None);
        let s = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn present_mean_skips_missing() {
        assert_eq!(present_mean(&[NAN, NAN]), None);
        assert_eq!(present_mean(&[2.0, NAN, 4.0]), Some(3.0));
    }

    #[test]
    fn accumulate_skips_non_finite_not_just_nan() {
        // One corrupt ±∞ sample must not poison the sums (it used to turn
        // sum_aa into ∞ and the covariance into NaN).
        let a = [1.0f32, f32::INFINITY, 3.0, 4.0, f32::NEG_INFINITY, 6.0];
        let b = [2.0f32, 5.0, 6.0, 8.0, 9.0, 12.0];
        let s = PairSums::accumulate(&a, &b);
        assert_eq!(s.n, 4); // positions 0, 2, 3, 5
        assert!(s.sum_aa.is_finite() && s.sum_ab.is_finite());
        // Surviving pairs are perfectly proportional (b = 2a).
        assert!((s.pearson().unwrap() - 1.0).abs() < 1e-12);
        // ∞ on the other operand is skipped too.
        let s = PairSums::accumulate(&b, &a);
        assert_eq!(s.n, 4);
        assert!(s.pearson().unwrap().is_finite());
        // All-corrupt input yields an empty accumulator, not ∞ sums.
        let inf = [f32::INFINITY; 3];
        let fine = [1.0f32, 2.0, 3.0];
        assert_eq!(PairSums::accumulate(&inf, &fine), PairSums::default());
    }

    #[test]
    fn accumulate_unroll_matches_sequential_fold() {
        // Lane-split accumulation must agree with the plain sequential
        // fold for every length (incl. remainders 1..3) and with missing
        // values landing in every lane.
        for n in 0..23usize {
            let a: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 5 == 3 {
                        NAN
                    } else {
                        (i as f32 * 0.7).sin() * 25.0 - 70.0
                    }
                })
                .collect();
            let b: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 7 == 2 {
                        NAN
                    } else {
                        (i as f32 * 0.3).cos() * 20.0 - 60.0
                    }
                })
                .collect();
            let s = PairSums::accumulate(&a, &b);
            let mut e = PairSums::default();
            for (&xa, &xb) in a.iter().zip(&b) {
                e.push(xa, xb);
            }
            assert_eq!(s.n, e.n, "n={n}");
            for (got, want) in [
                (s.sum_a, e.sum_a),
                (s.sum_b, e.sum_b),
                (s.sum_aa, e.sum_aa),
                (s.sum_bb, e.sum_bb),
                (s.sum_ab, e.sum_ab),
            ] {
                assert!((got - want).abs() < 1e-9, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn aggregates_filter_nan() {
        // Table: (input, mean, median, selective_average).
        type Case = (&'static [f64], Option<f64>, Option<f64>, Option<f64>);
        let cases: &[Case] = &[
            // NaN scores from syn::slide_scores must be ignored, not panic
            // the sort or poison the sums.
            (
                &[3.0, f64::NAN, 1.0],
                Some(2.0),
                Some(2.0),
                Some(2.0), // two survivors → mean fallback
            ),
            (&[f64::NAN, f64::NAN], None, None, None),
            (&[], None, None, None),
            (
                &[10.0, f64::NAN, 11.0, 9.0, 100.0, 10.5],
                Some(28.1),
                Some(10.5),
                Some((10.0 + 11.0 + 10.5) / 3.0),
            ),
            (&[f64::NAN, 7.0], Some(7.0), Some(7.0), Some(7.0)),
        ];
        for (i, (xs, want_mean, want_median, want_sel)) in cases.iter().enumerate() {
            let close = |got: Option<f64>, want: Option<f64>| match (got, want) {
                (Some(g), Some(w)) => (g - w).abs() < 1e-9,
                (None, None) => true,
                _ => false,
            };
            assert!(close(mean(xs), *want_mean), "case {i}: mean {:?}", mean(xs));
            assert!(
                close(median(xs), *want_median),
                "case {i}: median {:?}",
                median(xs)
            );
            assert!(
                close(selective_average(xs), *want_sel),
                "case {i}: selective {:?}",
                selective_average(xs)
            );
        }
        // stddev: needs two non-NaN survivors.
        assert_eq!(stddev(&[f64::NAN, 5.0]), None);
        assert_eq!(stddev(&[f64::NAN]), None);
        let s = stddev(&[f64::NAN, 2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn welford_matches_naive_two_pass() {
        let a: Vec<f32> = (0..64)
            .map(|i| (i as f32 * 0.37).sin() * 20.0 - 70.0)
            .collect();
        let b: Vec<f32> = (0..64)
            .map(|i| (i as f32 * 0.11).cos() * 15.0 - 60.0)
            .collect();
        let s = PairSums::accumulate(&a, &b);
        let (sum_mean_a, sum_mean_b) = s.means().unwrap();
        let sum_ss_ab = s.sum_ab - s.sum_a * s.sum_b / s.n as f64;
        let na = a.len() as f64;
        let mean_a: f64 = a.iter().map(|&x| x as f64).sum::<f64>() / na;
        let mean_b: f64 = b.iter().map(|&x| x as f64).sum::<f64>() / na;
        let ss_ab: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 - mean_a) * (y as f64 - mean_b))
            .sum();
        assert!((sum_mean_a - mean_a).abs() < 1e-9);
        assert!((sum_mean_b - mean_b).abs() < 1e-9);
        assert!((sum_ss_ab - ss_ab).abs() < 1e-6);
    }
}
