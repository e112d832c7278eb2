//! Per-node clock-skew modelling: aligning N span rings onto one timebase.
//!
//! Every [`SpanRecorder`](crate::SpanRecorder) stamps records against its
//! own origin, and on real hardware every node's oscillator also runs at
//! its own rate. A merged fleet trace is only readable once all rings are
//! mapped onto one *fleet* timebase; [`ClockModel`] is the affine map that
//! does it and [`SkewEstimator`] recovers the model from paired
//! `(local, fleet)` timestamp observations — in a vehicle fleet, one
//! observation per received beacon (the receiver's local clock vs the
//! sender-carried logical time of a reference node).
//!
//! The model is the usual two-parameter oscillator abstraction:
//!
//! ```text
//! local_ns = fleet_ns · (1 + drift_ppm·1e-6) + offset_ns
//! ```
//!
//! `offset_ns` is the phase error at fleet time 0 and `drift_ppm` the rate
//! error in parts per million (automotive-grade crystals: tens of ppm).

use serde::{Deserialize, Serialize};

/// An affine clock map from one node's local clock to the fleet timebase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockModel {
    /// Phase error: local minus fleet at fleet time zero, nanoseconds.
    pub offset_ns: f64,
    /// Rate error in parts per million (positive → local clock runs fast).
    pub drift_ppm: f64,
}

impl Default for ClockModel {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl ClockModel {
    /// The perfectly synchronised clock (no offset, no drift).
    pub const IDENTITY: ClockModel = ClockModel {
        offset_ns: 0.0,
        drift_ppm: 0.0,
    };

    /// Maps a local timestamp onto the fleet timebase.
    #[inline]
    pub fn to_fleet_ns(&self, local_ns: f64) -> f64 {
        (local_ns - self.offset_ns) / (1.0 + self.drift_ppm * 1e-6)
    }

    /// Maps a fleet timestamp onto this node's local clock (inverse of
    /// [`to_fleet_ns`](Self::to_fleet_ns)).
    #[inline]
    pub fn to_local_ns(&self, fleet_ns: f64) -> f64 {
        fleet_ns * (1.0 + self.drift_ppm * 1e-6) + self.offset_ns
    }
}

/// Recovers a [`ClockModel`] from paired timestamp observations.
///
/// Feed it `(local_ns, fleet_ns)` pairs via [`observe`](Self::observe) —
/// each one says "my clock read `local_ns` when fleet time was
/// `fleet_ns`" — then call [`estimate`](Self::estimate). With two or more
/// time-separated observations the estimator least-squares fits both
/// phase and rate; with fewer (or a degenerate spread) it falls back to
/// the median phase offset and zero drift, which is robust to one-shot
/// jitter outliers.
#[derive(Debug, Clone, Default)]
pub struct SkewEstimator {
    /// `(local_ns, local_ns - fleet_ns)` pairs.
    samples: Vec<(f64, f64)>,
}

impl SkewEstimator {
    /// An estimator with no observations (estimates the identity clock).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one paired reading. Non-finite inputs are ignored.
    pub fn observe(&mut self, local_ns: f64, fleet_ns: f64) {
        if local_ns.is_finite() && fleet_ns.is_finite() {
            self.samples.push((local_ns, local_ns - fleet_ns));
        }
    }

    /// Observations recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The model best explaining the observations (identity when empty).
    pub fn estimate(&self) -> ClockModel {
        let n = self.samples.len();
        if n == 0 {
            return ClockModel::IDENTITY;
        }
        // offset(local) = local - fleet = a + b·local under the model
        // local = fleet·(1+d) + o, with b = d/(1+d) and a = o/(1+d).
        let mean_t = self.samples.iter().map(|(t, _)| t).sum::<f64>() / n as f64;
        let mean_o = self.samples.iter().map(|(_, o)| o).sum::<f64>() / n as f64;
        let var_t: f64 = self
            .samples
            .iter()
            .map(|(t, _)| (t - mean_t) * (t - mean_t))
            .sum();
        if n < 2 || var_t < 1e-3 {
            return ClockModel {
                offset_ns: self.median_offset(),
                drift_ppm: 0.0,
            };
        }
        let cov: f64 = self
            .samples
            .iter()
            .map(|(t, o)| (t - mean_t) * (o - mean_o))
            .sum();
        let b = cov / var_t;
        // |b| ≥ 1 would mean the local clock runs backwards in fleet time —
        // physically impossible for an oscillator; fall back to phase-only.
        if !b.is_finite() || b.abs() >= 0.5 {
            return ClockModel {
                offset_ns: self.median_offset(),
                drift_ppm: 0.0,
            };
        }
        let a = mean_o - b * mean_t;
        let drift = b / (1.0 - b);
        ClockModel {
            offset_ns: a / (1.0 - b),
            drift_ppm: drift * 1e6,
        }
    }

    fn median_offset(&self) -> f64 {
        let mut offs: Vec<f64> = self.samples.iter().map(|(_, o)| *o).collect();
        offs.sort_by(|x, y| x.partial_cmp(y).expect("offsets are finite"));
        let n = offs.len();
        if n % 2 == 1 {
            offs[n / 2]
        } else {
            (offs[n / 2 - 1] + offs[n / 2]) / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trips() {
        let m = ClockModel::IDENTITY;
        for t in [0.0, 1e6, 1e12] {
            assert_eq!(m.to_fleet_ns(t), t);
            assert_eq!(m.to_local_ns(t), t);
        }
        assert_eq!(SkewEstimator::new().estimate(), ClockModel::IDENTITY);
    }

    #[test]
    fn model_maps_are_mutual_inverses() {
        let m = ClockModel {
            offset_ns: 1.5e9,
            drift_ppm: 40.0,
        };
        for t in [0.0, 3.7e8, 9.9e11] {
            let back = m.to_local_ns(m.to_fleet_ns(t));
            assert!((back - t).abs() < 1e-3, "{t} -> {back}");
        }
    }

    #[test]
    fn estimator_recovers_offset_and_drift() {
        let truth = ClockModel {
            offset_ns: 2.5e9,
            drift_ppm: 80.0,
        };
        let mut est = SkewEstimator::new();
        for k in 0..20 {
            let fleet = k as f64 * 1e9; // one observation per second
            est.observe(truth.to_local_ns(fleet), fleet);
        }
        let got = est.estimate();
        assert!(
            (got.offset_ns - truth.offset_ns).abs() < 100.0,
            "offset {} vs {}",
            got.offset_ns,
            truth.offset_ns
        );
        assert!(
            (got.drift_ppm - truth.drift_ppm).abs() < 0.01,
            "drift {} vs {}",
            got.drift_ppm,
            truth.drift_ppm
        );
        // Aligning through the estimate recovers fleet time.
        for k in 0..20 {
            let fleet = k as f64 * 1e9 + 0.5e9;
            let aligned = got.to_fleet_ns(truth.to_local_ns(fleet));
            assert!((aligned - fleet).abs() < 200.0, "{aligned} vs {fleet}");
        }
    }

    #[test]
    fn single_or_degenerate_samples_fall_back_to_phase_only() {
        let mut est = SkewEstimator::new();
        est.observe(5e9, 3e9);
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0);
        assert_eq!(got.offset_ns, 2e9);
        // Same local time twice (zero spread) also avoids the rate fit.
        est.observe(5e9, 3.2e9);
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0);
        assert!((got.offset_ns - 1.9e9).abs() < 1.0, "median of two offsets");
    }

    #[test]
    fn jitter_outlier_does_not_capsize_the_phase_fallback() {
        let mut est = SkewEstimator::new();
        // All at one local instant → phase-only path; one wild outlier.
        for _ in 0..9 {
            est.observe(1e9, 0.0);
        }
        est.observe(1e9, -1e15);
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0);
        assert_eq!(got.offset_ns, 1e9, "median shrugs off the outlier");
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut est = SkewEstimator::new();
        est.observe(f64::NAN, 0.0);
        est.observe(0.0, f64::INFINITY);
        assert!(est.is_empty());
        assert_eq!(est.estimate(), ClockModel::IDENTITY);
    }

    #[test]
    fn fewer_than_two_fenceposts_never_fit_a_rate() {
        // Zero fenceposts: identity, not a panic.
        assert_eq!(SkewEstimator::new().estimate(), ClockModel::IDENTITY);
        // One fencepost: pure phase, zero drift — whatever the magnitudes.
        for (local, fleet) in [(0.0, 0.0), (1e18, -1e18), (-5.0, 7.0)] {
            let mut est = SkewEstimator::new();
            est.observe(local, fleet);
            let got = est.estimate();
            assert_eq!(got.drift_ppm, 0.0, "({local}, {fleet})");
            assert_eq!(got.offset_ns, local - fleet, "({local}, {fleet})");
            assert!(got.to_fleet_ns(local).is_finite());
        }
    }

    #[test]
    fn many_identical_timestamps_fall_back_to_median_phase() {
        // A stalled local clock: hundreds of observations, zero spread in
        // local time. The rate fit would divide by ~0 variance; the
        // estimator must take the median-phase path instead.
        let mut est = SkewEstimator::new();
        for k in 0..300 {
            est.observe(7e9, 4e9 + (k % 3) as f64); // offsets 3e9−{0,1,2}
        }
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0);
        assert!(
            (got.offset_ns - (3e9 - 1.0)).abs() <= 1.0,
            "{}",
            got.offset_ns
        );
        // And the model still round-trips finitely.
        assert!(got.to_local_ns(got.to_fleet_ns(7e9)).is_finite());
    }

    #[test]
    fn non_finite_offsets_mixed_into_finite_sets_cannot_poison_the_median() {
        // NaN/±inf arrive interleaved with good fenceposts; observe()
        // drops them, so the median sort's partial_cmp never sees a NaN
        // and the estimate stays finite.
        let mut est = SkewEstimator::new();
        for k in 0..5 {
            est.observe(f64::NAN, k as f64);
            est.observe(k as f64 * 1e9, f64::NEG_INFINITY);
            est.observe(1e9, 2e9 - k as f64); // genuine: offsets ≈ −1e9
        }
        assert_eq!(est.len(), 5, "only the finite pairs count");
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0, "zero local spread → phase only");
        assert!(got.offset_ns.is_finite());
        assert!(
            (got.offset_ns - (-1e9 + 2.0)).abs() <= 2.5,
            "{}",
            got.offset_ns
        );
    }

    #[test]
    fn near_degenerate_spread_uses_phase_not_an_exploding_rate() {
        // Two fenceposts separated by well under the variance floor: a
        // naive fit would extrapolate an absurd drift from float noise.
        let mut est = SkewEstimator::new();
        est.observe(1e9, 2e9);
        est.observe(1e9 + 1e-3, 2e9 + 5e8);
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0);
        assert!(got.offset_ns.is_finite());
        // An estimate that DOES clear the floor but implies the local
        // clock running backwards also falls back (the |b| ≥ 0.5 guard).
        let mut est = SkewEstimator::new();
        est.observe(0.0, 0.0);
        est.observe(1.0, 10.0);
        let got = est.estimate();
        assert_eq!(got.drift_ppm, 0.0, "impossible rate rejected");
        assert_eq!(got.offset_ns, -4.5, "median of {{0, -9}} offsets");
    }
}
