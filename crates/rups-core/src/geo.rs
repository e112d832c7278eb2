//! Geographical trajectories (§IV-B).
//!
//! RUPS stores a vehicle's recent path as one sample per metre of travelled
//! distance: the tuple `(θ_i, t_i)` of heading angle and timestamp at the
//! *i*-th metre. The distance domain (rather than the time domain) is what
//! makes trajectories of vehicles moving at different speeds directly
//! comparable, and is the index space shared with the GSM-aware trajectory.

use serde::{Deserialize, Serialize};

/// One per-metre sample of a geographical trajectory: the heading of the
/// vehicle and the wall-clock time at which it crossed that metre mark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoSample {
    /// Heading angle in radians, measured counter-clockwise from the +x axis
    /// of an arbitrary local frame (only heading *changes* matter to RUPS).
    pub heading_rad: f64,
    /// Timestamp in seconds at which the vehicle crossed this metre mark.
    pub timestamp_s: f64,
}

/// A geographical trajectory: per-metre `(heading, timestamp)` samples,
/// ordered oldest-first. `samples[len()-1]` is the vehicle's most recent
/// metre mark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GeoTrajectory {
    samples: Vec<GeoSample>,
}

impl GeoTrajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trajectory with room for `cap` metres.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            samples: Vec::with_capacity(cap),
        }
    }

    /// Builds a trajectory directly from per-metre samples (oldest first).
    pub fn from_samples(samples: Vec<GeoSample>) -> Self {
        Self { samples }
    }

    /// Length in metres (number of per-metre samples).
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no metre has been recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The per-metre samples, oldest first.
    #[inline]
    pub fn samples(&self) -> &[GeoSample] {
        &self.samples
    }

    /// Sample at metre index `i` (0 = oldest retained metre).
    #[inline]
    pub fn get(&self, i: usize) -> Option<GeoSample> {
        self.samples.get(i).copied()
    }

    /// Appends the next metre mark. Timestamps must be non-decreasing; this
    /// is the caller's (the dead-reckoner's) contract and is only checked in
    /// debug builds.
    pub fn push(&mut self, sample: GeoSample) {
        debug_assert!(
            self.samples
                .last()
                .is_none_or(|l| sample.timestamp_s >= l.timestamp_s),
            "GeoTrajectory timestamps must be non-decreasing"
        );
        self.samples.push(sample);
    }

    /// Drops the `n` oldest metres (used by the rolling journey context).
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.samples.len());
        self.samples.drain(..n);
    }

    /// Keeps only the most recent `keep` metres.
    pub fn truncate_front(&mut self, keep: usize) {
        if self.samples.len() > keep {
            let drop = self.samples.len() - keep;
            self.drain_front(drop);
        }
    }

    /// A copy of the most recent `len` metres (or the whole trajectory if
    /// shorter).
    pub fn tail(&self, len: usize) -> GeoTrajectory {
        let start = self.samples.len().saturating_sub(len);
        GeoTrajectory {
            samples: self.samples[start..].to_vec(),
        }
    }

    /// A copy of the metre range `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> GeoTrajectory {
        GeoTrajectory {
            samples: self.samples[range].to_vec(),
        }
    }

    /// Timestamp of the most recent metre mark.
    pub fn latest_timestamp(&self) -> Option<f64> {
        self.samples.last().map(|s| s.timestamp_s)
    }

    /// Integrates the per-metre headings into local Cartesian positions.
    /// Position `k` is the location of metre mark `k` relative to metre
    /// mark 0, assuming unit-metre straight hops along each heading.
    pub fn positions(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.samples.len());
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        for (k, s) in self.samples.iter().enumerate() {
            if k > 0 {
                x += s.heading_rad.cos();
                y += s.heading_rad.sin();
            }
            out.push((x, y));
        }
        out
    }

    /// Distance travelled since metre index `i`, i.e. from `i` to the most
    /// recent metre mark.
    #[inline]
    pub fn distance_since(&self, i: usize) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.len() - 1).saturating_sub(i) as f64
    }

    /// Total absolute heading change (radians) over the most recent `len`
    /// metres — a cheap "did we just turn?" signal used by the adaptive
    /// window policy (§V-C).
    pub fn recent_turn_magnitude(&self, len: usize) -> f64 {
        let start = self.samples.len().saturating_sub(len);
        let tail = &self.samples[start..];
        tail.windows(2)
            .map(|w| angle_diff(w[1].heading_rad, w[0].heading_rad).abs())
            .sum()
    }
}

/// Signed smallest difference between two angles, in `(-π, π]`.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    let mut d = (a - b) % std::f64::consts::TAU;
    if d > std::f64::consts::PI {
        d -= std::f64::consts::TAU;
    } else if d <= -std::f64::consts::PI {
        d += std::f64::consts::TAU;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn straight(n: usize) -> GeoTrajectory {
        GeoTrajectory::from_samples(
            (0..n)
                .map(|i| GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: i as f64,
                })
                .collect(),
        )
    }

    #[test]
    fn empty_trajectory() {
        let t = GeoTrajectory::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.latest_timestamp(), None);
        assert_eq!(t.positions(), Vec::<(f64, f64)>::new());
        assert_eq!(t.distance_since(0), 0.0);
    }

    #[test]
    fn straight_line_positions() {
        let t = straight(5);
        let pos = t.positions();
        assert_eq!(pos.len(), 5);
        for (k, (x, y)) in pos.iter().enumerate() {
            assert!((x - k as f64).abs() < 1e-12);
            assert!(y.abs() < 1e-12);
        }
    }

    #[test]
    fn right_angle_turn_positions() {
        // 3 m east, then 2 m north.
        let mut samples = vec![];
        for i in 0..3 {
            samples.push(GeoSample {
                heading_rad: 0.0,
                timestamp_s: i as f64,
            });
        }
        for i in 3..5 {
            samples.push(GeoSample {
                heading_rad: FRAC_PI_2,
                timestamp_s: i as f64,
            });
        }
        let t = GeoTrajectory::from_samples(samples);
        let pos = t.positions();
        let (x, y) = pos[4];
        assert!((x - 2.0).abs() < 1e-12);
        assert!((y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_since_counts_metres() {
        let t = straight(101);
        assert_eq!(t.distance_since(0), 100.0);
        assert_eq!(t.distance_since(100), 0.0);
        assert_eq!(t.distance_since(60), 40.0);
        // Index beyond the end saturates to zero.
        assert_eq!(t.distance_since(500), 0.0);
    }

    #[test]
    fn tail_and_truncate() {
        let mut t = straight(10);
        let tail = t.tail(4);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.samples()[0].timestamp_s, 6.0);
        t.truncate_front(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.samples()[0].timestamp_s, 7.0);
        // Truncating to a larger size is a no-op.
        t.truncate_front(100);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn slice_copies_the_requested_range() {
        let t = straight(10);
        let s = t.slice(3..7);
        assert_eq!(s.len(), 4);
        assert_eq!(s.samples()[0].timestamp_s, 3.0);
        assert_eq!(s.samples()[3].timestamp_s, 6.0);
    }

    #[test]
    fn angle_diff_wraps() {
        assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(PI - 0.05, -PI + 0.05) - (-0.1)).abs() < 1e-9);
        assert!((angle_diff(-PI + 0.05, PI - 0.05) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn turn_magnitude_detects_turns() {
        let s = straight(50);
        assert!(s.recent_turn_magnitude(50) < 1e-12);
        let mut samples = vec![];
        for i in 0..20 {
            samples.push(GeoSample {
                heading_rad: 0.0,
                timestamp_s: i as f64,
            });
        }
        for i in 20..40 {
            samples.push(GeoSample {
                heading_rad: FRAC_PI_2,
                timestamp_s: i as f64,
            });
        }
        let t = GeoTrajectory::from_samples(samples);
        assert!((t.recent_turn_magnitude(40) - FRAC_PI_2).abs() < 1e-9);
        // The turn is outside a short recent window.
        assert!(t.recent_turn_magnitude(10) < 1e-12);
    }
}
