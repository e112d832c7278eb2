//! Fig. 2: temporary stability of GSM power vectors (§III-B).
//!
//! Twenty static locations; at each, pairs of power vectors separated by a
//! growing time gap are correlated (Eq. (1)). The figure plots the
//! probability that a pair is "stable" (correlation above a threshold) as a
//! function of the gap, for the full band and for random 10-channel
//! subsets, at thresholds 0.8 and 0.9.

use crate::series::{Figure, Series};
use gsm_sim::{EnvironmentClass, GsmEnvironment};
use rand::rngs::StdRng;
use rand::{seq::index::sample, Rng, SeedableRng};
use rups_core::stats::pearson;
use serde::{Deserialize, Serialize};

/// Master seed.
const SEED: u64 = 2;

/// Parameters of the Fig. 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Number of measurement locations (paper: 20, downtown).
    pub n_locations: usize,
    /// Power-vector pairs per (location, gap) cell (paper: 100 per gap over
    /// all locations).
    pub pairs_per_gap: usize,
    /// Band width (paper: 194).
    pub n_channels: usize,
    /// Time gaps to evaluate, seconds (paper: 5 s to 25 min).
    pub gaps_s: Vec<f64>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            n_locations: 20,
            pairs_per_gap: 100,
            n_channels: 194,
            gaps_s: vec![5.0, 30.0, 60.0, 120.0, 300.0, 600.0, 900.0, 1200.0, 1500.0],
        }
    }
}

/// Smaller run for tests.
pub fn quick_params() -> Params {
    Params {
        n_locations: 5,
        pairs_per_gap: 30,
        n_channels: 64,
        gaps_s: vec![5.0, 120.0, 600.0, 1500.0],
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Figure {
    // Downtown setting per the paper: semi-open urban environment.
    let env = GsmEnvironment::new(SEED, EnvironmentClass::SemiOpen, 8_000.0, p.n_channels);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF162);

    let locations: Vec<(f64, f64)> = (0..p.n_locations)
        .map(|_| (rng.gen_range(200.0..7_800.0), 0.0))
        .collect();

    // (threshold, subset size) variants of the figure.
    let variants: [(f64, Option<usize>, &str); 4] = [
        (0.8, None, "Correlation ≥ 0.80, 194 channels"),
        (0.9, None, "Correlation ≥ 0.90, 194 channels"),
        (0.8, Some(10), "Correlation ≥ 0.80, 10 channels"),
        (0.9, Some(10), "Correlation ≥ 0.90, 10 channels"),
    ];

    let mut series = Vec::new();
    for (threshold, subset, label) in variants {
        let mut probs = Vec::with_capacity(p.gaps_s.len());
        for &gap in &p.gaps_s {
            let mut stable = 0usize;
            let mut total = 0usize;
            for _ in 0..p.pairs_per_gap {
                let loc = locations[rng.gen_range(0..locations.len())];
                let t1 = rng.gen_range(0.0..1800.0);
                let a = env.power_vector_dbm(loc, t1, 0.0);
                let b = env.power_vector_dbm(loc, t1 + gap, 0.0);
                let (a, b): (Vec<f32>, Vec<f32>) = match subset {
                    Some(k) => {
                        let idx = sample(&mut rng, p.n_channels, k.min(p.n_channels));
                        (
                            idx.iter().map(|i| a[i]).collect(),
                            idx.iter().map(|i| b[i]).collect(),
                        )
                    }
                    None => (a, b),
                };
                if let Some(r) = pearson(&a, &b) {
                    total += 1;
                    if r >= threshold {
                        stable += 1;
                    }
                }
            }
            probs.push(if total > 0 {
                stable as f64 / total as f64
            } else {
                0.0
            });
        }
        let x: Vec<f64> = p.gaps_s.iter().map(|g| g / 60.0).collect();
        series.push(Series::new(label, x, probs));
    }

    let p08_full_last = *series[0].y.last().unwrap();
    let p09_full_last = *series[1].y.last().unwrap();
    Figure {
        id: "fig2".into(),
        title: "Temporary stability of GSM power vectors".into(),
        notes: vec![
            format!(
                "P(corr ≥ 0.8, full band) at the longest gap: {p08_full_last:.2} \
                 (paper: ≥ 0.95 with threshold 0.8)"
            ),
            format!("P(corr ≥ 0.9, full band) at the longest gap: {p09_full_last:.2}"),
            "x axis: time difference in minutes".into(),
        ],
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_anchors_hold() {
        let fig = run(&quick_params());
        assert_eq!(fig.series.len(), 4);
        // Threshold 0.8 on the full band: high stability across all gaps —
        // the Fig. 2 anchor.
        for (&gap_min, &prob) in fig.series[0].x.iter().zip(&fig.series[0].y) {
            assert!(prob >= 0.85, "P(r≥0.8) = {prob} at {gap_min} min");
        }
        // Stricter threshold can only lower the probability.
        for (p08, p09) in fig.series[0].y.iter().zip(&fig.series[1].y) {
            assert!(*p09 <= p08 + 1e-9);
        }
        // Short gaps at least as stable as the longest gap (within noise).
        let first = fig.series[1].y.first().unwrap();
        let last = fig.series[1].y.last().unwrap();
        assert!(
            first >= &(last - 0.15),
            "stability should not rise with gap"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&quick_params());
        let b = run(&quick_params());
        assert_eq!(a, b);
    }
}
