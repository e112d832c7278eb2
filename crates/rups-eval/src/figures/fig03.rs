//! Fig. 3: geographical uniqueness of GSM-aware trajectories (§III-C).
//!
//! CDFs of the Eq. (2) trajectory correlation coefficient over pairs of
//! trajectories collected (a) on the same road at different entries and
//! (b) on different roads, each under workday and weekend radio activity.
//! The paper's reading: same-road mass sits far right of different-road
//! mass — trajectories are geographically unique.

use crate::figures::fig01::sample_trajectory;
use crate::series::{Figure, Series};
use gsm_sim::{EnvironmentClass, GsmEnvironment, PropagationParams};
use serde::{Deserialize, Serialize};

/// Master seed.
const SEED: u64 = 3;

/// Parameters of the Fig. 3 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Number of distinct roads (paper: 200 segments).
    pub n_roads: usize,
    /// Trajectory length, metres (paper: 150).
    pub len_m: usize,
    /// Band width.
    pub n_channels: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            n_roads: 60,
            len_m: 150,
            n_channels: 194,
        }
    }
}

/// Smaller run for tests.
pub fn quick_params() -> Params {
    Params {
        n_roads: 10,
        len_m: 100,
        n_channels: 48,
    }
}

/// Workday vs weekend: weekday spectrum activity (interference bursts and
/// temporal jitter) is heavier.
fn day_params(base: PropagationParams, workday: bool) -> PropagationParams {
    let k = if workday { 1.4 } else { 0.7 };
    PropagationParams {
        burst_prob_per_slot: (base.burst_prob_per_slot * k).min(0.5),
        temporal_fast_sigma_db: base.temporal_fast_sigma_db * k,
        ..base
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Figure {
    let base = EnvironmentClass::SemiOpen.params();
    let mut series = Vec::new();
    let mut same_means = Vec::new();
    let mut diff_means = Vec::new();

    for (workday, day_label) in [(true, "workday"), (false, "weekend")] {
        let params = day_params(base.clone(), workday);
        let envs: Vec<GsmEnvironment> = (0..p.n_roads)
            .map(|i| {
                GsmEnvironment::with_params(
                    SEED ^ (i as u64) << 8,
                    EnvironmentClass::SemiOpen,
                    params.clone(),
                    2_000.0,
                    p.n_channels,
                )
            })
            .collect();

        // Same road, different entries (half an hour apart).
        let mut same = Vec::new();
        for env in &envs {
            let a = sample_trajectory(env, p.len_m, 0.0);
            let b = sample_trajectory(env, p.len_m, 1800.0);
            if let Some(r) = a.correlation(0..p.len_m, &b, 0..p.len_m, None) {
                same.push(r);
            }
        }
        // Different roads (consecutive pairs, same entry time).
        let mut diff = Vec::new();
        for pair in envs.windows(2) {
            let a = sample_trajectory(&pair[0], p.len_m, 0.0);
            let b = sample_trajectory(&pair[1], p.len_m, 0.0);
            if let Some(r) = a.correlation(0..p.len_m, &b, 0..p.len_m, None) {
                diff.push(r);
            }
        }
        same_means.push(same.iter().sum::<f64>() / same.len().max(1) as f64);
        diff_means.push(diff.iter().sum::<f64>() / diff.len().max(1) as f64);
        series.push(Series::cdf(format!("different entries, {day_label}"), same));
        series.push(Series::cdf(format!("different roads, {day_label}"), diff));
    }

    Figure {
        id: "fig3".into(),
        title: "CDF of correlation coefficient of GSM-aware trajectories".into(),
        notes: vec![
            format!(
                "mean same-road correlation: workday {:.2}, weekend {:.2} (scale [-2,2])",
                same_means[0], same_means[1]
            ),
            format!(
                "mean different-road correlation: workday {:.2}, weekend {:.2}",
                diff_means[0], diff_means[1]
            ),
            "paper: same-road coefficients are much higher than different-road".into(),
        ],
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_road_mass_is_right_of_different_road_mass() {
        let fig = run(&quick_params());
        assert_eq!(fig.series.len(), 4);
        // Compare medians: same-road ≫ different-road, both days.
        for day in 0..2 {
            let same = &fig.series[day * 2];
            let diff = &fig.series[day * 2 + 1];
            let m_same = same.percentile(50.0);
            let m_diff = diff.percentile(50.0);
            assert!(
                m_same > m_diff + 0.5,
                "day {day}: same median {m_same}, diff median {m_diff}"
            );
            assert!(m_same > 1.0, "same-road median {m_same} too low");
            assert!(m_diff < 1.0, "diff-road median {m_diff} too high");
        }
    }

    #[test]
    fn weekend_is_at_least_as_stable_as_workday() {
        let fig = run(&quick_params());
        // Heavier workday activity should not make same-road correlation
        // *higher* than the weekend's.
        let workday = fig.series[0].percentile(50.0);
        let weekend = fig.series[2].percentile(50.0);
        assert!(
            weekend >= workday - 0.1,
            "workday {workday}, weekend {weekend}"
        );
    }
}
