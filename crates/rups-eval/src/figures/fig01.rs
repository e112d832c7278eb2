//! Fig. 1: R-GSM-900 power measurements on two different roads, with the
//! first road entered twice (§III-A).
//!
//! The paper's figure is a spectrogram; as a text-friendly reduction we emit
//! the per-metre mean RSSI profile of each of the three trajectories and
//! report the Eq. (2) trajectory correlation coefficients, whose contrast
//! ("similar when collected on the same road at different time but quite
//! distinct when collected on different roads") is the figure's point.

use crate::series::{Figure, Series};
use gsm_sim::{EnvironmentClass, GsmEnvironment};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use serde::{Deserialize, Serialize};

/// Master seed.
const SEED: u64 = 1;
/// Time between the two entries of road 1, seconds.
const REVISIT_GAP_S: f64 = 1800.0;

/// Parameters of the Fig. 1 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Trajectory length, metres (paper: 150).
    pub len_m: usize,
    /// Band width, channels (paper: 194).
    pub n_channels: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            len_m: 150,
            n_channels: 194,
        }
    }
}

/// Reduced band for `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        n_channels: 64,
        ..Params::default()
    }
}

/// Samples a GSM-aware trajectory: one power vector per metre along the
/// corridor at walking-the-road pace (1 m/s starting at `t0`).
pub fn sample_trajectory(env: &GsmEnvironment, len_m: usize, t0: f64) -> GsmTrajectory {
    let mut traj = GsmTrajectory::with_capacity(env.n_channels(), len_m);
    for i in 0..len_m {
        let pos = (100.0 + i as f64, 0.0);
        let pv = env.power_vector_dbm(pos, t0 + i as f64, 0.0);
        traj.push(&PowerVector::from_values(pv));
    }
    traj
}

fn mean_profile(traj: &GsmTrajectory) -> Vec<f64> {
    (0..traj.len())
        .map(|i| {
            let col = traj.power_at(i);
            col.mean().unwrap_or(f64::NAN)
        })
        .collect()
}

/// Runs the experiment.
pub fn run(p: &Params) -> Figure {
    let road1 = GsmEnvironment::new(SEED, EnvironmentClass::SemiOpen, 2_000.0, p.n_channels);
    let road2 = GsmEnvironment::new(
        SEED ^ 0xBEEF,
        EnvironmentClass::SemiOpen,
        2_000.0,
        p.n_channels,
    );

    let t1a = sample_trajectory(&road1, p.len_m, 0.0);
    let t1b = sample_trajectory(&road1, p.len_m, REVISIT_GAP_S);
    let t2 = sample_trajectory(&road2, p.len_m, 0.0);

    let x: Vec<f64> = (0..p.len_m).map(|i| i as f64).collect();
    let series = vec![
        Series::new(
            "road 1, first entry (mean dBm/m)",
            x.clone(),
            mean_profile(&t1a),
        ),
        Series::new(
            "road 1, second entry (mean dBm/m)",
            x.clone(),
            mean_profile(&t1b),
        ),
        Series::new("road 2 (mean dBm/m)", x, mean_profile(&t2)),
    ];

    let r_same = t1a
        .correlation(0..p.len_m, &t1b, 0..p.len_m, None)
        .unwrap_or(f64::NAN);
    let r_diff = t1a
        .correlation(0..p.len_m, &t2, 0..p.len_m, None)
        .unwrap_or(f64::NAN);
    Figure {
        id: "fig1".into(),
        title: "GSM power measurements on two roads, first road entered twice".into(),
        notes: vec![
            format!("trajectory correlation, same road two entries: {r_same:.3} (scale [-2,2])"),
            format!("trajectory correlation, different roads:        {r_diff:.3}"),
            "paper: same-road trajectories look alike, different roads are distinct".into(),
        ],
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_road_correlates_different_roads_do_not() {
        let p = Params {
            n_channels: 64,
            len_m: 120,
        };
        let fig = run(&p);
        assert_eq!(fig.series.len(), 3);
        assert_eq!(fig.series[0].x.len(), 120);
        let r_same: f64 = fig.notes[0]
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let r_diff: f64 = fig.notes[1]
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(r_same > 1.2, "same-road correlation {r_same}");
        assert!(
            r_diff < r_same - 0.5,
            "contrast too weak: same {r_same} diff {r_diff}"
        );
    }
}
