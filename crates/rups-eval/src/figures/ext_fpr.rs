//! Extension experiment: detection and false-positive rates vs window
//! length (§V-C).
//!
//! The paper claims that with the flexible window and adaptive threshold,
//! "even when the window length is as short as ten meters, RUPS can still
//! guarantee to identify related vehicles with acceptable false positive
//! ratio" — but shows no numbers. This experiment measures both rates: for
//! each window length, `n_pairs` *related* context pairs (same road, known
//! offset) and `n_pairs` *unrelated* pairs (different roads) run the
//! double-sliding check; we report P(SYN found | related) and
//! P(SYN found | unrelated).

use crate::figures::fig01::sample_trajectory;
use crate::series::{Figure, Series};
use gsm_sim::{EnvironmentClass, GsmEnvironment};
use rups_core::config::RupsConfig;
use rups_core::syn::find_best_syn;
use serde::{Deserialize, Serialize};

/// Master seed.
const SEED: u64 = 0xF9;
/// Context length, metres (long enough for every window).
const CONTEXT_LEN_M: usize = 300;
/// True offset within related pairs, metres.
const OFFSET_M: usize = 35;

/// Parameters of the false-positive experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Window lengths to evaluate, metres.
    pub window_lens_m: Vec<usize>,
    /// Related/unrelated pairs per window length.
    pub n_pairs: usize,
    /// Band width.
    pub n_channels: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            window_lens_m: vec![10, 20, 40, 60, 85],
            n_pairs: 60,
            n_channels: 96,
        }
    }
}

/// Smaller run for tests.
pub fn quick_params() -> Params {
    Params {
        n_pairs: 12,
        n_channels: 48,
        window_lens_m: vec![10, 40, 85],
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Figure {
    let mut detect = Vec::with_capacity(p.window_lens_m.len());
    let mut fpr = Vec::with_capacity(p.window_lens_m.len());
    let mut offset_err = Vec::with_capacity(p.window_lens_m.len());

    for &w in &p.window_lens_m {
        let cfg = RupsConfig {
            n_channels: p.n_channels,
            window_len_m: w,
            window_channels: 45.min(p.n_channels),
            max_context_m: CONTEXT_LEN_M,
            min_window_len_m: 10.min(w),
            ..RupsConfig::default()
        };
        let mut hits = 0usize;
        let mut false_hits = 0usize;
        let mut err_sum = 0.0f64;
        for pair in 0..p.n_pairs {
            let seed = SEED ^ ((w as u64) << 24) ^ (pair as u64);
            // Related: same environment, second trajectory offset and
            // half an hour later.
            let env = GsmEnvironment::new(seed, EnvironmentClass::SemiOpen, 2_000.0, p.n_channels);
            let a = sample_trajectory(&env, CONTEXT_LEN_M, 0.0);
            let b = {
                // Offset entry, 1800 s later (temporal drift applies).
                let mut traj =
                    rups_core::gsm::GsmTrajectory::with_capacity(p.n_channels, CONTEXT_LEN_M);
                for i in 0..CONTEXT_LEN_M {
                    let pos = (100.0 + (OFFSET_M + i) as f64, 0.0);
                    let pv = env.power_vector_dbm(pos, 1800.0 + i as f64, 0.0);
                    traj.push(&rups_core::gsm::PowerVector::from_values(pv));
                }
                traj
            };
            if let Ok(syn) = find_best_syn(&a, &b, &cfg) {
                hits += 1;
                let implied = syn.other_end as i64 - syn.self_end as i64;
                err_sum += (implied as f64 + OFFSET_M as f64).abs();
            }
            // Unrelated: a completely different road.
            let env2 = GsmEnvironment::new(
                seed ^ 0xDEAD_0000,
                EnvironmentClass::SemiOpen,
                2_000.0,
                p.n_channels,
            );
            let c = sample_trajectory(&env2, CONTEXT_LEN_M, 0.0);
            if find_best_syn(&a, &c, &cfg).is_ok() {
                false_hits += 1;
            }
        }
        detect.push(hits as f64 / p.n_pairs as f64);
        fpr.push(false_hits as f64 / p.n_pairs as f64);
        offset_err.push(if hits > 0 {
            err_sum / hits as f64
        } else {
            f64::NAN
        });
    }

    let x: Vec<f64> = p.window_lens_m.iter().map(|&w| w as f64).collect();
    let notes = vec![
        format!(
            "detection rate at w = {} m: {:.2}; at w = {} m: {:.2}",
            p.window_lens_m[0],
            detect[0],
            p.window_lens_m.last().unwrap(),
            detect.last().unwrap()
        ),
        format!(
            "false-positive rate at w = {} m: {:.2}; at w = {} m: {:.2}",
            p.window_lens_m[0],
            fpr[0],
            p.window_lens_m.last().unwrap(),
            fpr.last().unwrap()
        ),
        "paper §V-C: short windows + relaxed threshold keep related vehicles \
         detectable at an acceptable false-positive ratio"
            .into(),
    ];
    Figure {
        id: "ext-fpr".into(),
        title: "Detection vs false-positive rate as the checking window shrinks (§V-C)".into(),
        notes,
        series: vec![
            Series::new("P(SYN | related)", x.clone(), detect),
            Series::new("P(SYN | unrelated)", x.clone(), fpr),
            Series::new("mean |offset error| of detections (m)", x, offset_err),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_windows_detect_related_and_reject_unrelated() {
        let fig = run(&quick_params());
        let detect = &fig.series[0];
        let fpr = &fig.series[1];
        // At the full 85 m window, detection is high and false positives
        // are rare.
        let last = detect.y.len() - 1;
        assert!(
            detect.y[last] > 0.8,
            "detection at 85 m: {}",
            detect.y[last]
        );
        assert!(fpr.y[last] < 0.25, "FPR at 85 m: {}", fpr.y[last]);
        // Shrinking the window may cost accuracy but detection must not
        // collapse (the §V-C claim).
        assert!(detect.y[0] > 0.5, "detection at 10 m: {}", detect.y[0]);
        // False positives rise (or stay flat) as the window shrinks.
        assert!(fpr.y[0] >= fpr.y[last] - 0.05);
    }
}
