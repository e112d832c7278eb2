//! Query execution: ask RUPS (and GPS) for the gap at sampled times and
//! score the answers against ground truth.

use crate::tracegen::ScenarioTrace;
use gps_sim::{relative_distance_gps, GpsFix, GpsReceiver};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use rayon::prelude::*;
use rups_core::config::RupsConfig;
use rups_core::pipeline::DistanceFix;
use rups_core::syn;
use serde::{Deserialize, Serialize};

/// Outcome of one RUPS relative-distance query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Query time, seconds.
    pub t: f64,
    /// Ground-truth gap at the query time, metres.
    pub truth_m: f64,
    /// The fix, when RUPS found SYN points.
    pub fix: Option<DistanceFix>,
    /// Ground-truth position error of each found SYN point, metres
    /// (|true arc length at our window end − true arc length at theirs|).
    pub syn_errors_m: Vec<f64>,
    /// Relative distance error |estimate − truth|, when a fix exists.
    pub rde_m: Option<f64>,
}

/// Runs one RUPS query at time `t`: follower (rear car) asks for the gap to
/// the leader, exactly as in the paper's experiments.
pub fn query_at(trace: &ScenarioTrace, cfg: &RupsConfig, t: f64) -> QueryOutcome {
    let truth_m = trace.truth_gap_at(t);
    let miss = |syn_errors_m| QueryOutcome {
        t,
        truth_m,
        fix: None,
        syn_errors_m,
        rde_m: None,
    };
    let interp = cfg.interpolate_missing;
    let Some((ours, ours_true_s)) =
        trace
            .follower
            .context_at(t, cfg.max_context_m, interp, Some(2))
    else {
        return miss(vec![]);
    };
    let Some((theirs, theirs_true_s)) =
        trace
            .leader
            .context_at(t, cfg.max_context_m, interp, Some(1))
    else {
        return miss(vec![]);
    };
    let Ok(points) = syn::find_syn_points(&ours.gsm, &theirs.gsm, cfg) else {
        return miss(vec![]);
    };
    let syn_errors_m: Vec<f64> = points
        .iter()
        .map(|p| {
            let s_self = ours_true_s[p.self_end - 1];
            let s_other = theirs_true_s[p.other_end - 1];
            (s_self - s_other).abs()
        })
        .collect();
    let (ours_len, theirs_len) = (ours.gsm.len(), theirs.gsm.len());
    match DistanceFix::from_syn_points(points, ours_len, theirs_len, cfg.aggregation) {
        Ok(fix) => QueryOutcome {
            t,
            truth_m,
            rde_m: Some((fix.distance_m - truth_m).abs()),
            fix: Some(fix),
            syn_errors_m,
        },
        Err(_) => miss(syn_errors_m),
    }
}

/// Samples `n` query times at which both vehicles are moving and enough
/// context has accumulated (the paper randomly selects 500–1000 points on
/// the first car's trajectory).
pub fn sample_query_times(trace: &ScenarioTrace, n: usize, seed: u64) -> Vec<f64> {
    // Skip the first quarter of the drive so contexts are warm.
    let t0 = trace.config.duration_s * 0.25;
    let t1 = trace.config.duration_s - 5.0;
    let mut candidates = trace.scenario.moving_times(t0, t1, 0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    candidates.shuffle(&mut rng);
    candidates.truncate(n);
    candidates.sort_by(|a, b| a.total_cmp(b));
    candidates
}

/// Runs many queries across the rayon pool.
pub fn run_queries(trace: &ScenarioTrace, cfg: &RupsConfig, times: &[f64]) -> Vec<QueryOutcome> {
    times.par_iter().map(|&t| query_at(trace, cfg, t)).collect()
}

/// GPS baseline: 1 Hz fixes for both vehicles over the whole drive, then
/// gap estimates at the query times using the latest fix at or before each
/// query (stale fixes persist through outages, as a real tracker would).
pub struct GpsBaseline {
    leader_fixes: Vec<Option<GpsFix>>,
    follower_fixes: Vec<Option<GpsFix>>,
}

impl GpsBaseline {
    /// Simulates both receivers along the trace.
    pub fn simulate(trace: &ScenarioTrace, seed: u64) -> GpsBaseline {
        let n = trace.config.duration_s.ceil() as usize;
        let mut rx_l = GpsReceiver::new(trace.config.road, seed ^ 0x6751);
        let mut rx_f = GpsReceiver::new(trace.config.road, seed ^ 0x6752);
        let mut leader_fixes = Vec::with_capacity(n);
        let mut follower_fixes = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64;
            let pl = trace.scenario.leader.pos_at_time(
                &trace.route,
                t,
                trace.scenario.leader_lane_offset_m,
            );
            let pf = trace.scenario.follower.pos_at_time(
                &trace.route,
                t,
                trace.scenario.follower_lane_offset_m,
            );
            leader_fixes.push(rx_l.fix(t, pl));
            follower_fixes.push(rx_f.fix(t, pf));
        }
        GpsBaseline {
            leader_fixes,
            follower_fixes,
        }
    }

    fn latest(fixes: &[Option<GpsFix>], t: f64) -> Option<GpsFix> {
        let idx = (t.floor() as usize).min(fixes.len().saturating_sub(1));
        (0..=idx).rev().find_map(|i| fixes[i])
    }

    /// The GPS gap estimate at time `t`, or `None` when either receiver has
    /// never had a fix.
    pub fn gap_at(&self, trace: &ScenarioTrace, t: f64) -> Option<f64> {
        let fl = Self::latest(&self.leader_fixes, t)?;
        let ff = Self::latest(&self.follower_fixes, t)?;
        let heading = trace.route.heading_at(trace.scenario.leader.distance_at(t));
        Some(relative_distance_gps(&fl, &ff, heading))
    }

    /// |GPS gap − truth| at time `t`.
    pub fn rde_at(&self, trace: &ScenarioTrace, t: f64) -> Option<f64> {
        let est = self.gap_at(trace, t)?;
        Some((est - trace.truth_gap_at(t)).abs())
    }
}

/// Convenience: mean of the non-None RDEs of a set of outcomes plus the
/// answer rate.
pub fn summarize_rde(outcomes: &[QueryOutcome]) -> (Option<f64>, f64) {
    let errs: Vec<f64> = outcomes.iter().filter_map(|o| o.rde_m).collect();
    let rate = errs.len() as f64 / outcomes.len().max(1) as f64;
    let mean = (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64);
    (mean, rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracegen::{generate, TraceConfig};
    use urban_sim::road::RoadClass;

    fn quick_cfg() -> RupsConfig {
        RupsConfig {
            n_channels: 64,
            window_channels: 32,
            max_context_m: 600,
            ..RupsConfig::default()
        }
    }

    #[test]
    fn rups_beats_random_guessing_on_quick_trace() {
        let trace = generate(&TraceConfig::quick(5, RoadClass::Urban4Lane));
        let cfg = quick_cfg();
        let times = sample_query_times(&trace, 20, 9);
        assert!(!times.is_empty());
        let outcomes = run_queries(&trace, &cfg, &times);
        let (mean, rate) = summarize_rde(&outcomes);
        assert!(rate > 0.5, "answer rate {rate}");
        let mean = mean.expect("some fixes");
        assert!(mean < 15.0, "mean RDE {mean} m");
        // SYN errors are tracked per point.
        let with_fix = outcomes.iter().find(|o| o.fix.is_some()).unwrap();
        assert_eq!(
            with_fix.syn_errors_m.len(),
            with_fix.fix.as_ref().unwrap().syn_points.len()
        );
    }

    #[test]
    fn query_before_context_returns_no_fix() {
        let trace = generate(&TraceConfig::quick(6, RoadClass::Urban4Lane));
        let cfg = quick_cfg();
        let out = query_at(&trace, &cfg, 0.0);
        assert!(out.fix.is_none());
        assert!(out.rde_m.is_none());
    }

    #[test]
    fn sample_times_are_sorted_moving_and_bounded() {
        let trace = generate(&TraceConfig::quick(7, RoadClass::Urban4Lane));
        let times = sample_query_times(&trace, 15, 3);
        assert!(times.len() <= 15);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        for &t in &times {
            assert!(t >= trace.config.duration_s * 0.25);
            assert!(trace.scenario.leader.speed_at(t) > 1.0);
        }
        // Deterministic.
        assert_eq!(times, sample_query_times(&trace, 15, 3));
    }

    #[test]
    fn gps_baseline_produces_reasonable_errors() {
        let trace = generate(&TraceConfig::quick(8, RoadClass::Urban4Lane));
        let gps = GpsBaseline::simulate(&trace, 4);
        let times = sample_query_times(&trace, 25, 5);
        let errs: Vec<f64> = times
            .iter()
            .filter_map(|&t| gps.rde_at(&trace, t))
            .collect();
        assert!(!errs.is_empty());
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean > 1.0 && mean < 40.0, "GPS mean RDE {mean}");
    }

    #[test]
    fn parallel_queries_match_sequential() {
        let trace = generate(&TraceConfig::quick(9, RoadClass::Urban4Lane));
        let cfg = quick_cfg();
        let times = sample_query_times(&trace, 6, 1);
        let par = run_queries(&trace, &cfg, &times);
        let seq: Vec<QueryOutcome> = times.iter().map(|&t| query_at(&trace, &cfg, t)).collect();
        assert_eq!(par, seq);
    }
}
