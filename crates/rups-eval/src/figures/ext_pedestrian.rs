//! Extension experiment: RUPS for pedestrians (§VII future work).
//!
//! "Another interesting direction is to extend RUPS to users of mobile
//! devices such as pedestrians and bicyclists." The physics favour slow
//! movers: at walking pace a *single* GSM radio sweeps the whole band
//! within one metre of travel, so the missing-channel problem that forces
//! cars to carry four radios (Fig. 9) disappears. This experiment runs the
//! same single-radio tracked-pair workload at car, bicycle and pedestrian
//! speeds and reports trajectory coverage and accuracy.

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times, summarize_rde};
use crate::series::{Figure, Series};
use crate::tracegen::{generate, Mobility, TraceConfig};
use urban_sim::road::RoadClass;

/// Road setting: a sidewalk along a 4-lane urban street.
const ROAD: RoadClass = RoadClass::Urban4Lane;

/// One mobility variant: (coverage, error samples, answer rate).
fn run_variant(s: &EvalScale, mobility: Mobility) -> (f64, Vec<f64>, f64) {
    let mut coverage_sum = 0.0;
    let mut all = Vec::new();
    let seeds = s.trace_seeds(0xFED);
    for &seed in &seeds {
        let trace = generate(&TraceConfig {
            n_channels: s.n_channels,
            scanned_channels: s.scanned_channels,
            route_len_m: s.route_len_m(),
            duration_s: s.duration_s,
            // The minimum hardware a phone gives you: one radio.
            leader_radios: 1,
            follower_radios: 1,
            initial_gap_m: 20.0,
            // Pedestrians do not suffer car-body occlusion.
            occlusion_rate_per_min: if mobility == Mobility::Vehicle {
                0.6
            } else {
                0.1
            },
            mobility,
            ..TraceConfig::new(seed, ROAD)
        });
        coverage_sum += trace.follower.gsm.coverage();
        let times = sample_query_times(&trace, s.queries_per_seed(), s.seed ^ 0xFE1);
        all.extend(run_queries(&trace, &s.rups_config(), &times));
    }
    let (_, rate) = summarize_rde(&all);
    let errs: Vec<f64> = all.into_iter().filter_map(|o| o.rde_m).collect();
    (coverage_sum / seeds.len() as f64, errs, rate)
}

/// Runs the experiment.
pub fn run(s: &EvalScale) -> Figure {
    let variants = [
        (Mobility::Vehicle, "car"),
        (Mobility::Bicycle, "bicycle"),
        (Mobility::Pedestrian, "pedestrian"),
    ];
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (mobility, label) in variants {
        let (coverage, errs, rate) = run_variant(s, mobility);
        let mean = if errs.is_empty() {
            f64::NAN
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        notes.push(format!(
            "{label:<10} (1 radio): coverage {:.0}%, mean RDE {mean:.1} m, answer rate {rate:.2}",
            coverage * 100.0
        ));
        series.push(Series::cdf(format!("{label}, 1 radio"), errs));
    }
    notes.push(
        "slow movers sweep the band within a metre of travel, so one radio \
         suffices — RUPS ports to pedestrians with *less* hardware than cars"
            .into(),
    );
    Figure {
        id: "ext-pedestrian".into(),
        title: "RUPS at walking and cycling speeds, single radio (§VII)".into(),
        notes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_movers_get_better_coverage() {
        let s = EvalScale::quick();
        let (cov_car, _, _) = run_variant(&s, Mobility::Vehicle);
        let (cov_ped, errs_ped, rate_ped) = run_variant(&s, Mobility::Pedestrian);
        assert!(
            cov_ped > cov_car * 2.0,
            "pedestrian coverage {cov_ped:.2} vs car {cov_car:.2}"
        );
        assert!(rate_ped > 0.5, "pedestrian answer rate {rate_ped}");
        if !errs_ped.is_empty() {
            let mean = errs_ped.iter().sum::<f64>() / errs_ped.len() as f64;
            assert!(mean < 10.0, "pedestrian mean RDE {mean:.1}");
        }
    }
}
