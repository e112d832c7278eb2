//! Fig. 9: SYN-point distance errors with varying numbers and positions of
//! GSM radios (§VI-B).
//!
//! Four configurations — 1, 2 and 4 front-panel radios per vehicle, plus
//! one car with 4 *central* radios — each produce a CDF of the ground-truth
//! error of every SYN point found. The paper's reading: more radios ⇒ fewer
//! missing channels ⇒ better SYN points, and placement matters (central
//! radios are visibly worse).

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times};
use crate::series::{Figure, Series};
use crate::tracegen::{generate, TraceConfig};
use gsm_sim::RadioPlacement;
use urban_sim::road::RoadClass;

/// Road setting of the experiment.
const ROAD: RoadClass = RoadClass::Urban4Lane;

/// The four radio configurations of §VI-B:
/// (label, follower radios, follower placement, leader radios, leader placement).
pub const CONFIGS: [(&str, usize, RadioPlacement, usize, RadioPlacement); 4] = [
    (
        "4 front radios, 4 front radios",
        4,
        RadioPlacement::FrontPanel,
        4,
        RadioPlacement::FrontPanel,
    ),
    (
        "4 central radios, 4 front radios",
        4,
        RadioPlacement::Central,
        4,
        RadioPlacement::FrontPanel,
    ),
    (
        "2 front radios, 2 front radios",
        2,
        RadioPlacement::FrontPanel,
        2,
        RadioPlacement::FrontPanel,
    ),
    (
        "1 front radio, 1 front radio",
        1,
        RadioPlacement::FrontPanel,
        1,
        RadioPlacement::FrontPanel,
    ),
];

/// Collects the SYN-error samples for one radio configuration.
fn syn_errors_for_config(
    s: &EvalScale,
    follower_radios: usize,
    follower_placement: RadioPlacement,
    leader_radios: usize,
    leader_placement: RadioPlacement,
) -> Vec<f64> {
    let rups_cfg = s.rups_config();
    let mut errs = Vec::new();
    for seed in s.trace_seeds(0xF09) {
        let trace = generate(&TraceConfig {
            n_channels: s.n_channels,
            scanned_channels: s.scanned_channels,
            route_len_m: s.route_len_m(),
            duration_s: s.duration_s,
            follower_radios,
            follower_placement,
            leader_radios,
            leader_placement,
            ..TraceConfig::new(seed, ROAD)
        });
        let times = sample_query_times(&trace, s.queries_per_seed(), s.seed ^ 0x919);
        errs.extend(
            run_queries(&trace, &rups_cfg, &times)
                .into_iter()
                .flat_map(|o| o.syn_errors_m),
        );
    }
    errs
}

/// Runs the experiment.
pub fn run(s: &EvalScale) -> Figure {
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (label, fr, fp, lr, lp) in CONFIGS {
        let errs = syn_errors_for_config(s, fr, fp, lr, lp);
        let cdf = Series::cdf(label, errs);
        if !cdf.x.is_empty() {
            notes.push(format!(
                "{label}: {} SYN points, {:.0}% below 10 m, median {:.1} m",
                cdf.x.len(),
                100.0 * cdf.cdf_at(10.0),
                cdf.percentile(50.0),
            ));
        } else {
            notes.push(format!("{label}: no SYN points found"));
        }
        series.push(cdf);
    }
    notes.push(
        "paper: more radios reduce SYN error; central placement clearly worse \
         (~75% under 10 m vs higher for front)"
            .into(),
    );
    Figure {
        id: "fig9".into(),
        title: "SYN point distance errors vs number and position of GSM radios".into(),
        notes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_count_and_placement_order_the_cdfs() {
        let fig = run(&EvalScale::quick());
        assert_eq!(fig.series.len(), 4);
        let frac10 = |i: usize| fig.series[i].cdf_at(10.0);
        // 4 front radios beat 1 front radio at the 10 m mark.
        assert!(
            frac10(0) >= frac10(3),
            "4 radios ({}) should beat 1 radio ({})",
            frac10(0),
            frac10(3)
        );
        // Central placement does not beat front placement.
        assert!(
            frac10(0) >= frac10(1) - 0.1,
            "front ({}) vs central ({})",
            frac10(0),
            frac10(1)
        );
        // Everyone finds at least some SYN points at quick scale.
        for s in &fig.series {
            assert!(!s.x.is_empty(), "{} found nothing", s.label);
        }
    }
}
