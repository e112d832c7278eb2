//! Extension experiment: multi-band fingerprint fusion (§VII future work).
//!
//! "We will further improve the accuracy of RUPS by involving other ambient
//! wireless signals such as the 3G/4G, FM and TV bands." We implement the
//! FM half: each vehicle adds one FM tuner and the FM carriers are fused as
//! extra rows of the GSM-aware trajectory. FM matters most **under elevated
//! roads**, where the deck mutes 900 MHz carriers but 100 MHz broadcast
//! signals slip through — the setting where plain RUPS is weakest (6.9 m in
//! the paper).

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times, summarize_rde};
use crate::series::{Figure, Series};
use crate::tracegen::{generate, TraceConfig};
use rups_core::config::RupsConfig;
use urban_sim::road::RoadClass;

/// Road setting: the hardest, under elevated roads.
const ROAD: RoadClass = RoadClass::UnderElevated;
/// FM channels fused in the multi-band variant.
const FM_CHANNELS: usize = 24;

/// Runs one variant and returns (per-query errors, answer rate).
fn run_variant(s: &EvalScale, fm_channels: usize) -> (Vec<f64>, f64) {
    let cfg = RupsConfig {
        n_channels: s.n_channels + fm_channels,
        ..s.rups_config()
    };
    let mut all = Vec::new();
    for seed in s.trace_seeds(0xFB) {
        let trace = generate(&TraceConfig {
            n_channels: s.n_channels,
            scanned_channels: s.scanned_channels,
            route_len_m: s.route_len_m(),
            duration_s: s.duration_s,
            fm_channels,
            ..TraceConfig::new(seed, ROAD)
        });
        let times = sample_query_times(&trace, s.queries_per_seed(), s.seed ^ 0xFB1);
        all.extend(run_queries(&trace, &cfg, &times));
    }
    let (_, rate) = summarize_rde(&all);
    (all.into_iter().filter_map(|o| o.rde_m).collect(), rate)
}

/// Runs the experiment.
pub fn run(s: &EvalScale) -> Figure {
    let (gsm_errs, gsm_rate) = run_variant(s, 0);
    let (multi_errs, multi_rate) = run_variant(s, FM_CHANNELS);

    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let m_gsm = mean(&gsm_errs);
    let m_multi = mean(&multi_errs);
    Figure {
        id: "ext-multiband".into(),
        title: format!("FM-band fusion on {ROAD} (§VII future work)"),
        notes: vec![
            format!("GSM only:      mean RDE {m_gsm:.1} m, answer rate {gsm_rate:.2}"),
            format!(
                "GSM + {FM_CHANNELS} FM ch: mean RDE {m_multi:.1} m, answer rate {multi_rate:.2}"
            ),
            "FM carriers penetrate under elevated decks and are temporally \
             rock-stable, shoring RUPS up exactly where GSM is weakest"
                .into(),
        ],
        series: vec![
            Series::cdf("GSM only", gsm_errs),
            Series::cdf(format!("GSM + {FM_CHANNELS} FM channels"), multi_errs),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm_fusion_does_not_hurt_under_elevated_roads() {
        let fig = run(&EvalScale::quick());
        assert_eq!(fig.series.len(), 2);
        let gsm = &fig.series[0];
        let multi = &fig.series[1];
        assert!(!multi.x.is_empty(), "multiband variant produced no fixes");
        // Fusion must not make the answer rate worse, and the median error
        // should be no worse than GSM-only plus noise margin.
        if !gsm.x.is_empty() {
            let med_gsm = gsm.percentile(50.0);
            let med_multi = multi.percentile(50.0);
            assert!(
                med_multi <= med_gsm + 2.0,
                "fusion degraded accuracy: {med_multi:.1} vs {med_gsm:.1}"
            );
        }
    }
}
