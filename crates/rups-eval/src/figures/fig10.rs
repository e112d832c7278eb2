//! Fig. 10: relative-distance error with one vs multiple SYN points under
//! passing-vehicle disturbances (§VI-C).
//!
//! On an 8-lane urban road (heavy passing traffic ⇒ frequent occlusion
//! events), the original single-SYN RUPS leaves a heavy error tail —
//! "about one quarter of errors are larger than ten meters … most large
//! errors occur when there is a big vehicle passing by". Aggregating five
//! SYN points fixes it, the *selective average* (drop min and max) most of
//! all. We run the queries once and re-aggregate the same per-SYN estimates
//! under each scheme, exactly comparable.

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times, QueryOutcome};
use crate::series::{Figure, Series};
use crate::tracegen::{generate, TraceConfig};
use rups_core::config::AggregationScheme;
use urban_sim::road::RoadClass;

/// Occlusion events per minute (heavy, as on the 8-lane road).
const OCCLUSION_RATE_PER_MIN: f64 = 2.5;

/// Re-aggregates an outcome's per-SYN estimates under `scheme` and returns
/// the resulting |error|.
fn rde_under(outcome: &QueryOutcome, scheme: AggregationScheme) -> Option<f64> {
    let fix = outcome.fix.as_ref()?;
    let est = scheme.aggregate(&fix.estimates_m)?;
    Some((est - outcome.truth_m).abs())
}

/// Runs the experiment.
pub fn run(s: &EvalScale) -> Figure {
    let rups_cfg = s.rups_config();
    let mut outcomes = Vec::new();
    let mut n_occlusions = 0usize;
    for seed in s.trace_seeds(0xF10) {
        let trace = generate(&TraceConfig {
            n_channels: s.n_channels,
            scanned_channels: s.scanned_channels,
            route_len_m: s.route_len_m(),
            duration_s: s.duration_s,
            occlusion_rate_per_min: OCCLUSION_RATE_PER_MIN,
            ..TraceConfig::new(seed, RoadClass::Urban8Lane)
        });
        let times = sample_query_times(&trace, s.queries_per_seed(), s.seed ^ 0xA10);
        outcomes.extend(run_queries(&trace, &rups_cfg, &times));
        n_occlusions += trace.occlusions.len();
    }

    let schemes = [
        (AggregationScheme::Single, "one SYN point (original RUPS)"),
        (
            AggregationScheme::SimpleAverage,
            "5 SYN points, simple average",
        ),
        (
            AggregationScheme::SelectiveAverage,
            "5 SYN points, selective average",
        ),
    ];
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (scheme, label) in schemes {
        let errs: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| rde_under(o, scheme))
            .collect();
        let cdf = Series::cdf(label, errs);
        if !cdf.x.is_empty() {
            notes.push(format!(
                "{label}: {:.0}% of errors above 10 m, median {:.1} m",
                100.0 * (1.0 - cdf.cdf_at(10.0)),
                cdf.percentile(50.0)
            ));
        }
        series.push(cdf);
    }
    notes.push(format!(
        "{n_occlusions} occlusion events across the drives (paper: big passing vehicles \
         cause the tail)"
    ));
    Figure {
        id: "fig10".into(),
        title: "CDFs of RDE derived with one and multiple SYN points".into(),
        notes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_improves_the_tail() {
        let fig = run(&EvalScale::quick());
        assert_eq!(fig.series.len(), 3);
        let single = &fig.series[0];
        let selective = &fig.series[2];
        assert!(!single.x.is_empty());
        // Selective average should not be worse than single-SYN at the
        // 10 m mark (it is strictly better at paper scale).
        assert!(
            selective.cdf_at(10.0) >= single.cdf_at(10.0) - 0.1,
            "selective {} vs single {}",
            selective.cdf_at(10.0),
            single.cdf_at(10.0)
        );
    }

    #[test]
    fn occlusions_present_in_trace() {
        let fig = run(&EvalScale::quick());
        let note = fig.notes.last().unwrap();
        let n: usize = note.split_whitespace().next().unwrap().parse().unwrap();
        assert!(n > 0, "expected occlusion events, note: {note}");
    }
}
