//! Fig. 11: average RDE and SYN-point error under dynamic environments and
//! radio configurations (§VI-C).
//!
//! A grid of environments (2-lane suburb, 4-lane urban, 8-lane urban same
//! lane, 8-lane urban distinct lanes) × radio configurations (1 front /
//! 1 front, 4 front / 4 front, 4 central / 4 front), each cell reporting
//! the mean error with a 95 % confidence interval, using the selective
//! average over five SYN points. Paper anchors: best accuracy with the
//! most, front-placed radios; errors below ≈4.5 m on average across road
//! settings; ≈10 m when the cars drive in different lanes.

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times};
use crate::series::{render_table, Figure, SampleStats, Series};
use crate::tracegen::{generate, TraceConfig};
use gsm_sim::RadioPlacement;
use serde::{Deserialize, Serialize};
use urban_sim::road::RoadClass;

/// The environment rows of the figure: (label, road, same lane?).
pub const ENVIRONMENTS: [(&str, RoadClass, bool); 4] = [
    ("2-lane, suburb", RoadClass::Suburban2Lane, true),
    ("4-lane, same lane", RoadClass::Urban4Lane, true),
    ("8-lane, same lane", RoadClass::Urban8Lane, true),
    ("8-lane, distinct lanes", RoadClass::Urban8Lane, false),
];

/// The radio configuration columns: (label, follower radios, follower
/// placement).
pub const CONFIGS: [(&str, usize, RadioPlacement); 3] = [
    ("1 front, 1 front", 1, RadioPlacement::FrontPanel),
    ("4 front, 4 front", 4, RadioPlacement::FrontPanel),
    ("4 central, 4 front", 4, RadioPlacement::Central),
];

/// One cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Mean and CI of the relative-distance error.
    pub rde: Option<SampleStats>,
    /// Mean and CI of the SYN-point error.
    pub syn: Option<SampleStats>,
}

/// Computes one grid cell.
pub fn run_cell(
    scale: &EvalScale,
    road: RoadClass,
    same_lane: bool,
    radios: usize,
    follower_placement: RadioPlacement,
) -> Cell {
    let cfg = scale.rups_config();
    let mut rde = Vec::new();
    let mut syn = Vec::new();
    for seed in scale.trace_seeds(0xF11) {
        let trace = generate(&TraceConfig {
            n_channels: scale.n_channels,
            scanned_channels: scale.scanned_channels,
            route_len_m: scale.route_len_m(),
            duration_s: scale.duration_s,
            leader_radios: radios,
            follower_radios: radios,
            follower_placement,
            leader_lane: 0,
            follower_lane: if same_lane {
                0
            } else {
                road.lanes().saturating_sub(1)
            },
            ..TraceConfig::new(seed, road)
        });
        let times = sample_query_times(&trace, scale.queries_per_seed(), scale.seed ^ 0xB11);
        let outcomes = run_queries(&trace, &cfg, &times);
        rde.extend(outcomes.iter().filter_map(|o| o.rde_m));
        syn.extend(outcomes.iter().flat_map(|o| o.syn_errors_m.clone()));
    }
    Cell {
        rde: SampleStats::of(&rde),
        syn: SampleStats::of(&syn),
    }
}

/// Runs the full grid.
pub fn run(scale: &EvalScale) -> Figure {
    let mut rows = Vec::new();
    let mut series: Vec<Series> = CONFIGS
        .iter()
        .map(|(label, _, _)| Series::new(format!("mean RDE (m), {label}"), vec![], vec![]))
        .collect();

    for (env_idx, (env_label, road, same_lane)) in ENVIRONMENTS.iter().enumerate() {
        for (cfg_idx, (cfg_label, radios, placement)) in CONFIGS.iter().enumerate() {
            let cell = run_cell(scale, *road, *same_lane, *radios, *placement);
            let fmt = |s: Option<SampleStats>| match s {
                Some(st) => format!("{:.1} ± {:.1}", st.mean, st.ci95),
                None => "—".into(),
            };
            rows.push(vec![
                env_label.to_string(),
                cfg_label.to_string(),
                fmt(cell.rde),
                fmt(cell.syn),
            ]);
            if let Some(st) = cell.rde {
                series[cfg_idx].x.push(env_idx as f64);
                series[cfg_idx].y.push(st.mean);
            }
        }
    }

    let table = render_table(
        &[
            "environment",
            "radios",
            "RDE mean±CI (m)",
            "SYN mean±CI (m)",
        ],
        &rows,
    );
    let mut notes: Vec<String> = table.lines().map(str::to_owned).collect();
    notes.push(
        "paper: ≤4.5 m mean with 4 front radios over all same-lane settings; \
         ≈10 m on distinct lanes"
            .into(),
    );
    Figure {
        id: "fig11".into(),
        title: "Average RDE under dynamic environments and radio configurations".into(),
        notes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_produces_stats() {
        let scale = EvalScale::quick();
        let cell = run_cell(
            &scale,
            RoadClass::Urban4Lane,
            true,
            4,
            RadioPlacement::FrontPanel,
        );
        let rde = cell.rde.expect("some fixes at quick scale");
        assert!(rde.mean < 20.0, "mean RDE {}", rde.mean);
        assert!(rde.ci95 >= 0.0);
        let syn = cell.syn.expect("SYN points found");
        assert!(syn.mean < 25.0, "mean SYN error {}", syn.mean);
    }

    #[test]
    fn distinct_lanes_are_harder_than_same_lane() {
        let scale = EvalScale::quick();
        let same = run_cell(
            &scale,
            RoadClass::Urban8Lane,
            true,
            4,
            RadioPlacement::FrontPanel,
        );
        let diff = run_cell(
            &scale,
            RoadClass::Urban8Lane,
            false,
            4,
            RadioPlacement::FrontPanel,
        );
        if let (Some(s), Some(d)) = (same.syn, diff.syn) {
            assert!(
                d.mean >= s.mean - 2.0,
                "distinct lanes ({:.1}) should not beat same lane ({:.1}) by much",
                d.mean,
                s.mean
            );
        }
    }
}
