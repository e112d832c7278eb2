//! Fig. 12: RUPS vs GPS under four urban environments (§VI-D) — the
//! paper's headline result.
//!
//! CDFs of the relative-distance error for both schemes on 2-lane suburb,
//! 4-lane urban, 8-lane urban and under-elevated roads. Paper anchors:
//! RUPS means {3.4, 2.3, 4.2, 6.9} m vs GPS {4.2, 9.9, 9.8, 21.1} m —
//! RUPS roughly flat across environments, GPS collapsing under elevated
//! roads, overall advantage ≈2.7×.

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times, GpsBaseline};
use crate::series::{render_table, Figure, Series};
use crate::tracegen::{generate, TraceConfig};
use urban_sim::road::RoadClass;

/// Per-road labels in the paper's order.
pub const ROADS: [(&str, RoadClass); 4] = [
    ("2-lane roads, suburb", RoadClass::Suburban2Lane),
    ("4-lane roads, urban", RoadClass::Urban4Lane),
    ("8-lane roads, urban", RoadClass::Urban8Lane),
    ("under elevated roads", RoadClass::UnderElevated),
];

/// The per-road outcome: RUPS and GPS error samples.
pub struct RoadOutcome {
    /// RUPS |error| samples, metres.
    pub rups: Vec<f64>,
    /// GPS |error| samples, metres.
    pub gps: Vec<f64>,
}

/// Runs both schemes on one road setting.
pub fn run_road(scale: &EvalScale, road: RoadClass) -> RoadOutcome {
    let cfg = scale.rups_config();
    let mut rups = Vec::new();
    let mut gps = Vec::new();
    for seed in scale.trace_seeds(0xF12) {
        let trace = generate(&TraceConfig {
            n_channels: scale.n_channels,
            scanned_channels: scale.scanned_channels,
            route_len_m: scale.route_len_m(),
            duration_s: scale.duration_s,
            ..TraceConfig::new(seed, road)
        });
        let times = sample_query_times(&trace, scale.queries_per_seed(), scale.seed ^ 0xC12);
        let outcomes = run_queries(&trace, &cfg, &times);
        rups.extend(outcomes.iter().filter_map(|o| o.rde_m));
        let gps_rx = GpsBaseline::simulate(&trace, seed ^ 0xD12);
        gps.extend(times.iter().filter_map(|&t| gps_rx.rde_at(&trace, t)));
    }
    RoadOutcome { rups, gps }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs the experiment.
pub fn run(scale: &EvalScale) -> Figure {
    let mut series = Vec::new();
    let mut rows = Vec::new();
    let mut ratio_sum = 0.0;
    let mut ratio_n = 0usize;
    let paper_rups = [3.4, 2.3, 4.2, 6.9];
    let paper_gps = [4.2, 9.9, 9.8, 21.1];

    for (i, (label, road)) in ROADS.iter().enumerate() {
        let out = run_road(scale, *road);
        let m_rups = mean(&out.rups);
        let m_gps = mean(&out.gps);
        if m_rups.is_finite() && m_gps.is_finite() && m_rups > 0.0 {
            ratio_sum += m_gps / m_rups;
            ratio_n += 1;
        }
        rows.push(vec![
            label.to_string(),
            format!("{m_rups:.1}"),
            format!("{:.1}", paper_rups[i]),
            format!("{m_gps:.1}"),
            format!("{:.1}", paper_gps[i]),
        ]);
        series.push(Series::cdf(format!("RUPS, {label}"), out.rups));
        series.push(Series::cdf(format!("GPS, {label}"), out.gps));
    }

    let table = render_table(
        &[
            "environment",
            "RUPS mean (m)",
            "paper",
            "GPS mean (m)",
            "paper",
        ],
        &rows,
    );
    let mut notes: Vec<String> = table.lines().map(str::to_owned).collect();
    if ratio_n > 0 {
        notes.push(format!(
            "GPS/RUPS mean-error ratio averaged over environments: {:.1}× (paper: 2.7×)",
            ratio_sum / ratio_n as f64
        ));
    }
    Figure {
        id: "fig12".into(),
        title: "Comparison with GPS under different urban environments".into(),
        notes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rups_beats_gps_where_gps_is_weak() {
        // The headline shape on the harshest setting: under elevated roads
        // GPS degrades far more than RUPS.
        let out = run_road(&EvalScale::quick(), RoadClass::UnderElevated);
        assert!(!out.rups.is_empty(), "RUPS returned no fixes");
        assert!(!out.gps.is_empty());
        let m_rups = mean(&out.rups);
        let m_gps = mean(&out.gps);
        assert!(
            m_gps > m_rups,
            "under elevated roads GPS ({m_gps:.1}) should be worse than RUPS ({m_rups:.1})"
        );
    }

    #[test]
    fn full_figure_structure() {
        let fig = run(&EvalScale::quick());
        assert_eq!(fig.series.len(), 8);
        assert!(fig.notes.iter().any(|n| n.contains("ratio")));
    }
}
