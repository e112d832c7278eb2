//! Accuracy ablations of the RUPS design choices (DESIGN.md §5).
//!
//! The `rups-bench` crate measures what each knob *costs*; these experiments
//! measure what each knob *buys*, on a common trace:
//!
//! * [`window_length`] — checking-window length sweep (§V-A fixes 85–100 m;
//!   shorter windows are cheaper and respond faster after turns, §V-C).
//! * [`channel_count`] — window width sweep (the paper picks the top 45
//!   channels of 115 scanned; how few suffice?).
//! * [`interpolation`] — missing-channel interpolation on/off (§IV-C) at 1
//!   and 4 radios; the off-variant matches on raw NaN-holed contexts.

use crate::figures::EvalScale;
use crate::queries::{run_queries, sample_query_times, summarize_rde};
use crate::series::{render_table, Figure, Series};
use crate::tracegen::{generate, ScenarioTrace, TraceConfig};
use rups_core::config::RupsConfig;
use urban_sim::road::RoadClass;

/// Road setting of every ablation.
const ROAD: RoadClass = RoadClass::Urban4Lane;

fn base_trace(s: &EvalScale, radios: usize) -> ScenarioTrace {
    generate(&TraceConfig {
        n_channels: s.n_channels,
        scanned_channels: s.scanned_channels,
        route_len_m: s.route_len_m(),
        duration_s: s.duration_s,
        leader_radios: radios,
        follower_radios: radios,
        ..TraceConfig::new(s.seed ^ 0xAB1A, ROAD)
    })
}

fn mean_and_rate(trace: &ScenarioTrace, cfg: &RupsConfig, scale: &EvalScale) -> (Option<f64>, f64) {
    let times = sample_query_times(trace, scale.n_queries, scale.seed ^ 0xAB1B);
    let outcomes = run_queries(trace, cfg, &times);
    summarize_rde(&outcomes)
}

/// Window-length accuracy sweep.
pub fn window_length(s: &EvalScale) -> Figure {
    let trace = base_trace(s, 4);
    let mut x = Vec::new();
    let mut mean_y = Vec::new();
    let mut rate_y = Vec::new();
    for w in [25usize, 45, 65, 85, 120] {
        let cfg = RupsConfig {
            window_len_m: w,
            ..s.rups_config()
        };
        let (mean, rate) = mean_and_rate(&trace, &cfg, s);
        x.push(w as f64);
        mean_y.push(mean.unwrap_or(f64::NAN));
        rate_y.push(rate);
    }
    let best = x
        .iter()
        .zip(&mean_y)
        .filter(|(_, m)| m.is_finite())
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(w, m)| format!("best mean RDE at w = {w} m: {m:.1} m"))
        .unwrap_or_else(|| "no fixes".into());
    Figure {
        id: "abl-window".into(),
        title: "Ablation: checking-window length vs accuracy".into(),
        notes: vec![best, "paper operating point: 85 m (§VI-B)".into()],
        series: vec![
            Series::new("mean RDE (m) vs window (m)", x.clone(), mean_y),
            Series::new("answer rate vs window (m)", x, rate_y),
        ],
    }
}

/// Window-width (channel count) accuracy sweep.
pub fn channel_count(s: &EvalScale) -> Figure {
    let trace = base_trace(s, 4);
    let mut x = Vec::new();
    let mut mean_y = Vec::new();
    let mut rate_y = Vec::new();
    let max_k = s.n_channels;
    for k in [6usize, 12, 24, 45, 90] {
        if k > max_k {
            break;
        }
        let cfg = RupsConfig {
            window_channels: k,
            ..s.rups_config()
        };
        let (mean, rate) = mean_and_rate(&trace, &cfg, s);
        x.push(k as f64);
        mean_y.push(mean.unwrap_or(f64::NAN));
        rate_y.push(rate);
    }
    Figure {
        id: "abl-channels".into(),
        title: "Ablation: checking-window width (top-k channels) vs accuracy".into(),
        notes: vec![format!(
            "rates across k: {:?} (paper picks the top 45 of 115 scanned)",
            x.iter()
                .zip(&rate_y)
                .map(|(k, r)| format!("k={k}: {r:.2}"))
                .collect::<Vec<_>>()
        )],
        series: vec![
            Series::new("mean RDE (m) vs channels", x.clone(), mean_y),
            Series::new("answer rate vs channels", x, rate_y),
        ],
    }
}

/// Missing-channel interpolation on/off, at 1 and 4 radios.
pub fn interpolation(s: &EvalScale) -> Figure {
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for radios in [1usize, 4] {
        let trace = base_trace(s, radios);
        for interp in [true, false] {
            let cfg = RupsConfig {
                interpolate_missing: interp,
                ..s.rups_config()
            };
            let (mean, rate) = mean_and_rate(&trace, &cfg, s);
            rows.push(vec![
                format!("{radios} radio(s)"),
                if interp { "interpolated" } else { "raw NaN" }.to_string(),
                mean.map_or("—".into(), |m| format!("{m:.1}")),
                format!("{rate:.2}"),
            ]);
            series.push(Series::new(
                format!("{radios} radios, interp={interp}: (rate, mean RDE)"),
                vec![rate],
                vec![mean.unwrap_or(f64::NAN)],
            ));
        }
    }
    let table = render_table(
        &["radios", "missing channels", "mean RDE (m)", "answer rate"],
        &rows,
    );
    let mut notes: Vec<String> = table.lines().map(str::to_owned).collect();
    notes.push("§IV-C: interpolation matters most when sweeps are slow (few radios)".into());
    Figure {
        id: "abl-interp".into(),
        title: "Ablation: missing-channel interpolation (§IV-C)".into(),
        notes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sweep_produces_monotone_axes() {
        let fig = window_length(&EvalScale::quick());
        assert_eq!(fig.series.len(), 2);
        assert!(fig.series[0].x.windows(2).all(|w| w[0] < w[1]));
        // At least one window length answers queries at quick scale.
        assert!(fig.series[1].y.iter().any(|&r| r > 0.0));
    }

    #[test]
    fn wider_windows_do_not_destroy_answer_rates() {
        let fig = channel_count(&EvalScale::quick());
        let rates = &fig.series[1].y;
        assert!(!rates.is_empty());
        let last = *rates.last().unwrap();
        assert!(last > 0.3, "rate at max k: {last}");
    }

    #[test]
    fn interpolation_helps_single_radio_answer_rate() {
        let fig = interpolation(&EvalScale::quick());
        // Rows: (1, on), (1, off), (4, on), (4, off); series carry (rate, mean).
        let rate = |i: usize| fig.series[i].x[0];
        assert!(
            rate(0) >= rate(1) - 0.1,
            "1 radio: interpolation on ({}) should not lose to off ({})",
            rate(0),
            rate(1)
        );
    }
}
