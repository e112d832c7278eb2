//! Extension experiment: query scalability under heavy traffic (§V-B, and
//! the abstract's claim that RUPS "scales well in the presence of heavy
//! traffic and frequent queries").
//!
//! An `n`-vehicle convoy; the rear vehicle fixes the distance to **every**
//! neighbour at each query instant. We measure the wall-clock cost of the
//! full neighbour sweep as the convoy grows and check that every resolved
//! gap stays correct — the cost should grow linearly in the neighbour count
//! (each neighbour is one independent SYN search) with no accuracy loss.

use crate::figures::EvalScale;
use crate::series::{Figure, Series};
use crate::tracegen::{generate_convoy, ConvoyTrace, TraceConfig};
use rups_core::resolve;
use rups_core::syn;
use urban_sim::road::RoadClass;

/// Convoy sizes to evaluate.
const CONVOY_SIZES: [usize; 3] = [2, 4, 8];
/// Query instants per convoy size.
const N_INSTANTS: usize = 10;

struct SweepOutcome {
    per_sweep_ms: f64,
    n_answered: usize,
    n_queries: usize,
    worst_err_m: f64,
}

/// Runs the rear vehicle's all-neighbour sweep at `n_instants` times.
fn sweep(
    trace: &ConvoyTrace,
    cfg: &rups_core::config::RupsConfig,
    n_instants: usize,
) -> SweepOutcome {
    let n = trace.vehicles.len();
    let rear = n - 1;
    let t0 = trace.config.duration_s * 0.5;
    let t1 = trace.config.duration_s - 5.0;
    let mut per_sweep = Vec::new();
    let mut answered = 0usize;
    let mut queries = 0usize;
    let mut worst: f64 = 0.0;
    for i in 0..n_instants {
        let t = t0 + (t1 - t0) * i as f64 / n_instants.max(1) as f64;
        let Some((ours, _)) =
            trace.vehicles[rear].context_at(t, cfg.max_context_m, true, Some(rear as u64))
        else {
            continue;
        };
        let snapshots: Vec<_> = (0..rear)
            .filter_map(|k| {
                trace.vehicles[k].context_at(t, cfg.max_context_m, true, Some(k as u64))
            })
            .collect();
        let started = std::time::Instant::now();
        for (k, (snap, _)) in snapshots.iter().enumerate() {
            queries += 1;
            if let Ok(points) = syn::find_syn_points(&ours.gsm, &snap.gsm, cfg) {
                if let Ok((d, _)) = resolve::aggregate_distance(
                    &points,
                    ours.gsm.len(),
                    snap.gsm.len(),
                    cfg.aggregation,
                ) {
                    answered += 1;
                    let truth = trace.truth_gap_between(k, rear, t);
                    worst = worst.max((d - truth).abs());
                }
            }
        }
        per_sweep.push(started.elapsed().as_secs_f64() * 1e3);
    }
    SweepOutcome {
        per_sweep_ms: per_sweep.iter().sum::<f64>() / per_sweep.len().max(1) as f64,
        n_answered: answered,
        n_queries: queries,
        worst_err_m: worst,
    }
}

/// Runs the experiment.
pub fn run(s: &EvalScale) -> Figure {
    sweep_convoys(s, &CONVOY_SIZES, N_INSTANTS)
}

fn sweep_convoys(s: &EvalScale, convoy_sizes: &[usize], n_instants: usize) -> Figure {
    let cfg = s.rups_config();
    let mut x = Vec::new();
    let mut time_y = Vec::new();
    let mut rate_y = Vec::new();
    let mut notes = Vec::new();
    for &n in convoy_sizes {
        let trace = generate_convoy(
            &TraceConfig {
                n_channels: s.n_channels,
                scanned_channels: s.scanned_channels,
                route_len_m: s.route_len_m(),
                duration_s: s.duration_s,
                initial_gap_m: 30.0,
                ..TraceConfig::new(s.seed ^ 0x5CA7, RoadClass::Urban8Lane)
            },
            n,
        );
        let out = sweep(&trace, &cfg, n_instants);
        x.push((n - 1) as f64);
        time_y.push(out.per_sweep_ms);
        let rate = out.n_answered as f64 / out.n_queries.max(1) as f64;
        rate_y.push(rate);
        notes.push(format!(
            "{} neighbours: {:.0} ms per sweep ({:.0} ms/neighbour), answer rate {rate:.2}, \
             worst |error| {:.1} m",
            n - 1,
            out.per_sweep_ms,
            out.per_sweep_ms / (n - 1) as f64,
            out.worst_err_m
        ));
    }
    if let (Some(&first), Some(&last)) = (time_y.first(), time_y.last()) {
        let n_ratio = x.last().unwrap() / x[0];
        notes.push(format!(
            "sweep cost grew {:.1}× for {n_ratio:.1}× neighbours — linear, as §V-B argues",
            last / first.max(1e-9)
        ));
    }
    Figure {
        id: "ext-scalability".into(),
        title: "Query cost vs neighbour count (heavy traffic, §V-B)".into(),
        notes,
        series: vec![
            Series::new(
                "ms per all-neighbour sweep vs neighbours",
                x.clone(),
                time_y,
            ),
            Series::new("answer rate vs neighbours", x, rate_y),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_scale_linearly_and_stay_correct() {
        let fig = sweep_convoys(&EvalScale::quick(), &[2, 4], 3);
        let time = &fig.series[0];
        let rates = &fig.series[1];
        assert_eq!(time.x, vec![1.0, 3.0]);
        // 3 neighbours should cost no more than ~5× one neighbour (linear
        // plus noise on a busy machine).
        assert!(
            time.y[1] < time.y[0] * 5.0 + 50.0,
            "superlinear sweep cost: {:?}",
            time.y
        );
        // Most neighbour queries succeed at quick scale.
        assert!(rates.y.iter().all(|&r| r > 0.4), "rates {:?}", rates.y);
        // Worst-case error stays bounded (notes carry it).
        for n in &fig.notes {
            if let Some(part) = n.split("worst |error| ").nth(1) {
                let v: f64 = part.trim_end_matches(" m").parse().unwrap();
                assert!(v < 30.0, "worst error {v}");
            }
        }
    }
}
