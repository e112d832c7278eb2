//! §V-A: computational cost of the SYN-point search.
//!
//! The paper bounds the search by `O(mwk)` (context length × window length
//! × window width) and measures ≈1.2 ms for a 1000 m context with a
//! 45-channel × 100 m window on an i7-2640M. We time the same search on
//! this machine across a small parameter grid and verify the linear
//! scaling in each parameter empirically: the stand-alone search of record
//! (`syn::find_best_syn`, every placement scored), and the production
//! search every fix runs — a warm `SynQueryEngine` answering the same two
//! passes on its rolling kernel, forced because these shapes would
//! otherwise pick the FFT kernel. Each point is the median of single timed
//! calls after one warm-up call.

use crate::series::{Figure, Series};
use rups_core::config::RupsConfig;
use rups_core::engine::{Kernel, SynQueryEngine};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::stats::median;
use rups_core::syn::find_best_syn;
use rups_core::testfield;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters of the §V-A cost measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Context lengths `m` to sweep, metres.
    pub context_lens_m: Vec<usize>,
    /// Window length `w`, metres (paper quotes 100 here).
    pub window_len_m: usize,
    /// Window width `k`, channels (paper: 45).
    pub window_channels: usize,
    /// Band width the contexts carry.
    pub n_channels: usize,
    /// Timed single calls per point; the point is their median.
    pub reps: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            context_lens_m: vec![250, 500, 1000, 2000],
            window_len_m: 100,
            window_channels: 45,
            n_channels: 194,
            reps: 51,
        }
    }
}

/// Smaller run for tests.
pub fn quick_params() -> Params {
    Params {
        context_lens_m: vec![100, 200],
        window_len_m: 40,
        window_channels: 16,
        n_channels: 32,
        reps: 1,
    }
}

/// Builds a synthetic journey context of `len` metres starting at road
/// metre `start`.
pub fn synthetic_context(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
    let mut t = GsmTrajectory::with_capacity(n_channels, len);
    for i in 0..len {
        let s = (start + i) as f64;
        t.push(&PowerVector::from_fn(n_channels, |ch| {
            Some(testfield::rssi(seed, s, ch))
        }));
    }
    t
}

/// The search of one grid point: its configuration, our `m`-metre context
/// and a neighbour's, `m / 3` metres ahead; and a warm engine holding our
/// context that runs one SYN segment, the two passes of `find_best_syn`.
fn search(p: &Params, m: usize) -> (RupsConfig, GsmTrajectory, GsmTrajectory, SynQueryEngine) {
    let cfg = RupsConfig {
        n_channels: p.n_channels,
        window_len_m: p.window_len_m.min(m / 2).max(10),
        window_channels: p.window_channels,
        max_context_m: m.max(1000),
        ..RupsConfig::default()
    };
    let a = synthetic_context(11, 0, m, p.n_channels);
    let b = synthetic_context(11, m / 3, m, p.n_channels);
    let engine = SynQueryEngine::new(RupsConfig {
        n_syn_points: 1,
        ..cfg.clone()
    });
    engine.set_context(&a);
    (cfg, a, b, engine)
}

/// Median wall time of `reps` single calls of `f` after one warm-up call,
/// in milliseconds.
fn median_call_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let calls_ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&calls_ms).expect("at least one timed call")
}

/// Runs the measurement.
pub fn run(p: &Params) -> Figure {
    let mut x = Vec::new();
    let mut y_ms = Vec::new();
    let mut engine_ms = Vec::new();
    for &m in &p.context_lens_m {
        let (cfg, a, b, engine) = search(p, m);
        x.push(m as f64);
        y_ms.push(median_call_ms(p.reps, || find_best_syn(&a, &b, &cfg)));
        engine_ms.push(median_call_ms(p.reps, || {
            engine.find_syn_points_with(&b, Kernel::Reference)
        }));
    }

    let mut notes = vec![format!(
        "double-sliding SYN search, window {} ch × {} m",
        p.window_channels, p.window_len_m
    )];
    if let (Some(&first), Some(&last)) = (y_ms.first(), y_ms.last()) {
        let m_ratio = *p.context_lens_m.last().unwrap() as f64 / p.context_lens_m[0] as f64;
        notes.push(format!(
            "time scales ≈linearly in m: {:.1}× time for {m_ratio:.1}× context",
            last / first.max(1e-9)
        ));
    }
    if let Some(i) = p.context_lens_m.iter().position(|&m| m == 1000) {
        notes.push(format!(
            "1000 m context: {:.2} ms per stand-alone search, {:.2} ms per engine search \
             (paper: ≈1.2 ms on an i7-2640M)",
            y_ms[i], engine_ms[i]
        ));
    }
    Figure {
        id: "sec5a".into(),
        title: "Computational cost of seeking a SYN point (O(mwk))".into(),
        notes,
        series: vec![
            Series::new("search time (ms) vs context length (m)", x.clone(), y_ms),
            Series::new(
                "engine search time (ms, warm, rolling kernel) vs context length (m)",
                x,
                engine_ms,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_with_context_length() {
        let fig = run(&quick_params());
        let s = &fig.series[0];
        assert_eq!(s.x.len(), 2);
        assert!(s.y.iter().all(|&ms| ms > 0.0));
        // 2× context should take > 1.2× time (linear-ish; ample slack for
        // timer noise in debug builds).
        assert!(s.y[1] > s.y[0] * 1.2, "times {:?}", s.y);
        let e = &fig.series[1];
        assert_eq!(e.x, s.x);
        assert!(e.y.iter().all(|&ms| ms > 0.0), "engine times {:?}", e.y);
    }

    #[test]
    fn both_searches_find_the_same_point() {
        let p = Params {
            context_lens_m: vec![100, 200, 1000],
            ..quick_params()
        };
        for &m in &p.context_lens_m {
            let (cfg, a, b, engine) = search(&p, m);
            let expect = find_best_syn(&a, &b, &cfg).unwrap();
            let got = engine.find_syn_points_with(&b, Kernel::Reference).unwrap();
            assert_eq!(got, vec![expect], "context {m} m");
        }
    }

    #[test]
    fn synthetic_context_shape() {
        let c = synthetic_context(1, 50, 80, 16);
        assert_eq!(c.len(), 80);
        assert_eq!(c.n_channels(), 16);
        assert!((c.coverage() - 1.0).abs() < 1e-12);
    }
}
