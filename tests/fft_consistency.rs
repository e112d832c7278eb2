//! The engine's FFT kernel must agree with the reference search on *real*
//! trace contexts.
//!
//! The engine takes the FFT kernel only when the whole own context is
//! finite, and interpolated trace contexts still carry all-NaN rows for
//! channels the scanner never heard. Those rows are set to a constant floor
//! before comparing, so the comparison exercises the FFT kernel rather than
//! its reference fallback; each test asserts that FFT passes ran.

use rups::core::config::RupsConfig;
use rups::core::engine::{Kernel, SynQueryEngine};
use rups::core::gsm::GsmTrajectory;
use rups::core::syn::{find_best_syn, find_syn_points};
use rups::eval::queries::sample_query_times;
use rups::eval::tracegen::{generate, TraceConfig};
use rups::urban::road::RoadClass;

/// RSSI written into never-heard cells, below any channel the scanner hears.
const FLOOR_DBM: f32 = -120.0;

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: 64,
        window_channels: 24,
        ..RupsConfig::default()
    }
}

/// `gsm` with every non-finite cell set to [`FLOOR_DBM`]. On an
/// interpolated context those are exactly the never-heard rows.
fn floored(gsm: &GsmTrajectory) -> GsmTrajectory {
    GsmTrajectory::from_rows(
        (0..gsm.n_channels())
            .map(|ch| {
                gsm.channel(ch)
                    .iter()
                    .map(|&v| if v.is_finite() { v } else { FLOOR_DBM })
                    .collect()
            })
            .collect(),
    )
}

fn engine_for(ours: &GsmTrajectory, c: &RupsConfig) -> SynQueryEngine {
    let engine = SynQueryEngine::new(c.clone());
    engine.set_context(ours);
    engine
}

#[test]
fn fft_agrees_with_reference_on_trace_contexts() {
    let trace = generate(&TraceConfig::quick(31, RoadClass::Urban4Lane));
    let c = cfg();
    let times = sample_query_times(&trace, 6, 4);
    let mut compared = 0;
    let mut fft_passes = 0;
    for &t in &times {
        let Some((ours, _)) = trace.follower.context_at(t, c.max_context_m, true, None) else {
            continue;
        };
        let Some((theirs, _)) = trace.leader.context_at(t, c.max_context_m, true, None) else {
            continue;
        };
        let (ours, theirs) = (floored(&ours.gsm), floored(&theirs.gsm));
        let engine = engine_for(&ours, &c);
        let reference = find_best_syn(&ours, &theirs, &c);
        let fft = engine
            .find_syn_points_with(&theirs, Kernel::Fft)
            .map(|points| points[0]);
        let stats = engine.stats();
        assert_eq!(stats.fft_fallbacks, 0, "t={t}: floored contexts are dense");
        fft_passes += stats.fft_passes;
        match (reference, fft) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.self_end, b.self_end, "t={t}");
                assert_eq!(a.other_end, b.other_end, "t={t}");
                assert!(
                    (a.score - b.score).abs() < 1e-6,
                    "t={t}: {} vs {}",
                    a.score,
                    b.score
                );
                compared += 1;
            }
            (Err(_), Err(_)) => {}
            other => panic!("definedness diverged at t={t}: {other:?}"),
        }
    }
    assert!(compared >= 3, "only {compared} successful comparisons");
    assert!(fft_passes > 0, "the FFT kernel never ran");
}

#[test]
fn multi_syn_fft_agrees_with_reference() {
    let trace = generate(&TraceConfig::quick(32, RoadClass::Urban8Lane));
    let c = cfg();
    let t = *sample_query_times(&trace, 3, 5)
        .last()
        .expect("query times");
    let (ours, _) = trace
        .follower
        .context_at(t, c.max_context_m, true, None)
        .unwrap();
    let (theirs, _) = trace
        .leader
        .context_at(t, c.max_context_m, true, None)
        .unwrap();
    let (ours, theirs) = (floored(&ours.gsm), floored(&theirs.gsm));
    let engine = engine_for(&ours, &c);
    let reference = find_syn_points(&ours, &theirs, &c);
    let fft = engine.find_syn_points_with(&theirs, Kernel::Fft);
    let stats = engine.stats();
    assert!(
        stats.fft_passes > 0 && stats.fft_fallbacks == 0,
        "the FFT kernel must run on floored contexts: {stats:?}"
    );
    match (reference, fft) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.self_end, y.self_end);
                assert_eq!(x.other_end, y.other_end);
            }
        }
        (Err(_), Err(_)) => {}
        other => panic!("definedness diverged: {other:?}"),
    }
}
