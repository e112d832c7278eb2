//! The engine's bounded score loop must answer the stand-alone search of
//! record bit for bit on trace-driven rows, not only on the synthetic test
//! field.
//!
//! On the test field almost every placement is dropped after about one
//! channel. On generated drives the shadowing is smooth, so off-peak
//! placements keep high per-channel Pearsons and many channels stay alive:
//! the loop's other regime. Interpolated trace contexts keep all-NaN rows
//! for the channels the scanner never heard, so the engine runs the
//! reference kernel on them.

use rups::core::config::RupsConfig;
use rups::core::engine::{Kernel, SynQueryEngine};
use rups::core::error::RupsError;
use rups::core::gsm::GsmTrajectory;
use rups::core::syn::{find_syn_points, SynPoint};
use rups::eval::queries::sample_query_times;
use rups::eval::tracegen::{generate, TraceConfig, VehicleTrace};
use rups::urban::road::RoadClass;

/// The paper's search on the quick trace's 64-channel band, over 400 m
/// contexts, so that a drive holds several stretches of road that do not
/// overlap.
fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: 64,
        window_channels: 24,
        max_context_m: 400,
        ..RupsConfig::default()
    }
}

/// A search's answer with every score as bits: its SYN points, or the
/// best score and threshold of a miss.
type Answer = Result<Vec<(usize, usize, u64, u64, usize)>, (u64, u64)>;

fn bits(answer: Result<Vec<SynPoint>, RupsError>) -> Answer {
    match answer {
        Ok(points) => Ok(points
            .iter()
            .map(|p| {
                let (score, refine) = (p.score.to_bits(), p.refine_m.to_bits());
                (p.self_end, p.other_end, score, refine, p.window_len)
            })
            .collect()),
        Err(RupsError::NoSynPoint {
            best_score,
            threshold,
        }) => Err((best_score.to_bits(), threshold.to_bits())),
        Err(other) => panic!("{other}"),
    }
}

fn never_heard_rows(gsm: &GsmTrajectory) -> usize {
    (0..gsm.n_channels())
        .filter(|&ch| gsm.channel(ch).iter().all(|v| v.is_nan()))
        .count()
}

/// The interpolated context `v` holds at time `t`.
fn context(v: &VehicleTrace, t: f64, c: &RupsConfig) -> Option<GsmTrajectory> {
    let (snap, _) = v.context_at(t, c.max_context_m, true, None)?;
    Some(snap.gsm)
}

#[test]
fn reference_engine_is_find_syn_points_bit_for_bit_on_trace_rows() {
    let drive = generate(&TraceConfig::quick(20160523, RoadClass::Urban4Lane));
    let unrelated = generate(&TraceConfig::quick(
        20160523 ^ 0x5EED,
        RoadClass::Urban4Lane,
    ));
    let c = cfg();
    let (mut hits, mut misses) = (0, 0);
    for t in sample_query_times(&drive, 6, 9) {
        let Some(ours) = context(&drive.follower, t, &c) else {
            continue;
        };
        assert!(
            never_heard_rows(&ours) > 0,
            "t={t}: never-heard rows stay NaN"
        );
        // The leader now, the leader when we were two context lengths back
        // (its context ends on road ours does not reach), and the leader of
        // an unrelated drive.
        let end = drive.follower.marks.partition_point(|m| m.t <= t);
        let earlier = drive.follower.marks[end.saturating_sub(2 * c.max_context_m)].t;
        let engine = SynQueryEngine::new(c.clone());
        engine.set_context(&ours);
        let neighbours = [
            (&drive, t, true),
            (&drive, earlier, false),
            (&unrelated, t, false),
        ];
        for (trace, at, related) in neighbours {
            let Some(theirs) = context(&trace.leader, at, &c) else {
                continue;
            };
            let expect = bits(find_syn_points(&ours, &theirs, &c));
            let before = engine.stats();
            let got = bits(engine.find_syn_points_with(&theirs, Kernel::Reference));
            assert_eq!(got, expect, "t={t}, leader at {at}");
            // Both drives' scanners hear the same channels, so the loop,
            // not the recompute scan, answers a miss on one drive.
            if std::ptr::eq(trace, &drive) {
                let d = engine.stats().delta(&before);
                assert!(d.pruned_placements > 0, "t={t}, leader at {at}: {d:?}");
            }
            match expect {
                Ok(_) if related => hits += 1,
                Err(_) if !related => misses += 1,
                other => panic!("t={t}, leader at {at}: {other:?}"),
            }
        }
        let s = engine.stats();
        assert_eq!((s.fft_passes, s.fft_fallbacks), (0, 0), "t={t}: {s:?}");
        assert!(s.pruned_placements > 0, "t={t}: {s:?}");
    }
    assert!(hits >= 4 && misses >= 8, "{hits} hits, {misses} misses");
}
