//! Continuous neighbour tracking (§V-B).
//!
//! A tracking application queries a neighbour's distance many times per
//! second; re-running the full double-sliding search each time is wasteful
//! ("one application may need to track a neighboring vehicle on every 0.1
//! second"). The paper's remedy: once a SYN point is established, later
//! queries only need to *verify and refine* it. [`NeighbourTracker`]
//! implements that: after the first full search it remembers the trajectory
//! shift implied by the SYN points and, on subsequent updates, re-checks
//! only the window placements within a small slack around the expected
//! shift — an `O(slack · w · k)` incremental query instead of the full
//! `O(mwk)` search. If the anchored check falls below the coherency
//! threshold (missed context, neighbour changed roads), the tracker
//! transparently falls back to a full search.

use crate::config::RupsConfig;
use crate::engine::SynQueryEngine;
use crate::error::RupsError;
use crate::gsm::GsmTrajectory;
use crate::resolve;
use crate::syn::{slide_scores_range, SynPoint};
use crate::window::CheckWindow;
use serde::{Deserialize, Serialize};

/// How a tracked fix was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackMode {
    /// Full double-sliding multi-SYN search (first query, or re-acquire).
    Full,
    /// Anchored incremental check around the previously known shift.
    Incremental,
}

/// A relative-distance fix produced by the tracker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackedFix {
    /// Relative distance, metres (positive = neighbour ahead).
    pub distance_m: f64,
    /// Peak trajectory correlation coefficient backing the fix.
    pub score: f64,
    /// Full or incremental path.
    pub mode: TrackMode,
}

/// Per-neighbour tracking state.
#[derive(Debug, Clone)]
pub struct NeighbourTracker {
    cfg: RupsConfig,
    /// Placement slack (± metres) for the anchored check.
    slack_m: usize,
    /// Last known shift: `self_end − other_end` of the best SYN point.
    shift: Option<i64>,
}

impl NeighbourTracker {
    /// A tracker with the given RUPS configuration and the default ±25 m
    /// anchored-search slack.
    pub fn new(cfg: RupsConfig) -> Self {
        Self {
            cfg,
            slack_m: 25,
            shift: None,
        }
    }

    /// Overrides the anchored-search slack.
    pub fn with_slack_m(mut self, slack_m: usize) -> Self {
        self.slack_m = slack_m.max(1);
        self
    }

    /// True once a SYN anchor is held.
    pub fn is_locked(&self) -> bool {
        self.shift.is_some()
    }

    /// Drops the anchor (forces the next update to run a full search).
    pub fn reset(&mut self) {
        self.shift = None;
    }

    /// Produces a fix against the neighbour context `theirs`, matched
    /// against the own context installed in `engine`.
    ///
    /// Runs the cheap anchored check when a shift is known, falling back to
    /// the engine's full multi-SYN search when unlocked or when the anchored
    /// check loses the neighbour, so re-acquisition reuses the engine's
    /// window memo and scratch pool.
    /// [`crate::pipeline::RupsNode::tracked_fix`] calls this.
    pub fn update(
        &mut self,
        engine: &SynQueryEngine,
        theirs: &GsmTrajectory,
    ) -> Result<TrackedFix, RupsError> {
        let ctx = engine.own_context()?;
        let ours = ctx.gsm();
        if let Some(shift) = self.shift {
            if let Some((fix, shift)) = self.incremental(ours, theirs, shift) {
                self.shift = Some(shift);
                return Ok(fix);
            }
        }
        let kernel = engine.kernel_for(&ctx, theirs.len());
        let points = engine.query(&ctx, theirs, kernel, None, &mut 0)?;
        let (distance_m, _) =
            resolve::aggregate_distance(&points, ours.len(), theirs.len(), self.cfg.aggregation)?;
        let best = points
            .iter()
            .map(|p| p.score)
            .fold(f64::NEG_INFINITY, f64::max);
        self.shift = Some(points[0].self_end as i64 - points[0].other_end as i64);
        Ok(TrackedFix {
            distance_m,
            score: best,
            mode: TrackMode::Full,
        })
    }

    /// Anchored check: slide only within ±slack of the expected placement.
    /// Returns the fix plus the refreshed shift, or `None` when the check
    /// fails (caller falls back to the full search).
    fn incremental(
        &self,
        ours: &GsmTrajectory,
        theirs: &GsmTrajectory,
        shift: i64,
    ) -> Option<(TrackedFix, i64)> {
        let window = CheckWindow::for_context(ours, &self.cfg)?;
        let w = window.len_m;
        if ours.len() < w || theirs.len() < w {
            return None;
        }
        // Expected placement of our most recent window on their trajectory:
        // other_end = self_end − shift, placement j = other_end − w.
        let expected_other_end = ours.len() as i64 - shift;
        let j_centre = expected_other_end - w as i64;
        let lo = (j_centre - self.slack_m as i64).max(0) as usize;
        let hi = (j_centre + self.slack_m as i64 + 1).max(0) as usize;
        if lo >= hi {
            return None;
        }
        let scores = slide_scores_range(ours, ours.len() - w, theirs, &window, lo..hi);
        // Local peak with parabolic refinement (same policy as the full
        // search but over the anchored range).
        let (best_i, best_score) = scores
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_nan())
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        if *best_score < window.threshold {
            return None;
        }
        let refine = if best_i > 0 && best_i + 1 < scores.len() {
            let (l, c, r) = (scores[best_i - 1], scores[best_i], scores[best_i + 1]);
            let denom = l - 2.0 * c + r;
            if l.is_nan() || r.is_nan() || denom.abs() < 1e-12 {
                0.0
            } else {
                (0.5 * (l - r) / denom).clamp(-0.5, 0.5)
            }
        } else {
            0.0
        };
        let p = SynPoint {
            self_end: ours.len(),
            other_end: lo + best_i + w,
            refine_m: refine,
            score: *best_score,
            window_len: w,
        };
        let distance_m = resolve::resolve_relative_distance(&p, ours.len(), theirs.len());
        let new_shift = p.self_end as i64 - p.other_end as i64;
        Some((
            TrackedFix {
                distance_m,
                score: p.score,
                mode: TrackMode::Incremental,
            },
            new_shift,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsm::PowerVector;
    use crate::testfield;

    fn traj(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
        let mut t = GsmTrajectory::with_capacity(n_channels, len);
        for i in 0..len {
            let s = (start + i) as f64;
            t.push(&PowerVector::from_fn(n_channels, |ch| {
                Some(testfield::rssi(seed, s, ch))
            }));
        }
        t
    }

    fn cfg() -> RupsConfig {
        RupsConfig {
            n_channels: 16,
            window_channels: 16,
            ..RupsConfig::default()
        }
    }

    /// An engine holding `ours` as the own context.
    fn engine(ours: &GsmTrajectory) -> SynQueryEngine {
        let engine = SynQueryEngine::new(cfg());
        engine.set_context(ours);
        engine
    }

    #[test]
    fn first_update_is_full_then_incremental() {
        let mut tracker = NeighbourTracker::new(cfg());
        assert!(!tracker.is_locked());
        let ours = traj(1, 0, 300, 16);
        let theirs = traj(1, 40, 300, 16);
        let f0 = tracker.update(&engine(&ours), &theirs).unwrap();
        assert_eq!(f0.mode, TrackMode::Full);
        assert!((f0.distance_m - 40.0).abs() < 1.0);
        assert!(tracker.is_locked());

        // Both vehicles advance 10 m: same shift, incremental path.
        let ours2 = traj(1, 10, 300, 16);
        let theirs2 = traj(1, 50, 300, 16);
        let f1 = tracker.update(&engine(&ours2), &theirs2).unwrap();
        assert_eq!(f1.mode, TrackMode::Incremental);
        assert!((f1.distance_m - 40.0).abs() < 1.0, "got {}", f1.distance_m);
    }

    #[test]
    fn tracker_follows_a_changing_gap() {
        let mut tracker = NeighbourTracker::new(cfg());
        let mut gap = 40i64;
        let ours = traj(2, 0, 300, 16);
        let theirs = traj(2, gap as usize, 300, 16);
        tracker.update(&engine(&ours), &theirs).unwrap();
        // The gap drifts by up to ±6 m between queries; the ±25 m slack
        // keeps the anchored check locked.
        for step in 0..10 {
            gap += if step % 2 == 0 { 6 } else { -3 };
            let ours = traj(2, step * 10, 300, 16);
            let theirs = traj(2, step * 10 + gap as usize, 300, 16);
            let fix = tracker.update(&engine(&ours), &theirs).unwrap();
            assert_eq!(fix.mode, TrackMode::Incremental, "step {step}");
            assert!(
                (fix.distance_m - gap as f64).abs() < 1.0,
                "step {step}: {}",
                fix.distance_m
            );
        }
    }

    #[test]
    fn losing_the_neighbour_falls_back_to_full_search() {
        let mut tracker = NeighbourTracker::new(cfg()).with_slack_m(10);
        let ours = traj(3, 0, 300, 16);
        let theirs = traj(3, 30, 300, 16);
        tracker.update(&engine(&ours), &theirs).unwrap();
        // The neighbour "jumps" 80 m (way outside the slack): the anchored
        // check fails and the full search re-acquires.
        let theirs_far = traj(3, 110, 300, 16);
        let fix = tracker.update(&engine(&ours), &theirs_far).unwrap();
        assert_eq!(fix.mode, TrackMode::Full);
        assert!(
            (fix.distance_m - 110.0).abs() < 1.0,
            "got {}",
            fix.distance_m
        );
        // And the next small step is incremental again.
        let fix = tracker
            .update(&engine(&ours), &traj(3, 112, 300, 16))
            .unwrap();
        assert_eq!(fix.mode, TrackMode::Incremental);
    }

    #[test]
    fn unrelated_contexts_error_cleanly() {
        let mut tracker = NeighbourTracker::new(cfg());
        let ours = traj(4, 0, 300, 16);
        let theirs = traj(999, 0, 300, 16);
        assert!(matches!(
            tracker.update(&engine(&ours), &theirs),
            Err(RupsError::NoSynPoint { .. })
        ));
        assert!(!tracker.is_locked());
    }

    #[test]
    fn reset_forces_full_search() {
        let mut tracker = NeighbourTracker::new(cfg());
        let ours = traj(5, 0, 300, 16);
        let theirs = traj(5, 20, 300, 16);
        tracker.update(&engine(&ours), &theirs).unwrap();
        tracker.reset();
        assert!(!tracker.is_locked());
        let fix = tracker.update(&engine(&ours), &theirs).unwrap();
        assert_eq!(fix.mode, TrackMode::Full);
    }
}
