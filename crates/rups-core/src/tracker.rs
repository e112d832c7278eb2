//! Continuous neighbour tracking (§V-B).
//!
//! A tracking application queries a neighbour's distance many times per
//! second; re-running the full double-sliding search each time is wasteful
//! ("one application may need to track a neighboring vehicle on every 0.1
//! second"). The paper's remedy: once a SYN point is established, later
//! queries only need to *verify and refine* it.
//! [`crate::pipeline::RupsNode::tracked_fix`] implements that: after the
//! first full search it remembers the trajectory shift implied by the
//! newest SYN point and, on later fixes, the engine's anchored check
//! re-scores only the window placements within ±25 m of the expected shift
//! — an `O(slack · w · k)` rolling scan instead of the full `O(mwk)`
//! search, counted and traced as one engine query. If the anchored check
//! falls below the coherency threshold (missed context, neighbour changed
//! roads), the full search re-acquires the neighbour. This module holds
//! the result types.

use serde::{Deserialize, Serialize};

/// How a tracked fix was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackMode {
    /// Full double-sliding multi-SYN search (first query, or re-acquire).
    Full,
    /// Anchored incremental check around the previously known shift.
    Incremental,
}

/// A relative-distance fix produced by
/// [`crate::pipeline::RupsNode::tracked_fix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackedFix {
    /// Relative distance, metres (positive = neighbour ahead).
    pub distance_m: f64,
    /// Peak trajectory correlation coefficient backing the fix.
    pub score: f64,
    /// Full or incremental path.
    pub mode: TrackMode,
}
