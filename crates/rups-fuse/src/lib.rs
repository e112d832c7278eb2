//! Cooperative fix-graph fusion: from pairwise RUPS fixes to a globally
//! consistent neighbourhood picture.
//!
//! RUPS (the paper) fixes the relative distance of **one** vehicle pair.
//! A fleet produces a *graph* of such fixes — every vehicle queries every
//! neighbour whose context it holds — and pairwise estimates taken alone
//! waste the graph's redundancy: the distances around any cycle must sum
//! to zero, and a fix corrupted by burst loss or a disturbed GSM context
//! violates that closure loudly. This crate exploits both effects:
//!
//! * [`FixGraph`] ingests every
//!   [`GradedFix`](rups_core::pipeline::GradedFix) of a neighbourhood
//!   epoch as a weighted signed-displacement edge (grades set the weights
//!   via [`weight_for`] — disjoint per-grade bands, so
//!   a `Low` fix can never outvote a `High` one).
//! * [`Fuser`] solves weighted least-squares over the edge
//!   residuals (Gauss–Newton, anchor-pinned gauge) for a consistent set
//!   of relative positions, and its residual-based outlier gate demotes
//!   inconsistent edges — counting them on `rups_fuse_edges_rejected`,
//!   reporting each to an attached
//!   [`FlightRecorder`](rups_obs::FlightRecorder), and re-solving without
//!   them. Solver iterations land in the `rups_fuse_solve_iterations`
//!   histogram and the post-fit residual in the
//!   `rups_fuse_residual_rms_m` gauge.
//! * [`planar`] carries the genuinely nonlinear range-residual variant
//!   (translation *and* rotation gauge), used to verify the solver
//!   machinery beyond the linear along-road model.
//! * [`synth`] generates random connected scenarios with known ground
//!   truth — the verification harness the property/differential suites
//!   and the golden fixture are built on.
//!
//! The `ext-fusion` experiment in `rups-eval` drives the full stack: an
//! N-vehicle convoy under the PR 2 burst-loss fault model, showing fused
//! relative distances beating the best single pairwise fix.
//!
//! # Example
//!
//! ```
//! use rups_core::quality::FixQuality;
//! use rups_fuse::graph::FixGraph;
//! use rups_fuse::solve::Fuser;
//!
//! // Three vehicles; the direct 0→2 fix disagrees with the chain.
//! let mut g = FixGraph::new();
//! g.insert_measurement(0, 1, 40.0, 1.0, FixQuality::High, 3.0);
//! g.insert_measurement(1, 2, 55.0, 1.0, FixQuality::High, 3.0);
//! g.insert_measurement(0, 2, 96.5, 1.0, FixQuality::Medium, 6.0);
//! let sol = Fuser::default().solve(&g).unwrap();
//! // Cycle closure pulls every pairwise estimate toward consistency.
//! let d02 = sol.displacement(0, 2).unwrap();
//! assert!(d02 > 95.0 && d02 < 96.5);
//! ```

#![warn(missing_docs)]

pub mod graph;
mod linalg;
pub mod planar;
pub mod solve;
pub mod synth;

pub use graph::{weight_for, FixEdge, FixGraph};
pub use planar::{solve_planar, PlanarConfig, PlanarGraph, PlanarSolution, RangeEdge};
pub use solve::{FuseConfig, FuseError, FusedSolution, Fuser, OutlierConfig, RejectedEdge};
pub use synth::{generate, SynthConfig, SynthRng, SynthScenario};
