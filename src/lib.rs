//! # rups
//!
//! Umbrella crate of the RUPS workspace — a from-scratch reproduction of
//! *"RUPS: Fixing Relative Distances among Urban Vehicles with
//! Context-Aware Trajectories"* (IEEE IPDPS 2016).
//!
//! RUPS answers one question for a moving vehicle: **how far ahead (or
//! behind) is that neighbour, right now?** — using only cheap on-board
//! motion sensors, a GSM receiver and vehicle-to-vehicle broadcasts. No
//! GPS, no signal maps, no clock sync, no line of sight.
//!
//! This crate re-exports the workspace members:
//!
//! * [`core`] (`rups-core`) — the algorithms: GSM-aware trajectories, the
//!   double-sliding SYN-point search, relative-distance resolution, and the
//!   [`core::pipeline::RupsNode`] public API.
//! * [`gsm`] (`gsm-sim`) — the synthetic GSM radio environment.
//! * [`urban`] (`urban-sim`) — roads, vehicle dynamics, sensor simulation.
//! * [`gps`] (`gps-sim`) — the GPS baseline error model.
//! * [`v2v`] (`v2v-sim`) — the DSRC/WSM codec, link and tracking protocol.
//! * [`fuse`] (`rups-fuse`) — cooperative fix-graph fusion: weighted
//!   least-squares over a neighbourhood's graded fixes with outlier
//!   rejection.
//! * [`fleet`] (`rups-fleet`) — the geographically sharded many-vehicle
//!   serving layer: uniform-grid cell index with 3×3 halo candidate
//!   enumeration, shared-nothing per-shard engines with cross-shard
//!   beacon routing, and a deterministic epoch scheduler that hands out
//!   one observer's fixes per item.
//! * [`eval`] (`rups-eval`) — the experiment harness regenerating every
//!   paper figure (also available as the `evaluate` binary).
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

pub use gps_sim as gps;
pub use gsm_sim as gsm;
pub use rups_core as core;
pub use rups_eval as eval;
pub use rups_fleet as fleet;
pub use rups_fuse as fuse;
pub use urban_sim as urban;
pub use v2v_sim as v2v;

/// One-stop imports for application code.
pub mod prelude {
    pub use rups_core::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_align() {
        // The facade must expose the same types the sub-crates define.
        let cfg = crate::prelude::RupsConfig::default();
        assert_eq!(cfg.n_channels, crate::core::channel::RGSM_900_CHANNELS);
    }
}
