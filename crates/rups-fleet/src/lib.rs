//! Geographically sharded many-vehicle serving layer.
//!
//! The paper evaluates RUPS on a single vehicle pair; this crate is the
//! substrate for running hundreds-to-thousands of [`RupsNode`]s over one
//! road network, on the way to the ROADMAP's "millions of urban
//! vehicles". Three pieces (DESIGN.md §10):
//!
//! - [`cell::CellIndex`] — a uniform-grid spatial index with incremental
//!   per-epoch re-bucketing and 3×3 adjacent-cell halo candidate
//!   enumeration, keeping the per-epoch pair workload sub-quadratic.
//! - [`shard::ShardSet`] — shared-nothing geographic shards, each owning
//!   the engines, inboxes, faulty V2V link, codec handles and telemetry
//!   registry of the vehicles in its cells, with cross-shard beacon
//!   routing over bounded channels and deterministic cell→shard hashing.
//! - [`sched::run_tasks`] — a work-stealing epoch scheduler draining the
//!   fleet's pending fix queries into per-worker deques with
//!   steal-on-idle, deterministic output for any worker count.
//!
//! [`sim::FleetSim`] wires them to `urban-sim` scenarios, `v2v-sim`
//! faulty links and per-shard `rups-obs` registries in one city-scale run.
//!
//! [`RupsNode`]: rups_core::pipeline::RupsNode

pub mod cell;
pub mod sched;
pub mod shard;
pub mod sim;

pub use cell::{CellIndex, CellStats};
pub use sched::{run_tasks, StealStats};
pub use shard::{RoutedBeacon, Shard, ShardConfig, ShardSet, Vehicle, RELAY_ID_BASE};
pub use sim::{EpochOutcome, FleetConfig, FleetFix, FleetRun, FleetSim};
