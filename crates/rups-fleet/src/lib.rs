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
//! - [`sched`] — the epoch scheduler: one item per observer, handed out
//!   from one atomic cursor with the caller as worker 0 (the rayon shim's
//!   scheme), deterministic output for any worker count.
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
pub use sched::StealStats;
pub use shard::{RoutedBeacon, Shard, ShardConfig, ShardSet, Vehicle, RELAY_ID_BASE};
pub use sim::{EpochOutcome, FleetConfig, FleetFix, FleetRun, FleetSim};
