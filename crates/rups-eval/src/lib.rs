//! # rups-eval
//!
//! The trace-driven experiment harness: regenerates every figure and table
//! of the RUPS paper's empirical study (§III) and evaluation (§VI) on the
//! synthetic substrate crates.
//!
//! Each `figures::figXX` module exposes a `run` function returning a
//! [`Figure`] (plus side artefacts, for four of them); the `evaluate` binary
//! runs them all and prints the resulting series and headline numbers, and
//! with `--json DIR` writes every figure and artefact to `DIR`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod queries;
pub mod replay;
pub mod rig;
pub mod series;
pub mod tracegen;

pub use queries::{query_at, run_queries, sample_query_times, GpsBaseline, QueryOutcome};
pub use series::{Figure, SampleStats, Series};
pub use tracegen::{
    generate, generate_convoy, ConvoyTrace, Mobility, ScenarioTrace, TraceConfig, VehicleTrace,
};
