//! # rups-core
//!
//! Core algorithms of **RUPS** (Relative Urban Positioning System), the
//! scheme proposed in *"RUPS: Fixing Relative Distances among Urban Vehicles
//! with Context-Aware Trajectories"* (IEEE IPDPS 2016).
//!
//! RUPS solves the *relative distance fixing* (RDF) problem: estimating the
//! front–rear distance between two vehicles driving in an urban environment,
//! using nothing but cheap on-board sensors, a GSM receiver and
//! vehicle-to-vehicle communication. No GPS, no pre-built signal map, no
//! clock synchronization and no line of sight are required.
//!
//! ## Pipeline
//!
//! 1. **Perceive** — a vehicle dead-reckons its *geographical trajectory*
//!    (one `(heading, timestamp)` sample per metre, [`geo::GeoTrajectory`])
//!    from motion sensors ([`motion`]), while a GSM scanner measures the
//!    RSSI of the R-GSM-900 channels along the way.
//! 2. **Bind** — time-domain scan samples are bound to the distance-domain
//!    trajectory ([`binding`]), yielding a *GSM-aware trajectory*
//!    ([`gsm::GsmTrajectory`]): an `n_channels × m_metres` RSSI matrix with
//!    missing channels linearly interpolated over distance.
//! 3. **Exchange** — vehicles broadcast their recent *journey context* over
//!    DSRC (modelled in the `v2v-sim` crate).
//! 4. **Match** — a double-sliding-window cross-correlation search
//!    ([`syn`]) finds *SYN points*: trajectory offsets where both vehicles
//!    traversed the same road location, scored with the trajectory
//!    correlation coefficient of Eq. (2) of the paper.
//! 5. **Resolve** — the relative distance follows from the distances each
//!    vehicle travelled since the SYN point ([`resolve`]); multiple SYN
//!    points can be aggregated (simple / selective average, §VI-C).
//!
//! The [`pipeline::RupsNode`] type wires all the steps into the public API a
//! deployment would use; the lower-level modules are exported for research
//! use and for the evaluation harness.
//!
//! ## Example
//!
//! ```
//! use rups_core::prelude::*;
//!
//! // Two synthetic vehicles that drove over the same 300 m of road where
//! // the "GSM field" is a deterministic function of distance. Vehicle B is
//! // 40 m ahead of vehicle A.
//! let field = |s: f64, ch: usize| {
//!     let freq = 0.04 * (1.0 + 0.13 * ch as f64); // incommensurate per channel
//!     (-60.0 - 12.0 * (freq * s).sin() - (ch % 7) as f64) as f32
//! };
//! let mk = |start: usize, len: usize| {
//!     let cfg = RupsConfig { n_channels: 48, ..RupsConfig::default() };
//!     let mut node = RupsNode::new(cfg);
//!     for i in 0..len {
//!         let s = (start + i) as f64;
//!         let geo = GeoSample { heading_rad: 0.0, timestamp_s: s };
//!         let pv = PowerVector::from_fn(48, |ch| Some(field(s, ch)));
//!         node.append_metre(geo, &pv).unwrap();
//!     }
//!     node
//! };
//! let a = mk(0, 300);   // rear vehicle: road metres   0..300
//! let b = mk(40, 300);  // front vehicle: road metres 40..340
//! let fix = a.fix_distance(&b.snapshot(None)).unwrap();
//! assert!((fix.distance_m - 40.0).abs() < 1.5, "got {}", fix.distance_m);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binding;
pub mod channel;
pub mod config;
pub mod dsp;
pub mod engine;
pub mod error;
pub mod geo;
pub mod gsm;
pub mod inbox;
pub mod motion;
pub mod pipeline;
pub mod quality;
pub mod report;
pub mod resolve;
pub mod stats;
pub mod syn;
mod syn_fast;
#[doc(hidden)]
pub mod testfield;
pub mod tracker;
pub mod window;

/// Convenient re-exports of the types needed for everyday use of RUPS.
pub mod prelude {
    pub use crate::binding::{ScanSample, TrajectoryBinder};
    pub use crate::channel::{ChannelId, Rssi, RGSM_900_CHANNELS};
    pub use crate::config::{AggregationScheme, RupsConfig};
    pub use crate::engine::{EngineStats, Kernel, QueryDiag, SynQueryEngine};
    pub use crate::error::RupsError;
    pub use crate::geo::{GeoSample, GeoTrajectory};
    pub use crate::gsm::{GsmTrajectory, PowerVector};
    pub use crate::inbox::{InboxConfig, InboxStats, SnapshotInbox};
    pub use crate::pipeline::{ContextSnapshot, DistanceFix, GradedFix, RupsNode};
    pub use crate::quality::{assess, FixQuality, QualityConfig, QualityReport};
    pub use crate::report::{default_flight_config, FixOutcome, FixReport};
    pub use crate::resolve::resolve_relative_distance;
    pub use crate::syn::{find_best_syn, find_syn_points, SynPoint};
    pub use crate::tracker::{TrackMode, TrackedFix};
    pub use crate::window::CheckWindow;
}

pub use binding::{ScanSample, TrajectoryBinder};
pub use channel::{ChannelId, Rssi, RGSM_900_CHANNELS};
pub use config::{AggregationScheme, RupsConfig};
pub use engine::{EngineStats, Kernel, QueryDiag, SynQueryEngine};
pub use error::RupsError;
pub use geo::{GeoSample, GeoTrajectory};
pub use gsm::{GsmTrajectory, PowerVector};
pub use inbox::{InboxConfig, InboxStats, SnapshotInbox};
pub use pipeline::{ContextSnapshot, DistanceFix, GradedFix, RupsNode};
pub use report::{default_flight_config, FixOutcome, FixReport};
pub use syn::SynPoint;
pub use window::CheckWindow;
