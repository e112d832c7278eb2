//! One module per reproduced paper figure/table.
//!
//! * [`fig01`] — GSM power spectrograms on two roads (§III-A, Fig. 1)
//! * [`fig02`] — temporal stability of power vectors (§III-B, Fig. 2)
//! * [`fig03`] — geographical uniqueness CDFs (§III-C, Fig. 3)
//! * [`fig04`] — relative change vs displacement (§III-D, Fig. 4)
//! * [`cost`] — SYN-search computational cost (§V-A)
//! * [`comm`] — context exchange cost over 802.11p (§V-B)
//! * [`fig09`] — SYN-point error vs radio count/placement (§VI-B, Fig. 9)
//! * [`fig10`] — single vs multi-SYN aggregation under passing vehicles
//!   (§VI-C, Fig. 10)
//! * [`fig11`] — mean RDE across environments × radio configs (§VI-C,
//!   Fig. 11)
//! * [`fig12`] — RUPS vs GPS across urban environments (§VI-D, Fig. 12)
//!
//! Extensions beyond the paper's figures:
//!
//! * [`ext_diagnosis`] — online anomaly detection and automated diagnosis
//!   of three staged degradations (burst loss, clock jump, slowdown)
//! * [`ext_faults`] — fix availability/error under V2V channel faults
//!   (burst loss, corruption; hardening of §V-B)
//! * [`ext_fpr`] — detection vs false-positive rate of the adaptive short
//!   window (quantifies the §V-C claim)
//! * [`ext_fleet_observability`] — fleet-wide distributed tracing, metrics
//!   aggregation and SLO evaluation over a 6-vehicle faulted convoy
//! * [`ext_fleet_scale`] — sharded many-vehicle serving throughput: halo
//!   pair workload vs the quadratic bound and worker-scaling curves
//! * [`ext_fusion`] — cooperative fix-graph fusion in an n-vehicle convoy:
//!   fused vs best-pairwise error and pair coverage under channel faults
//! * [`ext_multiband`] — FM-band fingerprint fusion (§VII future work)
//! * [`ext_observability`] — unified telemetry under fault injection:
//!   per-epoch metric timelines from one shared registry
//! * [`ext_pedestrian`] — RUPS at walking/cycling speeds (§VII future work)
//! * [`ext_scalability`] — all-neighbour query sweeps in an n-vehicle convoy (§V-B)
//! * [`ablations`] — accuracy ablations of the design knobs (DESIGN.md §5)
//!
//! A figure whose knobs differ between paper scale and `--quick` takes a
//! `Params` (with a `quick_params()` preset); one that only scales with
//! the trace takes an [`EvalScale`]; every other knob is a `const` of its
//! module. Figures never write files: the four with side artefacts return
//! them next to their [`Figure`](crate::Figure), and `evaluate --json DIR`
//! writes them.

use rups_core::config::RupsConfig;
use serde::{Deserialize, Serialize};

pub mod ablations;
pub mod comm;
pub mod cost;
pub mod ext_diagnosis;
pub mod ext_faults;
pub mod ext_fleet_observability;
pub mod ext_fleet_scale;
pub mod ext_fpr;
pub mod ext_fusion;
pub mod ext_multiband;
pub mod ext_observability;
pub mod ext_pedestrian;
pub mod ext_scalability;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;

/// A side file a figure hands to `evaluate --json DIR`, which writes it
/// as `DIR/<file>` beside the figure's `<id>.json` (in its place when the
/// names match).
#[derive(Debug)]
pub struct Artefact {
    /// File name under the `--json` directory.
    pub file: &'static str,
    /// The file's JSON text.
    pub json: String,
}

impl Artefact {
    /// `value` as pretty JSON: a record meant to be diffed.
    pub fn pretty(file: &'static str, value: &impl Serialize) -> Self {
        let json = serde_json::to_string_pretty(value).expect("serialize artefact");
        Self { file, json }
    }

    /// `value` as compact JSON: a trace or dump meant for a viewer.
    pub fn compact(file: &'static str, value: &impl Serialize) -> Self {
        let json = serde_json::to_string(value).expect("serialize artefact");
        Self { file, json }
    }
}

/// Journey context every convoy figure's beacons carry, metres: the SYN
/// search needs the shared road segment (context − gap) to fit the 85 m
/// correlation window, with margin.
pub(crate) const CONVOY_CONTEXT_M: usize = 250;
/// Metres a convoy figure drives before its first beacon (context
/// build-up).
pub(crate) const CONVOY_WARMUP_M: usize = 260;
/// Staleness horizon of every convoy figure's inboxes, seconds.
pub(crate) const CONVOY_HORIZON_S: f64 = 10.0;

/// Global knobs controlling how big the accuracy experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalScale {
    /// Master seed.
    pub seed: u64,
    /// Query points per experiment cell (paper: 500–1000).
    pub n_queries: usize,
    /// Drive duration per trace, seconds.
    pub duration_s: f64,
    /// Channels in the trajectory band.
    pub n_channels: usize,
    /// Channels swept by the scanners.
    pub scanned_channels: usize,
    /// Independent traces (seeds) each experiment cell averages over;
    /// queries are split across them. Odometry biases and occlusion draws
    /// vary per trace, so multi-seed cells report far more stable means.
    pub n_seeds: usize,
}

impl EvalScale {
    /// Paper-scale runs (use a release build; several seconds per figure).
    pub fn paper() -> Self {
        Self {
            seed: 20160523,
            n_queries: 500,
            duration_s: 900.0,
            n_channels: 194,
            scanned_channels: 115,
            n_seeds: 3,
        }
    }

    /// Reduced scale for unit tests and debug builds.
    pub fn quick() -> Self {
        Self {
            seed: 20160523,
            n_queries: 10,
            duration_s: 240.0,
            n_channels: 64,
            scanned_channels: 48,
            n_seeds: 1,
        }
    }

    /// The RUPS configuration used in the accuracy experiments: the paper's
    /// defaults, adapted to the band width of this scale.
    pub fn rups_config(&self) -> RupsConfig {
        RupsConfig {
            n_channels: self.n_channels,
            // The paper's 45-channel window presumes the 194-channel band;
            // scale the width down for reduced bands so the window is not
            // padded with noise-floor channels.
            window_channels: if self.n_channels >= 194 {
                45
            } else {
                24.min(self.n_channels)
            },
            ..RupsConfig::default()
        }
    }

    /// The node configuration of a convoy figure: [`Self::rups_config`]
    /// with the own context capped 150 m past the beaconed
    /// [`CONVOY_CONTEXT_M`], enough to cover a snapshot while keeping the
    /// per-epoch SYN search cheap.
    pub(crate) fn convoy_config(&self) -> RupsConfig {
        RupsConfig {
            max_context_m: CONVOY_CONTEXT_M + 150,
            ..self.rups_config()
        }
    }

    /// The trace seeds of one experiment cell (`base` distinguishes cells).
    pub fn trace_seeds(&self, base: u64) -> Vec<u64> {
        (0..self.n_seeds.max(1))
            .map(|i| self.seed ^ base ^ (i as u64 * 7919))
            .collect()
    }

    /// Query points charged to each trace of a cell.
    pub fn queries_per_seed(&self) -> usize {
        (self.n_queries / self.n_seeds.max(1)).max(1)
    }

    /// Route long enough that the drive never runs off the end.
    pub fn route_len_m(&self) -> f64 {
        // Generous upper bound: 20 m/s × duration + margin.
        20.0 * self.duration_s + 2_000.0
    }
}
