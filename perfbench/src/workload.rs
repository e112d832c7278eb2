//! What every workload hands the epoch loop: one closed-loop epoch at a time,
//! the fixes it produced with their ground truth, and the layer counters.

use rups_core::engine::EngineStats;
use rups_core::inbox::InboxStats;
use rups_core::quality::FixQuality;
use rups_obs::Registry;
use v2v_sim::link::LinkStats;

use crate::trace::Tracer;

/// One fix query and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Fix {
    pub observer: u64,
    pub neighbour: u64,
    /// The fixed distance, `None` when the query returned an error.
    pub est_m: Option<f64>,
    /// Ground-truth gap the fix should report.
    pub truth_m: f64,
}

/// Layer counters. Counts the program keeps are cumulative since set-up;
/// [`Counts::delta`] turns two readings into a phase's share.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub beacons: u64,
    pub encode_bytes: u64,
    pub decode_frames: u64,
    pub decode_rejects: u64,
    pub inbox_offered: u64,
    pub inbox_rejected: u64,
    pub link_offered: u64,
    pub link_delivered: u64,
    pub engine: EngineStats,
    pub tracked: u64,
    pub incremental: u64,
    pub graded: u64,
    pub high: u64,
    pub low: u64,
    pub fuse_rejected: u64,
    pub fleet_tasks: u64,
    pub fleet_relayed: u64,
    pub fleet_rehomes: u64,
    pub steals: u64,
    /// Σ over epochs of max ÷ mean tasks per scheduler worker.
    pub imbalance_sum: f64,
    pub cell_moves: u64,
}

impl Counts {
    pub fn delta(&self, e: &Counts) -> Counts {
        Counts {
            beacons: self.beacons - e.beacons,
            encode_bytes: self.encode_bytes - e.encode_bytes,
            decode_frames: self.decode_frames - e.decode_frames,
            decode_rejects: self.decode_rejects - e.decode_rejects,
            inbox_offered: self.inbox_offered - e.inbox_offered,
            inbox_rejected: self.inbox_rejected - e.inbox_rejected,
            link_offered: self.link_offered - e.link_offered,
            link_delivered: self.link_delivered - e.link_delivered,
            engine: self.engine.delta(&e.engine),
            tracked: self.tracked - e.tracked,
            incremental: self.incremental - e.incremental,
            graded: self.graded - e.graded,
            high: self.high - e.high,
            low: self.low - e.low,
            fuse_rejected: self.fuse_rejected - e.fuse_rejected,
            fleet_tasks: self.fleet_tasks - e.fleet_tasks,
            fleet_relayed: self.fleet_relayed - e.fleet_relayed,
            fleet_rehomes: self.fleet_rehomes - e.fleet_rehomes,
            steals: self.steals - e.steals,
            imbalance_sum: self.imbalance_sum - e.imbalance_sum,
            cell_moves: self.cell_moves - e.cell_moves,
        }
    }

    pub fn add_engine(&mut self, s: EngineStats) {
        let e = &mut self.engine;
        e.queries += s.queries;
        e.context_hits += s.context_hits;
        e.context_rebuilds += s.context_rebuilds;
        e.window_hits += s.window_hits;
        e.window_misses += s.window_misses;
        e.reference_passes += s.reference_passes;
        e.fft_passes += s.fft_passes;
        e.pruned_placements += s.pruned_placements;
    }

    pub fn add_link(&mut self, s: LinkStats) {
        self.link_offered += s.offered;
        self.link_delivered += s.delivered;
    }

    pub fn add_inbox(&mut self, s: InboxStats) {
        self.inbox_offered += s.accepted + s.ignored_outdated + s.rejected();
        self.inbox_rejected += s.rejected();
    }

    /// Frames the counted codec front-end decoded, and how many it
    /// rejected, as recorded in `registry`.
    pub fn add_codec(&mut self, registry: &Registry) {
        let snap = registry.snapshot();
        let get = |name: &str| snap.counter(name).unwrap_or(0);
        let rejects = get("rups_v2v_codec_rejected_truncated")
            + get("rups_v2v_codec_rejected_bad_magic")
            + get("rups_v2v_codec_rejected_bad_version")
            + get("rups_v2v_codec_rejected_corrupt");
        self.decode_frames += get("rups_v2v_codec_decode_ok") + rejects;
        self.decode_rejects += rejects;
    }

    pub fn add_grade(&mut self, grade: FixQuality) {
        self.graded += 1;
        match grade {
            FixQuality::High => self.high += 1,
            FixQuality::Low => self.low += 1,
            FixQuality::Medium => {}
        }
    }
}

/// A workload after set-up: contexts filled, ready for its first beacon.
pub trait Workload {
    /// Generates the next epoch's sensor input. Not timed.
    fn prepare(&mut self) {}
    /// Runs one epoch and appends every fix query's outcome to `fixes`.
    fn epoch(&mut self, tr: &mut Tracer, fixes: &mut Vec<Fix>);
    /// Layer counters as of now.
    fn counts(&self) -> Counts;
    /// Epochs in one round of the workload; a phase runs whole rounds.
    fn round(&self) -> usize {
        1
    }
    /// Epochs the workload can run after set-up, when bounded.
    fn max_epochs(&self) -> Option<usize> {
        None
    }
}
