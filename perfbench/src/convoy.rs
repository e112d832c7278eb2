//! The `discover` and `track` workloads: a single-lane convoy on the
//! synthetic test field, every vehicle beaconing its context over one
//! faulty DSRC link each simulated second.
//!
//! One epoch: advance (bind the metres driven) → beacon (snapshot, encode,
//! broadcast) → receive (poll, decode, inbox accept) → fix, then a fusion
//! solve on `discover`.

use rups_core::config::RupsConfig;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::inbox::{InboxConfig, SnapshotInbox};
use rups_core::pipeline::{ContextSnapshot, RupsNode};
use rups_core::quality::QualityConfig;
use rups_core::testfield::{self, splitmix64};
use rups_core::tracker::TrackMode;
use rups_fuse::{FixGraph, FuseConfig, Fuser};
use rups_obs::Registry;
use v2v_sim::codec::{try_encode_snapshot, CodecMetrics};
use v2v_sim::fault::FaultConfig;
use v2v_sim::link::{Endpoint, V2vLink};

use crate::trace::Tracer;
use crate::workload::{Counts, Fix, Workload};

/// Convoy speed, metres per simulated second (an urban 36 km/h).
const SPEED_MPS: u64 = 10;
/// Inbox staleness horizon, seconds.
const HORIZON_S: f64 = 10.0;
/// How far past the epoch boundary receivers poll: the 600 m paper-band
/// snapshot needs ~0.35 s of WSM air time, plus jitter and reordering.
const RX_SLACK_S: f64 = 0.9;
/// Peak scanner noise per reading, dB (triangular, zero mean).
const NOISE_DB: f64 = 2.0;
/// Whole-metre spacing behind vehicle k is `GAP_M + (13k mod 21)`: gaps
/// of 25 to 45 m in every convoy, the same for every seed, because where
/// the search finds its match, and so what a fix costs, depends on the
/// gap.
const GAP_M: u64 = 25;

/// What each vehicle does with the snapshots it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixMode {
    /// `fix_inbox_parallel` on every vehicle, then one fusion solve.
    InboxThenFuse,
    /// `tracked_fix` from every follower on every neighbour ahead of it.
    TrackAhead,
}

/// Shape of a convoy workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n_vehicles: usize,
    pub n_channels: usize,
    pub window_channels: usize,
    /// Own context retained, metres.
    pub context_m: usize,
    /// Beaconed snapshot length, metres; `None` beacons the whole context.
    pub snapshot_m: Option<usize>,
    pub mode: FixMode,
}

/// `discover`: long contexts, every neighbour searched from scratch each
/// epoch (query-bound; the long own context puts the engine on the
/// rolling reference kernel).
pub const DISCOVER: Shape = Shape {
    n_vehicles: 4,
    n_channels: 64,
    window_channels: 24,
    context_m: 2000,
    snapshot_m: Some(1200),
    mode: FixMode::InboxThenFuse,
};

/// `track`: full paper-band snapshots, anchored incremental fixes
/// (beacon-bound: decode dominates).
pub const TRACK: Shape = Shape {
    n_vehicles: 8,
    n_channels: 194,
    window_channels: 45,
    context_m: 600,
    snapshot_m: None,
    mode: FixMode::TrackAhead,
};

/// The 30 % burst-loss + 1 % corruption acceptance cell.
pub fn acceptance_faults() -> FaultConfig {
    FaultConfig {
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.01,
        jitter_s: 0.02,
        ..FaultConfig::bursty(0.15, 0.35, 1.0)
    }
}

/// Uniform draw in `[0, 1)` keyed by `key`.
fn unit(key: u64) -> f64 {
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

pub struct Convoy {
    shape: Shape,
    qcfg: QualityConfig,
    field_seed: u64,
    noise_seed: u64,
    /// Road position of each vehicle's first trajectory metre.
    offsets: Vec<f64>,
    nodes: Vec<RupsNode>,
    link: V2vLink,
    endpoints: Vec<Endpoint>,
    inboxes: Vec<SnapshotInbox>,
    codec_registry: Registry,
    codec: CodecMetrics,
    fuser: Fuser,
    /// Trajectory metres appended so far (the same for every vehicle).
    appended: u64,
    /// Simulated time of the last epoch, seconds.
    t: u64,
    /// The next epoch's bound metres, per vehicle.
    pending: Vec<Vec<(GeoSample, PowerVector)>>,
    counts: Counts,
}

impl Convoy {
    /// Builds the convoy and drives it until every own context is full.
    pub fn setup(shape: Shape, seed: u64) -> Self {
        let rc = RupsConfig {
            n_channels: shape.n_channels,
            window_channels: shape.window_channels,
            max_context_m: shape.context_m,
            ..RupsConfig::default()
        };
        // Vehicle k also sits k/n of a metre past its whole-metre mark: how
        // the metre marks of two vehicles interleave sets most of a fix's
        // error, so every seed gets the same spread of interleavings. The
        // seed draws the field, the scanner noise and the link faults.
        let n = shape.n_vehicles as u64;
        let mut whole = 0;
        let offsets = (0..n)
            .map(|k| {
                if k > 0 {
                    whole += GAP_M + (13 * k) % 21;
                }
                whole as f64 + k as f64 / n as f64
            })
            .collect();
        let ids: Vec<u64> = (1..=shape.n_vehicles as u64).collect();
        let nodes = ids
            .iter()
            .map(|&id| RupsNode::new(rc.clone()).with_vehicle_id(id))
            .collect();
        let link = V2vLink::with_faults(acceptance_faults(), seed ^ 0x11);
        let endpoints = ids.iter().map(|&id| link.join(id)).collect();
        let inboxes = ids
            .iter()
            .map(|_| SnapshotInbox::new(InboxConfig::for_rups(&rc, HORIZON_S)))
            .collect();
        let codec_registry = Registry::new();
        let codec = CodecMetrics::register(&codec_registry);
        let fuser = Fuser::new(FuseConfig {
            anchor: Some(1),
            ..FuseConfig::default()
        });
        let mut convoy = Convoy {
            shape,
            qcfg: QualityConfig::default(),
            field_seed: seed ^ 0xF1E1D,
            noise_seed: seed ^ 0x5CA7,
            offsets,
            nodes,
            link,
            endpoints,
            inboxes,
            codec_registry,
            codec,
            fuser,
            appended: 0,
            t: 0,
            pending: Vec::new(),
            counts: Counts::default(),
        };
        let warm_s = (shape.context_m as u64).div_ceil(SPEED_MPS);
        for _ in 0..warm_s {
            convoy.prepare();
            convoy.advance(&mut Tracer::new(false));
        }
        convoy
    }

    /// The reading vehicle `k` takes on trajectory metre `i`: the field at
    /// its road position plus scanner noise.
    fn power(&self, k: usize, i: u64) -> PowerVector {
        let road_m = self.offsets[k] + i as f64;
        let key = self.noise_seed ^ (k as u64) << 48 ^ i << 8;
        PowerVector::from_fn(self.shape.n_channels, |ch| {
            let a = unit(key ^ ch as u64);
            let b = unit(key ^ ch as u64 ^ 0xB0B0_0000_0000);
            let noise = NOISE_DB * (a + b - 1.0);
            Some(testfield::rssi(self.field_seed, road_m, ch) + noise as f32)
        })
    }

    /// Binds the metres prepared for this epoch.
    fn advance(&mut self, tr: &mut Tracer) {
        self.t += 1;
        for (node, metres) in self.nodes.iter_mut().zip(self.pending.drain(..)) {
            for (geo, pv) in &metres {
                tr.span("bind", || node.append_metre(*geo, pv))
                    .expect("synthetic metre matches the band");
            }
        }
        self.appended = self.t * SPEED_MPS;
    }

    fn beacon(&mut self, tr: &mut Tracer) {
        let t = self.t as f64;
        for (node, ep) in self.nodes.iter().zip(&self.endpoints) {
            let snap = tr.span("snapshot", || node.snapshot(self.shape.snapshot_m));
            let Ok(wire) = tr.span("encode", || try_encode_snapshot(&snap)) else {
                continue;
            };
            self.counts.beacons += 1;
            self.counts.encode_bytes += wire.len() as u64;
            tr.span("link", || ep.broadcast(t, wire));
        }
    }

    fn receive(&mut self, tr: &mut Tracer) {
        let until = self.t as f64 + RX_SLACK_S;
        for (ep, inbox) in self.endpoints.iter().zip(self.inboxes.iter_mut()) {
            for d in tr.span("link", || ep.poll_until(until)) {
                if let Ok(snap) = tr.span("decode", || self.codec.decode(&d.payload)) {
                    let _ = tr.span("inbox", || inbox.accept(snap, d.arrival_s));
                }
            }
        }
    }

    /// Scores a fix of observer `k` against `snap`. The gap it should
    /// report runs from the observer's newest metre mark now to the
    /// sender's newest metre mark in the snapshot.
    ///
    /// A sender id outside the convoy gets no truth and counts as a failed
    /// query: a bit flip in the id field survives decoding, because the
    /// wire format carries no checksum, and the fix then names a vehicle
    /// that does not exist.
    fn score(&self, k: usize, snap: &ContextSnapshot, est_m: Option<f64>) -> Fix {
        let observer = k as u64 + 1;
        let neighbour = snap
            .vehicle_id
            .expect("the inbox holds identified snapshots");
        let sender = usize::try_from(neighbour)
            .ok()
            .and_then(|id| self.offsets.get(id.wrapping_sub(1)));
        let newest = snap
            .geo
            .latest_timestamp()
            .expect("accepted snapshots are not empty");
        match sender {
            Some(&off) => Fix {
                observer,
                neighbour,
                est_m,
                truth_m: off + (newest * SPEED_MPS as f64).round()
                    - (self.offsets[k] + self.appended as f64),
            },
            None => Fix {
                observer,
                neighbour,
                est_m: None,
                truth_m: 0.0,
            },
        }
    }

    fn fix_and_fuse(&mut self, tr: &mut Tracer, fixes: &mut Vec<Fix>) {
        let t = self.t as f64;
        let mut edges = Vec::new();
        for k in 0..self.nodes.len() {
            let graded = tr.span("engine", || {
                self.nodes[k].fix_inbox_parallel(&self.inboxes[k], t, &self.qcfg)
            });
            for ((_, res), snap) in graded.into_iter().zip(self.inboxes[k].fresh(t)) {
                let fix = self.score(k, snap, res.as_ref().ok().map(|g| g.fix.distance_m));
                if let Ok(g) = res {
                    self.counts.add_grade(g.report.quality);
                    edges.push((fix.observer, fix.neighbour, g));
                }
                fixes.push(fix);
            }
        }
        tr.begin("fuse");
        let mut graph = FixGraph::new();
        for (observer, neighbour, g) in &edges {
            graph.insert_fix(*observer, *neighbour, g);
        }
        let solved = self.fuser.solve(&graph);
        tr.end();
        if let Ok(sol) = solved {
            self.counts.fuse_rejected += sol.rejected.len() as u64;
        }
    }

    fn track_ahead(&mut self, tr: &mut Tracer, fixes: &mut Vec<Fix>) {
        let t = self.t as f64;
        for k in 0..self.nodes.len() {
            let ahead: Vec<&ContextSnapshot> = self.inboxes[k]
                .fresh(t)
                .into_iter()
                .filter(|s| s.vehicle_id.is_some_and(|id| id > k as u64 + 1))
                .collect();
            for snap in ahead {
                let node = &mut self.nodes[k];
                let res = tr.span("engine", || node.tracked_fix(snap));
                self.counts.tracked += 1;
                if res.as_ref().is_ok_and(|f| f.mode == TrackMode::Incremental) {
                    self.counts.incremental += 1;
                }
                fixes.push(self.score(k, snap, res.ok().map(|f| f.distance_m)));
            }
        }
    }
}

impl Workload for Convoy {
    fn prepare(&mut self) {
        let next = (self.t + 1) * SPEED_MPS;
        let first = if self.t == 0 { 0 } else { self.appended + 1 };
        self.pending = (0..self.nodes.len())
            .map(|k| {
                (first..=next)
                    .map(|i| {
                        let geo = GeoSample {
                            heading_rad: 0.0,
                            timestamp_s: i as f64 / SPEED_MPS as f64,
                        };
                        (geo, self.power(k, i))
                    })
                    .collect()
            })
            .collect();
    }

    fn epoch(&mut self, tr: &mut Tracer, fixes: &mut Vec<Fix>) {
        self.advance(tr);
        self.beacon(tr);
        self.receive(tr);
        match self.shape.mode {
            FixMode::InboxThenFuse => self.fix_and_fuse(tr, fixes),
            FixMode::TrackAhead => self.track_ahead(tr, fixes),
        }
    }

    fn counts(&self) -> Counts {
        let mut c = self.counts.clone();
        for (node, inbox) in self.nodes.iter().zip(&self.inboxes) {
            c.add_engine(node.engine_stats());
            c.add_inbox(inbox.stats());
        }
        c.add_link(self.link.stats());
        c.add_codec(&self.codec_registry);
        c
    }
}
