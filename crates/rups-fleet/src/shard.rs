//! Shared-nothing geographic shards.
//!
//! A shard owns everything for the vehicles in its cells: their
//! [`RupsNode`] engines, their vetted [`SnapshotInbox`]es, their endpoints
//! on the shard-local faulty [`V2vLink`], the shard's codec handles and a
//! private [`Registry`] — no locks or state are shared between shards, so
//! shards scale out like independent processes and their telemetry can be
//! merged by the existing `rups_obs::FleetAggregator` exactly as separate
//! machines' would be.
//!
//! Cell → shard assignment is a deterministic hash of the cell coordinate
//! ([`ShardSet::shard_for_cell`]). Beacons cross shard boundaries through
//! bounded channels ([`ShardSet::route`]): the sending shard enqueues the
//! already-encoded payload toward every shard owning part of the sender's
//! halo, and the receiving shard's *relay* endpoint re-broadcasts it onto
//! the local link, so cross-shard frames see the destination shard's
//! fault model exactly once, like local frames do. A full channel sheds
//! the beacon (counted on `rups_fleet_routed_shed`) rather than blocking
//! the epoch — backpressure by load shedding, as a real ingestion edge
//! would.
//!
//! When a vehicle's cell moves to a different shard, [`ShardSet::rehome`]
//! migrates it: the old endpoint leaves the old link (its in-flight frames
//! are lost — a handoff, like a real base-station change), the engine and
//! inbox re-bind to the new shard's registry, and a fresh endpoint joins
//! the new link.

use crate::cell::CellCoord;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, SyncSender, TrySendError};
use rups_core::inbox::SnapshotInbox;
use rups_core::pipeline::RupsNode;
use rups_core::testfield::splitmix64;
use rups_obs::{Counter, Gauge, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;
use v2v_sim::codec::CodecMetrics;
use v2v_sim::fault::FaultConfig;
use v2v_sim::link::{Endpoint, V2vLink};

/// Node ids at and above this are reserved for shard relay endpoints.
pub const RELAY_ID_BASE: u64 = u64::MAX - 4096;

/// Configuration of a shard set.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards.
    pub n_shards: usize,
    /// Bounded capacity of each shard's cross-shard ingress channel;
    /// beacons routed at a full channel are shed.
    pub channel_capacity: usize,
    /// Fault model applied by every shard-local link.
    pub faults: FaultConfig,
    /// Base seed; shard `i` uses a seed derived from `(seed, i)`.
    pub seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            n_shards: 4,
            channel_capacity: 4096,
            faults: FaultConfig::ideal(),
            seed: 0,
        }
    }
}

/// A beacon crossing a shard boundary: the encoded snapshot exactly as
/// the sender broadcast it locally.
#[derive(Debug, Clone)]
pub struct RoutedBeacon {
    /// Sending vehicle id.
    pub from: u64,
    /// Simulated send time, seconds.
    pub sent_s: f64,
    /// Encoded snapshot payload.
    pub payload: Bytes,
}

/// A vehicle resident on a shard.
pub struct Vehicle {
    /// The vehicle's RUPS pipeline.
    pub node: RupsNode,
    /// Its vetted snapshot inbox.
    pub inbox: SnapshotInbox,
    /// Its endpoint on the shard-local link.
    pub endpoint: Endpoint,
}

/// Pre-registered shard-level metric handles (`rups_fleet_*`).
struct ShardMetrics {
    routed_in: Counter,
    routed_shed: Counter,
    rehomed_in: Counter,
    vehicles: Gauge,
}

impl ShardMetrics {
    fn register(reg: &Registry) -> Self {
        Self {
            routed_in: reg.counter("rups_fleet_routed_in"),
            routed_shed: reg.counter("rups_fleet_routed_shed"),
            rehomed_in: reg.counter("rups_fleet_rehomed_in"),
            vehicles: reg.gauge("rups_fleet_shard_vehicles"),
        }
    }
}

/// One geographic shard: local link, resident vehicles, private registry.
pub struct Shard {
    /// Shard index within the set.
    pub id: usize,
    /// The shard-local broadcast medium (faulty).
    pub link: V2vLink,
    /// Private telemetry registry shared by the link, codec, engines and
    /// inboxes of this shard.
    pub registry: Arc<Registry>,
    /// Codec counters for this shard's decode path.
    pub codec: CodecMetrics,
    /// Resident vehicles, keyed by id (deterministic iteration).
    pub vehicles: BTreeMap<u64, Vehicle>,
    relay: Endpoint,
    ingress_tx: SyncSender<RoutedBeacon>,
    ingress_rx: Receiver<RoutedBeacon>,
    metrics: ShardMetrics,
}

impl Shard {
    fn new(id: usize, cfg: &ShardConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let shard_seed = cfg
            .seed
            .wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let link = V2vLink::with_faults_in(cfg.faults, shard_seed, Arc::clone(&registry));
        let relay = link.join(RELAY_ID_BASE + id as u64);
        let codec = CodecMetrics::register(&registry);
        let (ingress_tx, ingress_rx) = bounded(cfg.channel_capacity.max(1));
        let metrics = ShardMetrics::register(&registry);
        Shard {
            id,
            link,
            registry,
            codec,
            vehicles: BTreeMap::new(),
            relay,
            ingress_tx,
            ingress_rx,
            metrics,
        }
    }

    /// Number of resident vehicles.
    pub fn len(&self) -> usize {
        self.vehicles.len()
    }

    /// True when the shard hosts no vehicles.
    pub fn is_empty(&self) -> bool {
        self.vehicles.is_empty()
    }

    /// Re-broadcasts every queued cross-shard beacon onto the local link
    /// through the relay endpoint; returns how many were relayed.
    pub fn drain_ingress(&mut self) -> usize {
        let mut relayed = 0;
        for beacon in self.ingress_rx.try_iter() {
            self.relay.broadcast(beacon.sent_s, beacon.payload);
            self.metrics.routed_in.inc();
            relayed += 1;
        }
        relayed
    }
}

/// The full set of shards plus the vehicle → shard home map.
pub struct ShardSet {
    shards: Vec<Shard>,
    home: BTreeMap<u64, usize>,
}

impl ShardSet {
    /// Builds `cfg.n_shards` empty shards.
    ///
    /// # Panics
    /// Panics when `n_shards` is zero or exceeds the relay id space.
    pub fn new(cfg: &ShardConfig) -> Self {
        assert!(cfg.n_shards >= 1, "need at least one shard");
        assert!(cfg.n_shards <= 4096, "relay id space allows ≤4096 shards");
        ShardSet {
            shards: (0..cfg.n_shards).map(|i| Shard::new(i, cfg)).collect(),
            home: BTreeMap::new(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic owner shard of a cell.
    pub fn shard_for_cell(&self, cell: CellCoord) -> usize {
        let key =
            splitmix64((cell.0 as u64).wrapping_mul(0x85EB_CA6B) ^ (cell.1 as u64).rotate_left(32));
        (key % self.shards.len() as u64) as usize
    }

    /// The shard a vehicle currently lives on.
    pub fn home_of(&self, id: u64) -> Option<usize> {
        self.home.get(&id).copied()
    }

    /// Shared access to a shard.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Exclusive access to a shard.
    pub fn shard_mut(&mut self, i: usize) -> &mut Shard {
        &mut self.shards[i]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Ids of every resident vehicle, ascending.
    pub fn vehicle_ids(&self) -> Vec<u64> {
        self.home.keys().copied().collect()
    }

    /// Admits a new vehicle onto shard `shard_idx`: the node and inbox
    /// re-bind to the shard's registry and the vehicle joins the shard
    /// link.
    ///
    /// # Panics
    /// Panics when the id is already resident or collides with the relay
    /// id space.
    pub fn admit(&mut self, id: u64, shard_idx: usize, node: RupsNode, inbox: SnapshotInbox) {
        assert!(
            id < RELAY_ID_BASE,
            "vehicle id {id} collides with relay ids"
        );
        assert!(
            !self.home.contains_key(&id),
            "vehicle {id} already resident"
        );
        let shard = &mut self.shards[shard_idx];
        let node = node
            .with_vehicle_id(id)
            .with_observability(Arc::clone(&shard.registry));
        let inbox = inbox.with_registry(&shard.registry);
        let endpoint = shard.link.join(id);
        shard.vehicles.insert(
            id,
            Vehicle {
                node,
                inbox,
                endpoint,
            },
        );
        shard.metrics.vehicles.set(shard.vehicles.len() as f64);
        self.home.insert(id, shard_idx);
    }

    /// Migrates a resident vehicle to another shard (no-op when already
    /// home). In-flight frames buffered on the old endpoint are dropped —
    /// a geographic handoff, not a lossless migration.
    ///
    /// # Panics
    /// Panics when the vehicle is not resident.
    pub fn rehome(&mut self, id: u64, new_shard: usize) {
        let old_shard = self.home[&id];
        if old_shard == new_shard {
            return;
        }
        let Vehicle {
            node,
            inbox,
            endpoint,
        } = self.shards[old_shard]
            .vehicles
            .remove(&id)
            .expect("home map out of sync with shard residency");
        // Leave the old link before joining the new one.
        drop(endpoint);
        let old_len = self.shards[old_shard].vehicles.len();
        self.shards[old_shard].metrics.vehicles.set(old_len as f64);
        let shard = &mut self.shards[new_shard];
        let node = node.with_observability(Arc::clone(&shard.registry));
        let inbox = inbox.with_registry(&shard.registry);
        let endpoint = shard.link.join(id);
        shard.vehicles.insert(
            id,
            Vehicle {
                node,
                inbox,
                endpoint,
            },
        );
        shard.metrics.vehicles.set(shard.vehicles.len() as f64);
        shard.metrics.rehomed_in.inc();
        self.home.insert(id, new_shard);
    }

    /// Enqueues a beacon toward shard `to`; a full ingress channel sheds
    /// it (counted on the destination's `rups_fleet_routed_shed`).
    pub fn route(&self, to: usize, beacon: RoutedBeacon) {
        let shard = &self.shards[to];
        if let Err(TrySendError::Full(_)) = shard.ingress_tx.try_send(beacon) {
            shard.metrics.routed_shed.inc();
        }
    }

    /// Drains every shard's ingress queue; returns total beacons relayed.
    pub fn drain_ingress(&mut self) -> usize {
        self.shards.iter_mut().map(Shard::drain_ingress).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rups_core::config::RupsConfig;
    use rups_core::inbox::InboxConfig;

    fn small_cfg() -> RupsConfig {
        RupsConfig {
            n_channels: 16,
            max_context_m: 300,
            ..RupsConfig::default()
        }
    }

    fn vehicle_parts() -> (RupsNode, SnapshotInbox) {
        let cfg = small_cfg();
        (
            RupsNode::new(cfg.clone()),
            SnapshotInbox::new(InboxConfig::for_rups(&cfg, 30.0)),
        )
    }

    #[test]
    fn cell_assignment_is_deterministic_and_in_range() {
        let set = ShardSet::new(&ShardConfig::default());
        for cx in -5..5 {
            for cy in -5..5 {
                let s = set.shard_for_cell((cx, cy));
                assert!(s < set.n_shards());
                assert_eq!(s, set.shard_for_cell((cx, cy)));
            }
        }
        // Not everything hashes to one shard.
        let distinct: std::collections::BTreeSet<usize> = (-5..5)
            .flat_map(|x| (-5..5).map(move |y| (x, y)))
            .map(|c| set.shard_for_cell(c))
            .collect();
        assert!(distinct.len() > 1, "degenerate cell hash");
    }

    #[test]
    fn admit_and_rehome_move_residency_and_links() {
        let mut set = ShardSet::new(&ShardConfig {
            n_shards: 2,
            ..ShardConfig::default()
        });
        let (node, inbox) = vehicle_parts();
        set.admit(7, 0, node, inbox);
        assert_eq!(set.home_of(7), Some(0));
        // Relay + vehicle on shard 0's link; relay only on shard 1's.
        assert_eq!(set.shard(0).link.peer_count(), 2);
        assert_eq!(set.shard(1).link.peer_count(), 1);
        set.rehome(7, 1);
        assert_eq!(set.home_of(7), Some(1));
        assert_eq!(set.shard(0).link.peer_count(), 1);
        assert_eq!(set.shard(1).link.peer_count(), 2);
        assert_eq!(
            set.shard(1)
                .registry
                .snapshot()
                .counter("rups_fleet_rehomed_in"),
            Some(1)
        );
        // Re-homing to the current shard is a no-op.
        set.rehome(7, 1);
        assert_eq!(set.shard(1).len(), 1);
    }

    #[test]
    fn routed_beacons_reach_residents_via_the_relay() {
        let mut set = ShardSet::new(&ShardConfig {
            n_shards: 2,
            ..ShardConfig::default()
        });
        let (node, inbox) = vehicle_parts();
        set.admit(1, 1, node, inbox);
        set.route(
            1,
            RoutedBeacon {
                from: 42,
                sent_s: 5.0,
                payload: Bytes::from_static(b"beacon"),
            },
        );
        assert_eq!(set.drain_ingress(), 1);
        let got = set.shard(1).vehicles[&1].endpoint.poll_until(6.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, Bytes::from_static(b"beacon"));
        // The relay, not the original sender, is the link-level source;
        // receivers must identify senders from the decoded payload or the
        // relay id space.
        assert!(got[0].from >= RELAY_ID_BASE);
    }

    #[test]
    fn full_ingress_channel_sheds_and_counts() {
        let mut set = ShardSet::new(&ShardConfig {
            n_shards: 1,
            channel_capacity: 2,
            ..ShardConfig::default()
        });
        for i in 0..5 {
            set.route(
                0,
                RoutedBeacon {
                    from: i,
                    sent_s: 0.0,
                    payload: Bytes::from_static(b"x"),
                },
            );
        }
        assert_eq!(set.drain_ingress(), 2);
        let snap = set.shard(0).registry.snapshot();
        assert_eq!(snap.counter("rups_fleet_routed_shed"), Some(3));
        assert_eq!(snap.counter("rups_fleet_routed_in"), Some(2));
    }
}
