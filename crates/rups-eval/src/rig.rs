//! The convoy rig: the beacon → link → inbox → fix chain every convoy
//! experiment replays (§V-B), written once.
//!
//! A [`ConvoyRig`] holds vehicles `1..=n` on the shared testfield at exact
//! gaps: vehicle k sits at road metre t + (k−1)·gap at simulated second
//! t (everyone drives 1 m/s, id 1 at the rear). Each vehicle owns a
//! [`RupsNode`], a metrics [`Registry`], a span ring, a vetted
//! [`SnapshotInbox`] and codec counters; the convoy shares one faulted
//! [`V2vLink`], metered by vehicle 1's registry and traced into a wire
//! ring of its own. A figure drives the stages in order —
//! [`drive`](ConvoyRig::drive), [`beacon`](ConvoyRig::beacon) or
//! [`beacon_traced`](ConvoyRig::beacon_traced),
//! [`deliver`](ConvoyRig::deliver), [`grade`](ConvoyRig::grade) /
//! [`grade_all`](ConvoyRig::grade_all), [`fleet_window`](ConvoyRig::fleet_window)
//! — and keeps only its scenario, injections and measurements.
//!
//! This is not [`rups_fleet::FleetSim`]: that places vehicles by urban
//! car-following and fixes halo candidates one task at a time, while the
//! rig holds a testfield convoy at exact gaps so every fix has a known
//! truth.

use rups_core::config::RupsConfig;
use rups_core::error::RupsError;
use rups_core::geo::GeoSample;
use rups_core::gsm::PowerVector;
use rups_core::inbox::{InboxConfig, SnapshotInbox};
use rups_core::pipeline::{ContextSnapshot, GradedFix, RupsNode};
use rups_core::quality::QualityConfig;
use rups_core::testfield;
use rups_fuse::{weight_for, FixGraph};
use rups_obs::{
    FleetAggregator, FleetSnapshot, MetricsSnapshot, Registry, SpanRecorder, TraceContext,
};
use std::ops::RangeInclusive;
use std::sync::Arc;
use v2v_sim::codec::{try_encode_snapshot, CodecMetrics};
use v2v_sim::fault::FaultConfig;
use v2v_sim::link::{Endpoint, V2vLink};

/// Span-ring capacity of a convoy's vehicles and wire (and of the soak
/// harness's rings).
pub const SPAN_RING: usize = 4096;

/// The acceptance channel: 30 % expected loss arriving in bursts
/// (stationary bad fraction 0.15/(0.15+0.35)), plus duplication,
/// reordering, jitter and 1 % payload corruption.
pub fn acceptance_faults() -> FaultConfig {
    FaultConfig {
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.01,
        jitter_s: 0.02,
        ..FaultConfig::bursty(0.15, 0.35, 1.0)
    }
}

/// Everything that defines a convoy.
#[derive(Debug, Clone)]
pub struct ConvoySpec {
    /// Configuration every vehicle's node runs.
    pub cfg: RupsConfig,
    /// Convoy size (ids `1..=n`, id 1 at the rear).
    pub n_vehicles: usize,
    /// True gap between adjacent vehicles, metres (held exactly).
    pub gap_m: f64,
    /// Seed of the testfield the convoy drives through.
    pub field_seed: u64,
    /// Journey context each beacon carries, metres.
    pub context_m: usize,
    /// Staleness horizon of each inbox, seconds.
    pub horizon_s: f64,
    /// Impairments of the shared link.
    pub faults: FaultConfig,
    /// Seed of the link's fault draws.
    pub link_seed: u64,
    /// Capacity of each vehicle's span ring and of the wire ring.
    pub span_capacity: usize,
}

/// One convoy vehicle and its telemetry.
pub struct Vehicle {
    /// Vehicle id (`1..=n`).
    pub id: u64,
    /// The node fixing distances.
    pub node: RupsNode,
    /// Registry the node, inbox and codec record into.
    pub registry: Arc<Registry>,
    /// Span ring of the node's engine and the inbox.
    pub spans: Arc<SpanRecorder>,
    /// The vetted neighbour contexts the node grades against.
    pub inbox: SnapshotInbox,
    codec: CodecMetrics,
    endpoint: Endpoint,
}

/// One beacon a vehicle decoded and offered to its inbox.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// The receiving vehicle.
    pub receiver: u64,
    /// The vehicle id the beacon names.
    pub sender: Option<u64>,
    /// The beacon's trace context, when it was traced.
    pub trace: Option<TraceContext>,
    /// Timestamp of the beacon's newest metre (the sender's clock).
    pub stamped_s: Option<f64>,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
    /// The inbox verdict (`Ok(false)`: outdated, ignored).
    pub accepted: Result<bool, RupsError>,
}

/// One usable fix between two convoy vehicles.
#[derive(Debug, Clone)]
pub struct ConvoyFix {
    /// The vehicle that fixed the distance.
    pub observer: u64,
    /// The vehicle it fixed the distance to.
    pub neighbour: u64,
    /// The graded fix.
    pub graded: GradedFix,
}

/// The strongest fix between `a` and `b`, either way round, by its fusion
/// weight (the last of equals).
pub fn best_fix(fixes: &[ConvoyFix], a: u64, b: u64) -> Option<&ConvoyFix> {
    fixes
        .iter()
        .filter(|f| (f.observer, f.neighbour) == (a, b) || (f.observer, f.neighbour) == (b, a))
        .max_by(|x, y| weight_for(&x.graded.report).total_cmp(&weight_for(&y.graded.report)))
}

/// Records the sender half of a beacon's causal trace: a `v2v.beacon`
/// span in `spans`, tagged with the snapshot's trace.
pub fn tag_beacon(spans: &SpanRecorder, snap: &ContextSnapshot) {
    if let Some(ctx) = snap.trace {
        drop(spans.span_args("v2v.beacon", ctx.args()));
    }
}

/// A testfield convoy wired through one faulted link.
pub struct ConvoyRig {
    spec: ConvoySpec,
    vehicles: Vec<Vehicle>,
    link: V2vLink,
    wire: Arc<SpanRecorder>,
    aggregator: FleetAggregator,
    last_merged: Option<MetricsSnapshot>,
}

impl ConvoyRig {
    /// Builds the convoy with bare nodes.
    pub fn new(spec: ConvoySpec) -> Self {
        Self::with_extras(spec, |_, node, _, _| node)
    }

    /// Builds the convoy; `extras(id, node, registry, spans)` attaches
    /// whatever else a vehicle's node carries (a flight recorder, a tail
    /// sampler) once its registry and span ring are wired.
    pub fn with_extras(
        spec: ConvoySpec,
        mut extras: impl FnMut(u64, RupsNode, &Arc<Registry>, &Arc<SpanRecorder>) -> RupsNode,
    ) -> Self {
        let ids = 1..=spec.n_vehicles as u64;
        let registries: Vec<Arc<Registry>> =
            ids.clone().map(|_| Arc::new(Registry::new())).collect();
        let wire = Arc::new(SpanRecorder::new(spec.span_capacity));
        let link = V2vLink::with_faults_in(spec.faults, spec.link_seed, Arc::clone(&registries[0]))
            .with_spans(Arc::clone(&wire));
        let vehicles = ids
            .zip(registries)
            .map(|(id, registry)| {
                let spans = Arc::new(SpanRecorder::new(spec.span_capacity));
                let node = RupsNode::new(spec.cfg.clone())
                    .with_vehicle_id(id)
                    .with_observability(Arc::clone(&registry))
                    .with_span_recorder(Arc::clone(&spans));
                Vehicle {
                    id,
                    node: extras(id, node, &registry, &spans),
                    inbox: SnapshotInbox::new(InboxConfig::for_rups(&spec.cfg, spec.horizon_s))
                        .with_registry(&registry)
                        .with_spans(Arc::clone(&spans)),
                    codec: CodecMetrics::register(&registry),
                    endpoint: link.join(id),
                    registry,
                    spans,
                }
            })
            .collect();
        Self {
            spec,
            vehicles,
            link,
            wire,
            aggregator: FleetAggregator::new(),
            last_merged: None,
        }
    }

    /// The vehicle ids, rear first.
    pub fn ids(&self) -> RangeInclusive<u64> {
        1..=self.spec.n_vehicles as u64
    }

    /// One vehicle.
    ///
    /// # Panics
    /// Panics when `id` is not a convoy member.
    pub fn vehicle(&self, id: u64) -> &Vehicle {
        &self.vehicles[self.index(id)]
    }

    fn index(&self, id: u64) -> usize {
        assert!(
            self.ids().contains(&id),
            "vehicle {id} is not in the convoy"
        );
        id as usize - 1
    }

    /// The shared link (for staging targeted degradations).
    pub fn link(&self) -> &V2vLink {
        &self.link
    }

    /// The ring of the link's fault events.
    pub fn wire(&self) -> &Arc<SpanRecorder> {
        &self.wire
    }

    /// Every vehicle records the metre it reaches at simulated second `t`.
    pub fn drive(&mut self, t: f64) {
        let spec = &self.spec;
        for v in &mut self.vehicles {
            let road_m = t + (v.id - 1) as f64 * spec.gap_m;
            let power = PowerVector::from_fn(spec.cfg.n_channels, |ch| {
                Some(testfield::rssi(spec.field_seed, road_m, ch))
            });
            let geo = GeoSample {
                heading_rad: 0.0,
                timestamp_s: t,
            };
            v.node
                .append_metre(geo, &power)
                .expect("synthetic drive never mismatches");
        }
    }

    /// Vehicle `id` broadcasts its newest context at `t`.
    pub fn beacon(&self, id: u64, t: f64) {
        let v = self.vehicle(id);
        if let Ok(wire) = try_encode_snapshot(&v.node.snapshot(Some(self.spec.context_m))) {
            v.endpoint.broadcast(t, wire);
        }
    }

    /// Vehicle `id` broadcasts a traced snapshot (sequence = the simulated
    /// second); `edit` sees the snapshot before it is encoded.
    pub fn beacon_traced(&self, id: u64, t: f64, edit: impl FnOnce(&mut ContextSnapshot)) {
        let v = self.vehicle(id);
        let (mut snap, ctx) = v.node.traced_snapshot(Some(self.spec.context_m), t as u32);
        edit(&mut snap);
        if let Ok(wire) = try_encode_snapshot(&snap) {
            v.endpoint
                .broadcast_traced(t, wire, ctx.expect("convoy vehicles carry ids"));
        }
    }

    /// Every vehicle takes in what has arrived by `t`: decode, then
    /// inbox intake at the arrival time. Returns the decoded beacons in
    /// intake order.
    pub fn deliver(&mut self, t: f64) -> Vec<Arrival> {
        let mut arrivals = Vec::new();
        for v in &mut self.vehicles {
            for delivery in v.endpoint.poll_until(t) {
                let Ok(snap) = v.codec.decode(&delivery.payload) else {
                    continue;
                };
                arrivals.push(Arrival {
                    receiver: v.id,
                    sender: snap.vehicle_id,
                    trace: snap.trace,
                    stamped_s: snap.geo.samples().last().map(|g| g.timestamp_s),
                    arrival_s: delivery.arrival_s,
                    accepted: v.inbox.accept(snap, delivery.arrival_s),
                });
            }
        }
        arrivals
    }

    /// Hands a snapshot straight to vehicle `id`'s inbox, bypassing the
    /// link.
    pub fn accept(&mut self, id: u64, snap: ContextSnapshot, t: f64) -> Result<bool, RupsError> {
        let k = self.index(id);
        self.vehicles[k].inbox.accept(snap, t)
    }

    /// Vehicle `id` grades a fix against every fresh snapshot it holds at
    /// `t`; only outcomes naming another convoy vehicle come back.
    pub fn grade(&self, id: u64, t: f64) -> Vec<(u64, Result<GradedFix, RupsError>)> {
        let v = self.vehicle(id);
        v.node
            .fix_inbox_parallel(&v.inbox, t, &QualityConfig::default())
            .into_iter()
            .filter_map(|(neighbour, graded)| {
                let neighbour = neighbour.filter(|&n| n != id && self.ids().contains(&n))?;
                Some((neighbour, graded))
            })
            .collect()
    }

    /// Every vehicle grades (rear first); the usable fixes, in that order.
    pub fn grade_all(&self, t: f64) -> Vec<ConvoyFix> {
        self.ids()
            .flat_map(|observer| {
                self.grade(observer, t)
                    .into_iter()
                    .filter_map(move |(neighbour, graded)| {
                        Some(ConvoyFix {
                            observer,
                            neighbour,
                            graded: graded.ok()?,
                        })
                    })
            })
            .collect()
    }

    /// The fix graph of `fixes`: every convoy vehicle a node, every fix an
    /// edge.
    pub fn fix_graph(&self, fixes: &[ConvoyFix]) -> FixGraph {
        let mut graph = FixGraph::new();
        for id in self.ids() {
            graph.insert_node(id);
        }
        for f in fixes {
            graph.insert_fix(f.observer, f.neighbour, &f.graded);
        }
        graph
    }

    /// The fleet snapshot now, and the fleet-merged delta since the
    /// previous call (everything so far, on the first).
    pub fn fleet_window(&mut self) -> (FleetSnapshot, MetricsSnapshot) {
        let parts: Vec<(u64, MetricsSnapshot)> = self
            .vehicles
            .iter()
            .map(|v| (v.id, v.registry.snapshot()))
            .collect();
        let fleet = self
            .aggregator
            .aggregate(&parts)
            .expect("uncompacted per-node snapshots always bucket-merge");
        let delta = match &self.last_merged {
            Some(prev) => fleet.merged.delta(prev),
            None => fleet.merged.clone(),
        };
        self.last_merged = Some(fleet.merged.clone());
        (fleet, delta)
    }
}
