//! Extension experiment: online anomaly detection and automated
//! diagnosis over a convoy with three staged degradations.
//!
//! Extends [`ext_fleet_observability`] from *passive* telemetry (windows,
//! SLO verdicts after the fact) to the *active* layer: a
//! [`DetectorBank`] watches the fleet-merged per-window deltas as they
//! close and raises typed [`Alarm`]s online, and every alarm is handed to
//! [`diagnose`], which correlates the per-node window deltas and span
//! rings to localise the fault to a `(vehicle, pipeline stage)` pair.
//!
//! Three degradations are injected at known aggregation windows, each
//! exercising a different detector binding and a different pipeline
//! stage:
//!
//! | fault            | injection                                   | detector                    | stage  |
//! |------------------|---------------------------------------------|-----------------------------|--------|
//! | burst-loss spike | receiver-targeted blackout on one vehicle   | `link_delivery_rate`        | link   |
//! | clock jump       | one vehicle stamps its beacons seconds off  | `validation_rejection_rate` | beacon |
//! | kernel slowdown  | one vehicle's engine histogram inflates     | `fix_p99_latency`           | engine |
//!
//! The acceptance claims, asserted by the in-module test and re-checked
//! by CI from the committed artefact
//! (`results/ext-diagnosis-report.json`):
//!
//! * zero alarms on the clean warmup segment before the first onset;
//! * every fault detected within ≤ 3 aggregation windows of its onset;
//! * every alarm localised to the correct vehicle *and* stage.
//!
//! Diagnosis baselines are *certified* windows: a window's per-node
//! deltas become the healthy reference only after the bank has stayed
//! quiet for the full detection horizon (3 windows), so a fault's own
//! onset window can never be adopted as "healthy" while its detector is
//! still accumulating.
//!
//! [`ext_fleet_observability`]: crate::figures::ext_fleet_observability
//! [`DetectorBank`]: rups_obs::DetectorBank
//! [`Alarm`]: rups_obs::Alarm
//! [`diagnose`]: fn@rups_obs::diagnose

use crate::figures::EvalScale;
use crate::series::{Figure, Series};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::gsm::PowerVector;
use rups_core::inbox::{InboxConfig, SnapshotInbox};
use rups_core::pipeline::RupsNode;
use rups_core::quality::QualityConfig;
use rups_core::testfield;
use rups_fuse::{FixGraph, FuseConfig, Fuser};
use rups_obs::{
    default_detectors, diagnose, Alarm, DetectorBank, DetectorSpec, DiagnosisReport,
    FleetAggregator, FleetSnapshot, MetricsSnapshot, NodeWindow, Registry, Signal, SpanRecorder,
    Stage, CLOCK_OFFSET_GAUGE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use v2v_sim::codec::{try_encode_snapshot, CodecMetrics};
use v2v_sim::fault::FaultConfig;
use v2v_sim::link::V2vLink;

/// Windows the detectors are allowed before a fault counts as missed (and
/// the quiet streak a window must survive before it is certified as a
/// healthy diagnosis baseline).
const DETECTION_HORIZON_W: u64 = 3;

/// Parameters of the diagnosis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Scale knobs (duration, band width, master seed).
    pub scale: EvalScale,
    /// Convoy size (ids `1..=n`, id 1 is the fusion anchor).
    pub n_vehicles: usize,
    /// True gap between adjacent vehicles, metres.
    pub gap_m: f64,
    /// Journey context each vehicle beacons, metres.
    pub context_m: usize,
    /// Metres driven before the first beacon (context build-up).
    pub warmup_m: usize,
    /// Staleness horizon of each vehicle's inbox, seconds.
    pub horizon_s: f64,
    /// Seconds between fix/fuse epochs (beaconing stays at 1 Hz).
    pub fix_stride_s: usize,
    /// Seconds per fleet-aggregation window (= one detector observation).
    pub window_stride_s: usize,
    /// Healthy channel impairments (mild, i.i.d.; the staged faults are
    /// injected on top).
    pub base_faults: FaultConfig,
    /// Capacity of each vehicle's span ring.
    pub span_capacity: usize,
    /// Vehicle whose *receiver* blacks out during the burst-loss fault.
    pub burst_target: u64,
    /// First window of the burst-loss fault.
    pub burst_onset_w: u64,
    /// First window *after* the burst-loss fault.
    pub burst_clear_w: u64,
    /// Vehicle whose clock jumps during the clock fault.
    pub clock_target: u64,
    /// First window of the clock fault.
    pub clock_onset_w: u64,
    /// First window *after* the clock fault.
    pub clock_clear_w: u64,
    /// Seconds the faulty clock falls behind (must exceed `horizon_s` so
    /// receivers reject the beacons as stale).
    pub clock_jump_s: f64,
    /// Vehicle whose engine slows down during the slowdown fault.
    pub engine_target: u64,
    /// First window of the slowdown fault.
    pub engine_onset_w: u64,
    /// First window *after* the slowdown fault.
    pub engine_clear_w: u64,
    /// Simulated slow-query duration, nanoseconds.
    pub engine_spike_ns: u64,
    /// Slow queries injected per fix epoch while the slowdown is active.
    pub engine_spikes_per_epoch: usize,
    /// Where to write the diagnosis artefact JSON; `None` skips it.
    pub out_path: Option<String>,
}

/// Default home of the diagnosis artefact, resolved against the
/// workspace so it lands in `results/` regardless of the invocation
/// directory.
pub fn default_out_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/ext-diagnosis-report.json"
    )
    .to_string()
}

impl Default for Params {
    fn default() -> Self {
        Self {
            scale: EvalScale::paper(),
            n_vehicles: 6,
            gap_m: 40.0,
            context_m: 250,
            warmup_m: 260,
            horizon_s: 10.0,
            fix_stride_s: 5,
            window_stride_s: 20,
            base_faults: FaultConfig::iid_loss(0.02),
            span_capacity: 4096,
            burst_target: 3,
            burst_onset_w: 5,
            burst_clear_w: 7,
            clock_target: 4,
            clock_onset_w: 7,
            clock_clear_w: 9,
            clock_jump_s: 45.0,
            engine_target: 2,
            engine_onset_w: 9,
            engine_clear_w: 11,
            engine_spike_ns: 2_000_000_000,
            engine_spikes_per_epoch: 8,
            out_path: Some(default_out_path()),
        }
    }
}

/// Smaller run for tests and `--quick` smoke passes.
pub fn quick_params() -> Params {
    Params {
        scale: EvalScale::quick(),
        ..Params::default()
    }
}

/// One staged degradation: what was injected, what the detectors and the
/// diagnoser concluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// Human name of the injected fault.
    pub name: String,
    /// The detector binding expected to catch it.
    pub detector: String,
    /// The vehicle the fault was injected on.
    pub expect_node: u64,
    /// The pipeline stage the fault belongs to.
    pub expect_stage: Stage,
    /// First faulted window.
    pub onset_window: u64,
    /// First window after the fault cleared.
    pub clear_window: u64,
    /// Window the expected detector first fired in, when it did.
    pub detected_window: Option<u64>,
    /// `detected_window - onset_window`, when detected.
    pub detection_latency_windows: Option<u64>,
    /// The vehicle [`diagnose`](fn@rups_obs::diagnose) blamed, when detected.
    pub localised_node: Option<u64>,
    /// The stage [`diagnose`](fn@rups_obs::diagnose) blamed, when detected.
    pub localised_stage: Option<Stage>,
    /// Detected within the horizon *and* blamed on the right
    /// `(vehicle, stage)` pair.
    pub localised_correctly: bool,
}

/// One closed aggregation window of the artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowRow {
    /// Simulated time at the end of this window, seconds.
    pub t_s: f64,
    /// Alarms the bank raised on this window.
    pub alarms: u64,
    /// Fleet-merged metrics recorded during this window only.
    pub delta: MetricsSnapshot,
}

/// The machine-readable diagnosis artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisArtifact {
    /// Always `"ext-diagnosis"`.
    pub figure_id: String,
    /// Convoy size.
    pub n_vehicles: usize,
    /// Seconds per aggregation window.
    pub window_stride_s: usize,
    /// The healthy channel impairments under the staged faults.
    pub base_faults: FaultConfig,
    /// Full aggregation windows the detector bank observed.
    pub windows_observed: u64,
    /// First faulted window of the run.
    pub first_onset_window: u64,
    /// Alarms raised before the first onset (the clean-warmup claim:
    /// must be zero).
    pub false_alarms_before_onset: u64,
    /// Every staged degradation and its verdicts.
    pub faults: Vec<FaultOutcome>,
    /// Every alarm the bank raised, in firing order.
    pub alarms: Vec<Alarm>,
    /// One localisation report per alarm, same order.
    pub reports: Vec<DiagnosisReport>,
    /// All three faults detected in time and localised correctly.
    pub all_localised: bool,
    /// Per-window timeline (fleet deltas slimmed via
    /// [`MetricsSnapshot::compact`]).
    pub timeline: Vec<WindowRow>,
}

/// The detector bindings of this run: the default RUPS set plus a link
/// delivery-rate binding (a receiver-side blackout starves one inbox
/// without raising any *rejection*, so only the wire's own delivered /
/// offered ratio sees it at fleet level).
pub fn detectors() -> Vec<DetectorSpec> {
    let mut specs = default_detectors();
    // Debug builds run the engine one to two orders of magnitude slower
    // and jitter whole histogram buckets between windows; a wider
    // deviation floor keeps scheduler noise from scoring as a level
    // shift while a 2 s injected spike still scores ≫ threshold.
    for spec in specs.iter_mut() {
        if spec.signal == Signal::FixP99Latency {
            spec.min_deviation = 2e7;
        }
    }
    specs.push(DetectorSpec::ewma(
        "link_delivery_rate",
        Signal::LinkDeliveryRate,
        0.02,
    ));
    specs
}

/// Runs the experiment, writing the artefact when a path is set.
pub fn run(p: &Params) -> Figure {
    let s = &p.scale;
    let mut cfg = s.rups_config();
    cfg.max_context_m = p.context_m + 150;
    let field_seed = s.seed ^ 0xD1A6;
    let field = |metre: f64, ch: usize| testfield::rssi(field_seed, metre, ch);
    let quality_cfg = QualityConfig::default();

    let n = p.n_vehicles;
    let ids: Vec<u64> = (1..=n as u64).collect();
    let registries: Vec<Arc<Registry>> = ids.iter().map(|_| Arc::new(Registry::new())).collect();
    let rings: Vec<Arc<SpanRecorder>> = ids
        .iter()
        .map(|_| Arc::new(SpanRecorder::new(p.span_capacity)))
        .collect();
    let mut nodes: Vec<RupsNode> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            RupsNode::new(cfg.clone())
                .with_vehicle_id(id)
                .with_observability(Arc::clone(&registries[k]))
                .with_span_recorder(Arc::clone(&rings[k]))
        })
        .collect();
    let link = V2vLink::with_faults_in(p.base_faults, s.seed ^ 0xD1A6, Arc::clone(&registries[0]));
    let endpoints: Vec<_> = ids.iter().map(|&id| link.join(id)).collect();
    let mut inboxes: Vec<SnapshotInbox> = ids
        .iter()
        .enumerate()
        .map(|(k, _)| {
            SnapshotInbox::new(InboxConfig::for_rups(&cfg, p.horizon_s))
                .with_registry(&registries[k])
                .with_spans(Arc::clone(&rings[k]))
        })
        .collect();
    let codecs: Vec<CodecMetrics> = registries
        .iter()
        .map(|r| CodecMetrics::register(r))
        .collect();
    let fuser = Fuser::new(FuseConfig {
        anchor: Some(ids[0]),
        ..FuseConfig::default()
    })
    .with_observability(Arc::clone(&registries[0]));
    // The anchor's own clock is the fleet timebase by definition.
    registries[0].gauge(CLOCK_OFFSET_GAUGE).set(0.0);

    let aggregator = FleetAggregator::new();
    let mut bank = DetectorBank::new(detectors()).with_registry(&registries[0]);
    let snapshot_fleet = |aggregator: &FleetAggregator| -> FleetSnapshot {
        let parts: Vec<(u64, MetricsSnapshot)> = ids
            .iter()
            .zip(registries.iter())
            .map(|(&id, reg)| (id, reg.snapshot()))
            .collect();
        aggregator
            .aggregate(&parts)
            .expect("uncompacted per-node snapshots always bucket-merge")
    };

    let stride = p.window_stride_s as u64;
    // A fault spanning windows [onset, clear) is active at the metres
    // whose window delta closes inside that range (windows close *after*
    // the metre's traffic, so the boundary metre belongs to the window
    // being emitted, not the next one).
    let active = |epoch_m: u64, onset_w: u64, clear_w: u64| -> bool {
        epoch_m > onset_w * stride && epoch_m <= clear_w * stride
    };
    let blackout = FaultConfig::iid_loss(1.0);
    let mut blackout_on = false;
    let engine_idx = ids
        .iter()
        .position(|&id| id == p.engine_target)
        .expect("engine_target is a convoy vehicle");

    let mut prev_merged: Option<FleetSnapshot> = None;
    let mut node_prev: Vec<MetricsSnapshot> =
        registries.iter().map(|r| r.snapshot()).collect();
    // Per-node window-delta history (last DETECTION_HORIZON_W windows)
    // plus the certified healthy baseline each diagnosis compares against.
    let mut history: Vec<VecDeque<MetricsSnapshot>> = ids.iter().map(|_| VecDeque::new()).collect();
    let mut certified: Vec<Option<MetricsSnapshot>> = ids.iter().map(|_| None).collect();
    let mut window_alarmed: Vec<bool> = Vec::new();
    let mut alarms: Vec<Alarm> = Vec::new();
    let mut reports: Vec<DiagnosisReport> = Vec::new();
    let mut timeline: Vec<WindowRow> = Vec::new();

    let total_m = p.warmup_m + s.duration_s as usize;
    for metre in 0..total_m {
        let t = metre as f64;
        for (k, node) in nodes.iter_mut().enumerate() {
            let road_m = t + k as f64 * p.gap_m;
            node.append_metre(
                GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: t,
                },
                &PowerVector::from_fn(cfg.n_channels, |ch| Some(field(road_m, ch))),
            )
            .expect("synthetic drive never mismatches");
        }
        if metre < p.warmup_m {
            continue;
        }
        let epoch_m = (metre - p.warmup_m) as u64;

        // Fault A: black out one vehicle's receiver, mid-run, via the
        // link's runtime per-receiver override.
        let want_blackout = active(epoch_m, p.burst_onset_w, p.burst_clear_w);
        if want_blackout != blackout_on {
            link.set_receiver_faults(p.burst_target, want_blackout.then_some(blackout))
                .expect("blackout override validates");
            blackout_on = want_blackout;
        }
        let clock_active = active(epoch_m, p.clock_onset_w, p.clock_clear_w);
        let engine_active = active(epoch_m, p.engine_onset_w, p.engine_clear_w);

        // Everyone beacons a traced snapshot (1 Hz) and drains its inbox.
        for (k, node) in nodes.iter_mut().enumerate() {
            let (mut snap, ctx) = node.traced_snapshot(Some(p.context_m), metre as u32);
            let ctx = ctx.expect("convoy vehicles carry ids");
            {
                let mut g = rings[k].span("v2v.beacon");
                g.set_args(ctx.args());
            }
            // Fault B: the faulty vehicle's clock falls behind, so its
            // beacons carry timestamps past the staleness horizon.
            if clock_active && ids[k] == p.clock_target {
                let shifted: Vec<GeoSample> = snap
                    .geo
                    .samples()
                    .iter()
                    .map(|g| GeoSample {
                        heading_rad: g.heading_rad,
                        timestamp_s: g.timestamp_s - p.clock_jump_s,
                    })
                    .collect();
                snap.geo = GeoTrajectory::from_samples(shifted);
            }
            if let Ok(bytes) = try_encode_snapshot(&snap) {
                endpoints[k].broadcast_traced(t, bytes, ctx);
            }
        }
        for (k, ep) in endpoints.iter().enumerate() {
            for delivery in ep.poll_until(t) {
                if let Ok(snap) = codecs[k].decode(&delivery.payload) {
                    // The anchor derives every sender's apparent clock
                    // offset from the beacon's own stamps (what a fleet
                    // backend recovers from sync fenceposts) and writes
                    // it into that node's metrics slot — the beacon-stage
                    // evidence `diagnose` keys on.
                    if k == 0 {
                        if let (Some(sender), Some(newest)) =
                            (snap.vehicle_id, snap.geo.samples().last())
                        {
                            if let Some(idx) = ids.iter().position(|&i| i == sender) {
                                let apparent_ns =
                                    (newest.timestamp_s - delivery.arrival_s) * 1e9;
                                registries[idx].gauge(CLOCK_OFFSET_GAUGE).set(apparent_ns);
                            }
                        }
                    }
                    let _ = inboxes[k].accept(snap, delivery.arrival_s);
                }
            }
        }

        if epoch_m.is_multiple_of(p.fix_stride_s as u64) {
            let mut graph = FixGraph::new();
            for &id in &ids {
                graph.insert_node(id);
            }
            for (k, node) in nodes.iter_mut().enumerate() {
                let observer = ids[k];
                for (id, graded) in node.fix_inbox_parallel(&inboxes[k], t, &quality_cfg) {
                    let Some(neighbour) = id else { continue };
                    if neighbour == observer || !ids.contains(&neighbour) {
                        continue;
                    }
                    if let Ok(graded) = graded {
                        graph.insert_fix(observer, neighbour, &graded);
                    }
                }
            }
            let _ = fuser.solve_traced(&graph, None);
            // Fault C: the target vehicle's kernel slows down — its
            // engine histogram records seconds-long queries.
            if engine_active {
                let h = registries[engine_idx].histogram("rups_core_engine_query_ns");
                for _ in 0..p.engine_spikes_per_epoch {
                    h.record(p.engine_spike_ns);
                }
            }
        }

        if epoch_m > 0 && epoch_m.is_multiple_of(stride) {
            let fleet = snapshot_fleet(&aggregator);
            let fleet_delta = match &prev_merged {
                Some(prev) => fleet.delta(prev),
                None => fleet.merged.clone(),
            };
            prev_merged = Some(fleet);
            let node_delta: Vec<MetricsSnapshot> = registries
                .iter()
                .zip(node_prev.iter_mut())
                .map(|(reg, prev)| {
                    let snap = reg.snapshot();
                    let delta = snap.delta(prev);
                    *prev = snap;
                    delta
                })
                .collect();

            let fired = bank.observe(t, &fleet_delta);
            for alarm in &fired {
                let node_windows: Vec<NodeWindow> = ids
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| NodeWindow {
                        node_id: id,
                        baseline: certified[k]
                            .clone()
                            .or_else(|| history[k].front().cloned())
                            .unwrap_or_else(|| node_delta[k].clone()),
                        firing: node_delta[k].clone(),
                    })
                    .collect();
                let spans: Vec<(u64, Vec<rups_obs::SpanRecord>)> = ids
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| (id, rings[k].recent()))
                    .collect();
                reports.push(
                    diagnose(alarm, &node_windows, &spans)
                        .expect("convoy diagnosis always has nodes"),
                );
            }
            window_alarmed.push(!fired.is_empty());
            timeline.push(WindowRow {
                t_s: t,
                alarms: fired.len() as u64,
                delta: fleet_delta.compact(),
            });
            alarms.extend(fired);

            for (k, delta) in node_delta.into_iter().enumerate() {
                if history[k].len() as u64 == DETECTION_HORIZON_W {
                    history[k].pop_front();
                }
                history[k].push_back(delta);
            }
            // Certify the oldest held window as the healthy baseline only
            // once the bank stayed quiet for the full detection horizon.
            let w = window_alarmed.len();
            if w as u64 >= DETECTION_HORIZON_W
                && window_alarmed[w - 3..].iter().all(|&a| !a)
            {
                for k in 0..n {
                    certified[k] = history[k].front().cloned();
                }
            }
        }
    }

    let first_onset = p
        .burst_onset_w
        .min(p.clock_onset_w)
        .min(p.engine_onset_w);
    let false_alarms_before_onset = alarms
        .iter()
        .filter(|a| a.window_index < first_onset)
        .count() as u64;

    let outcome = |name: &str,
                   detector: &str,
                   node: u64,
                   stage: Stage,
                   onset: u64,
                   clear: u64|
     -> FaultOutcome {
        let hit = alarms.iter().position(|a| {
            a.detector == detector
                && a.window_index >= onset
                && a.window_index <= onset + DETECTION_HORIZON_W
        });
        let report = hit.map(|i| &reports[i]);
        let detected_window = hit.map(|i| alarms[i].window_index);
        let localised_correctly = report
            .is_some_and(|r| r.worst_node == node && r.worst_stage == stage);
        FaultOutcome {
            name: name.to_string(),
            detector: detector.to_string(),
            expect_node: node,
            expect_stage: stage,
            onset_window: onset,
            clear_window: clear,
            detected_window,
            detection_latency_windows: detected_window.map(|w| w - onset),
            localised_node: report.map(|r| r.worst_node),
            localised_stage: report.map(|r| r.worst_stage),
            localised_correctly,
        }
    };
    let faults = vec![
        outcome(
            "burst_loss_spike",
            "link_delivery_rate",
            p.burst_target,
            Stage::Link,
            p.burst_onset_w,
            p.burst_clear_w,
        ),
        outcome(
            "clock_jump",
            "validation_rejection_rate",
            p.clock_target,
            Stage::Beacon,
            p.clock_onset_w,
            p.clock_clear_w,
        ),
        outcome(
            "kernel_slowdown",
            "fix_p99_latency",
            p.engine_target,
            Stage::Engine,
            p.engine_onset_w,
            p.engine_clear_w,
        ),
    ];
    let all_localised = faults.iter().all(|f| f.localised_correctly)
        && false_alarms_before_onset == 0;

    let artifact = DiagnosisArtifact {
        figure_id: "ext-diagnosis".into(),
        n_vehicles: n,
        window_stride_s: p.window_stride_s,
        base_faults: p.base_faults,
        windows_observed: bank.windows_seen(),
        first_onset_window: first_onset,
        false_alarms_before_onset,
        faults,
        alarms,
        reports,
        all_localised,
        timeline,
    };

    let mut notes = Vec::new();
    if let Some(path) = &p.out_path {
        write_artifact(path, &artifact);
        notes.push(format!("diagnosis artefact written to {path}"));
    }
    notes.push(format!(
        "{} fleet windows observed, {} alarms, {} false alarms before window {}",
        artifact.windows_observed,
        artifact.alarms.len(),
        artifact.false_alarms_before_onset,
        artifact.first_onset_window,
    ));
    for f in &artifact.faults {
        notes.push(match f.detected_window {
            Some(w) => format!(
                "{}: {} fired on window {} ({} window(s) after onset {}), localised to \
                 vehicle {:?} / {:?} — {}",
                f.name,
                f.detector,
                w,
                f.detection_latency_windows.unwrap_or(0),
                f.onset_window,
                f.localised_node,
                f.localised_stage,
                if f.localised_correctly { "correct" } else { "WRONG" },
            ),
            None => format!(
                "{}: NOT detected within {} windows of onset {}",
                f.name, DETECTION_HORIZON_W, f.onset_window
            ),
        });
    }

    // Figure view: the three watched readings plus alarms per window.
    let x: Vec<f64> = artifact.timeline.iter().map(|w| w.t_s).collect();
    let series_of = |label: &str, f: &dyn Fn(&MetricsSnapshot) -> f64| {
        Series::new(
            label,
            x.clone(),
            artifact.timeline.iter().map(|w| f(&w.delta)).collect(),
        )
    };
    let series = vec![
        series_of("fleet link delivery rate per window", &|d| {
            Signal::LinkDeliveryRate.read(d).map_or(0.0, |r| r.value)
        }),
        series_of("fleet validation rejection rate per window", &|d| {
            Signal::ValidationRejectionRate
                .read(d)
                .map_or(0.0, |r| r.value)
        }),
        series_of("fleet engine query p99 per window (ms)", &|d| {
            Signal::FixP99Latency.read(d).map_or(0.0, |r| r.value / 1e6)
        }),
        Series::new(
            "alarms per window",
            x.clone(),
            artifact.timeline.iter().map(|w| w.alarms as f64).collect(),
        ),
    ];

    Figure {
        id: "ext-diagnosis".into(),
        title: "Online detection and automated diagnosis of staged degradations".into(),
        notes,
        series,
    }
}

/// Serialises the diagnosis artefact to `path`, creating parent
/// directories.
fn write_artifact(path: &str, artifact: &DiagnosisArtifact) {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        std::fs::create_dir_all(parent).expect("create diagnosis output dir");
    }
    let json = serde_json::to_string_pretty(artifact).expect("serialize diagnosis artifact");
    std::fs::write(p, json).expect("write diagnosis artifact");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_faults_are_detected_in_time_and_localised_correctly() {
        let mut p = quick_params();
        let out = std::env::temp_dir().join("rups-ext-diagnosis-test.json");
        p.out_path = Some(out.to_string_lossy().into_owned());
        let fig = run(&p);

        let raw = std::fs::read_to_string(&out).expect("artefact written");
        std::fs::remove_file(&out).ok();
        let art: DiagnosisArtifact = serde_json::from_str(&raw).expect("artefact parses");
        assert_eq!(art.figure_id, "ext-diagnosis");

        // The clean warmup segment never false-alarms.
        assert_eq!(
            art.false_alarms_before_onset, 0,
            "false alarms before window {}: {:?}",
            art.first_onset_window, art.alarms
        );

        // Every staged fault: detected within the horizon, blamed on the
        // right vehicle and the right pipeline stage.
        assert_eq!(art.faults.len(), 3);
        for f in &art.faults {
            let w = f
                .detected_window
                .unwrap_or_else(|| panic!("{} not detected: {raw}", f.name));
            assert!(
                w >= f.onset_window
                    && f.detection_latency_windows.unwrap() <= DETECTION_HORIZON_W,
                "{} detected too late: window {w} vs onset {}",
                f.name,
                f.onset_window
            );
            assert_eq!(
                (f.localised_node, f.localised_stage),
                (Some(f.expect_node), Some(f.expect_stage)),
                "{} mislocalised",
                f.name
            );
            assert!(f.localised_correctly);
        }
        assert!(art.all_localised);

        // Each report carries ranked evidence, strongest first.
        assert_eq!(art.reports.len(), art.alarms.len());
        for r in &art.reports {
            assert!(r.worst_score > 0.0);
            assert!(r.scores.windows(2).all(|w| w[0].score >= w[1].score));
        }

        // The figure view mirrors the timeline.
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].x.len(), art.timeline.len());
        assert_eq!(art.windows_observed, art.timeline.len() as u64);
    }
}
