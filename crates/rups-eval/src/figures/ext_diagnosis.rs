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
//! by CI from the report the figure returns (`ext-diagnosis-report.json`,
//! written by `evaluate --json`):
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

use crate::figures::{Artefact, EvalScale, CONVOY_CONTEXT_M, CONVOY_HORIZON_S, CONVOY_WARMUP_M};
use crate::rig::{tag_beacon, ConvoyRig, ConvoySpec, SPAN_RING};
use crate::series::{Figure, Series};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_fuse::{FuseConfig, Fuser};
use rups_obs::{
    default_detectors, diagnose, Alarm, DetectorBank, DetectorSpec, DiagnosisReport,
    MetricsSnapshot, NodeWindow, Signal, Stage, CLOCK_OFFSET_GAUGE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use v2v_sim::fault::FaultConfig;

/// Windows the detectors are allowed before a fault counts as missed (and
/// the quiet streak a window must survive before it is certified as a
/// healthy diagnosis baseline).
const DETECTION_HORIZON_W: u64 = 3;

/// Convoy size (ids `1..=n`, id 1 is the fusion anchor).
const N_VEHICLES: usize = 6;
/// True gap between adjacent vehicles, metres.
const GAP_M: f64 = 40.0;
/// Seconds between fix/fuse epochs (beaconing stays at 1 Hz).
const FIX_STRIDE_S: u64 = 5;
/// Seconds per fleet-aggregation window (= one detector observation).
const WINDOW_STRIDE_S: usize = 20;
/// Seconds the faulty clock falls behind (beyond the inbox horizon, so
/// receivers reject the beacons as stale).
const CLOCK_JUMP_S: f64 = 45.0;
/// Simulated slow-query duration, nanoseconds.
const ENGINE_SPIKE_NS: u64 = 2_000_000_000;
/// Slow queries injected per fix epoch while the slowdown is active.
const ENGINE_SPIKES_PER_EPOCH: usize = 8;

/// One staged degradation: the vehicle and pipeline stage it hits, the
/// detector binding expected to catch it, and its windows
/// `[onset_w, clear_w)`.
struct StagedFault {
    name: &'static str,
    detector: &'static str,
    target: u64,
    stage: Stage,
    onset_w: u64,
    clear_w: u64,
}

/// Fault A: one vehicle's *receiver* blacks out.
const BURST_LOSS: StagedFault = StagedFault {
    name: "burst_loss_spike",
    detector: "link_delivery_rate",
    target: 3,
    stage: Stage::Link,
    onset_w: 5,
    clear_w: 7,
};
/// Fault B: one vehicle's clock falls [`CLOCK_JUMP_S`] behind.
const CLOCK_JUMP: StagedFault = StagedFault {
    name: "clock_jump",
    detector: "validation_rejection_rate",
    target: 4,
    stage: Stage::Beacon,
    onset_w: 7,
    clear_w: 9,
};
/// Fault C: one vehicle's engine slows down.
const KERNEL_SLOWDOWN: StagedFault = StagedFault {
    name: "kernel_slowdown",
    detector: "fix_p99_latency",
    target: 2,
    stage: Stage::Engine,
    onset_w: 9,
    clear_w: 11,
};

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

/// Runs the experiment; returns the figure plus its diagnosis report.
pub fn run(s: &EvalScale) -> (Figure, Vec<Artefact>) {
    // Healthy channel impairments (mild, i.i.d.); the staged faults are
    // injected on top.
    let base_faults = FaultConfig::iid_loss(0.02);
    let mut rig = ConvoyRig::new(ConvoySpec {
        cfg: s.convoy_config(),
        n_vehicles: N_VEHICLES,
        gap_m: GAP_M,
        field_seed: s.seed ^ 0xD1A6,
        context_m: CONVOY_CONTEXT_M,
        horizon_s: CONVOY_HORIZON_S,
        faults: base_faults,
        link_seed: s.seed ^ 0xD1A6,
        span_capacity: SPAN_RING,
    });
    let anchor = &rig.vehicle(1).registry;
    let fuser = Fuser::new(FuseConfig {
        anchor: Some(1),
        ..FuseConfig::default()
    })
    .with_observability(Arc::clone(anchor));
    // The anchor's own clock is the fleet timebase by definition.
    anchor.gauge(CLOCK_OFFSET_GAUGE).set(0.0);
    let mut bank = DetectorBank::new(detectors()).with_registry(anchor);

    let stride = WINDOW_STRIDE_S as u64;
    // A fault spanning windows [onset, clear) is active at the metres
    // whose window delta closes inside that range (windows close *after*
    // the metre's traffic, so the boundary metre belongs to the window
    // being emitted, not the next one).
    let active = |f: &StagedFault, epoch_m: u64| -> bool {
        epoch_m > f.onset_w * stride && epoch_m <= f.clear_w * stride
    };
    let blackout = FaultConfig::iid_loss(1.0);
    let mut blackout_on = false;

    let mut node_prev: Vec<MetricsSnapshot> = rig
        .ids()
        .map(|id| rig.vehicle(id).registry.snapshot())
        .collect();
    // Per-node window-delta history (last DETECTION_HORIZON_W windows)
    // plus the certified healthy baseline each diagnosis compares against.
    let mut history: Vec<VecDeque<MetricsSnapshot>> = rig.ids().map(|_| VecDeque::new()).collect();
    let mut certified: Vec<Option<MetricsSnapshot>> = rig.ids().map(|_| None).collect();
    let mut window_alarmed: Vec<bool> = Vec::new();
    let mut alarms: Vec<Alarm> = Vec::new();
    let mut reports: Vec<DiagnosisReport> = Vec::new();
    let mut timeline: Vec<WindowRow> = Vec::new();

    let total_m = CONVOY_WARMUP_M + s.duration_s as usize;
    for metre in 0..total_m {
        let t = metre as f64;
        rig.drive(t);
        if metre < CONVOY_WARMUP_M {
            continue;
        }
        let epoch_m = (metre - CONVOY_WARMUP_M) as u64;

        // Fault A: black out one vehicle's receiver, mid-run, via the
        // link's runtime per-receiver override.
        let want_blackout = active(&BURST_LOSS, epoch_m);
        if want_blackout != blackout_on {
            rig.link()
                .set_receiver_faults(BURST_LOSS.target, want_blackout.then_some(blackout))
                .expect("blackout override validates");
            blackout_on = want_blackout;
        }
        let clock_active = active(&CLOCK_JUMP, epoch_m);
        let engine_active = active(&KERNEL_SLOWDOWN, epoch_m);

        // Everyone beacons a traced snapshot (1 Hz), tagging its own
        // `v2v.beacon` span, and drains its inbox.
        for id in rig.ids() {
            let ring = &rig.vehicle(id).spans;
            rig.beacon_traced(id, t, |snap| {
                tag_beacon(ring, snap);
                // Fault B: the faulty vehicle's clock falls behind, so its
                // beacons carry timestamps past the staleness horizon.
                if clock_active && id == CLOCK_JUMP.target {
                    let shifted: Vec<GeoSample> = snap
                        .geo
                        .samples()
                        .iter()
                        .map(|g| GeoSample {
                            heading_rad: g.heading_rad,
                            timestamp_s: g.timestamp_s - CLOCK_JUMP_S,
                        })
                        .collect();
                    snap.geo = GeoTrajectory::from_samples(shifted);
                }
            });
        }
        for a in rig.deliver(t) {
            // The anchor derives every sender's apparent clock offset from
            // the beacon's own stamps (what a fleet backend recovers from
            // sync fenceposts) and writes it into that node's metrics slot
            // — the beacon-stage evidence `diagnose` keys on.
            if let (1, Some(sender), Some(stamped_s)) = (a.receiver, a.sender, a.stamped_s) {
                if rig.ids().contains(&sender) {
                    let apparent_ns = (stamped_s - a.arrival_s) * 1e9;
                    rig.vehicle(sender)
                        .registry
                        .gauge(CLOCK_OFFSET_GAUGE)
                        .set(apparent_ns);
                }
            }
        }

        if epoch_m.is_multiple_of(FIX_STRIDE_S) {
            let _ = fuser.solve_traced(&rig.fix_graph(&rig.grade_all(t)), None);
            // Fault C: the target vehicle's kernel slows down — its
            // engine histogram records seconds-long queries.
            if engine_active {
                let h = rig
                    .vehicle(KERNEL_SLOWDOWN.target)
                    .registry
                    .histogram("rups_core_engine_query_ns");
                for _ in 0..ENGINE_SPIKES_PER_EPOCH {
                    h.record(ENGINE_SPIKE_NS);
                }
            }
        }

        if epoch_m > 0 && epoch_m.is_multiple_of(stride) {
            let (_, fleet_delta) = rig.fleet_window();
            let node_delta: Vec<MetricsSnapshot> = rig
                .ids()
                .zip(node_prev.iter_mut())
                .map(|(id, prev)| {
                    let snap = rig.vehicle(id).registry.snapshot();
                    let delta = snap.delta(prev);
                    *prev = snap;
                    delta
                })
                .collect();

            let fired = bank.observe(t, &fleet_delta);
            for alarm in &fired {
                let node_windows: Vec<NodeWindow> = rig
                    .ids()
                    .zip(&node_delta)
                    .enumerate()
                    .map(|(k, (id, firing))| NodeWindow {
                        node_id: id,
                        baseline: certified[k]
                            .clone()
                            .or_else(|| history[k].front().cloned())
                            .unwrap_or_else(|| firing.clone()),
                        firing: firing.clone(),
                    })
                    .collect();
                let spans: Vec<(u64, Vec<rups_obs::SpanRecord>)> = rig
                    .ids()
                    .map(|id| (id, rig.vehicle(id).spans.recent()))
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
            if w as u64 >= DETECTION_HORIZON_W && window_alarmed[w - 3..].iter().all(|&a| !a) {
                for (cert, held) in certified.iter_mut().zip(&history) {
                    *cert = held.front().cloned();
                }
            }
        }
    }

    let staged = [BURST_LOSS, CLOCK_JUMP, KERNEL_SLOWDOWN];
    let first_onset = staged.iter().map(|f| f.onset_w).min().unwrap_or(0);
    let false_alarms_before_onset = alarms
        .iter()
        .filter(|a| a.window_index < first_onset)
        .count() as u64;

    let outcome = |f: &StagedFault| -> FaultOutcome {
        let hit = alarms.iter().position(|a| {
            a.detector == f.detector
                && a.window_index >= f.onset_w
                && a.window_index <= f.onset_w + DETECTION_HORIZON_W
        });
        let report = hit.map(|i| &reports[i]);
        let detected_window = hit.map(|i| alarms[i].window_index);
        let localised_correctly =
            report.is_some_and(|r| r.worst_node == f.target && r.worst_stage == f.stage);
        FaultOutcome {
            name: f.name.to_string(),
            detector: f.detector.to_string(),
            expect_node: f.target,
            expect_stage: f.stage,
            onset_window: f.onset_w,
            clear_window: f.clear_w,
            detected_window,
            detection_latency_windows: detected_window.map(|w| w - f.onset_w),
            localised_node: report.map(|r| r.worst_node),
            localised_stage: report.map(|r| r.worst_stage),
            localised_correctly,
        }
    };
    let faults: Vec<FaultOutcome> = staged.iter().map(outcome).collect();
    let all_localised =
        faults.iter().all(|f| f.localised_correctly) && false_alarms_before_onset == 0;

    let artifact = DiagnosisArtifact {
        figure_id: "ext-diagnosis".into(),
        n_vehicles: N_VEHICLES,
        window_stride_s: WINDOW_STRIDE_S,
        base_faults,
        windows_observed: bank.windows_seen(),
        first_onset_window: first_onset,
        false_alarms_before_onset,
        faults,
        alarms,
        reports,
        all_localised,
        timeline,
    };

    let mut notes = vec![format!(
        "{} fleet windows observed, {} alarms, {} false alarms before window {}",
        artifact.windows_observed,
        artifact.alarms.len(),
        artifact.false_alarms_before_onset,
        artifact.first_onset_window,
    )];
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
                if f.localised_correctly {
                    "correct"
                } else {
                    "WRONG"
                },
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

    let figure = Figure {
        id: "ext-diagnosis".into(),
        title: "Online detection and automated diagnosis of staged degradations".into(),
        notes,
        series,
    };
    let report = Artefact::pretty("ext-diagnosis-report.json", &artifact);
    (figure, vec![report])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_faults_are_detected_in_time_and_localised_correctly() {
        let (fig, artefacts) = run(&EvalScale::quick());
        let [report] = &artefacts[..] else {
            panic!("expected the diagnosis report alone")
        };
        assert_eq!(report.file, "ext-diagnosis-report.json");
        let raw = &report.json;
        let art: DiagnosisArtifact = serde_json::from_str(raw).expect("artefact parses");
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
                w >= f.onset_window && f.detection_latency_windows.unwrap() <= DETECTION_HORIZON_W,
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
