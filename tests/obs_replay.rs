//! Replays committed observability artefacts through today's rule code.
//!
//! `results/ext-fleet-observability-fleet.json` records a fleet run's
//! merged snapshot, per-window deltas, fired flight triggers, SLO verdict
//! and Prometheus exposition; `results/ext-diagnosis-report.json` records
//! the fleet-window timeline a detector bank watched and the alarms it
//! raised. Re-running the shipped rule sets over the recorded inputs must
//! give back exactly the recorded verdicts — f64 values bit for bit — so
//! any change to how SLOs, triggers, detectors or rankings read metrics
//! shows up here as a diff against evidence already in the repo.
//!
//! Verdicts are read through test-local structs holding only the fields
//! the artefacts have always carried; extra keys are ignored, so newer
//! artefacts replay through the same assertions.

use rups_core::report::default_flight_config;
use rups_eval::figures::ext_diagnosis;
use rups_obs::{
    check_fleet_rules, default_slos, evaluate_slos, DetectorBank, DetectorKind, FleetAggregator,
    FleetSnapshot, MetricsSnapshot, NodeScore, WorstList,
};
use serde::Deserialize;

fn artefact(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[derive(Deserialize)]
struct FleetArtefact {
    windows: Vec<FleetWindow>,
    fleet: RecordedFleet,
    prometheus: String,
    slo: RecordedVerdict,
}

#[derive(Deserialize)]
struct FleetWindow {
    t_s: f64,
    delta: MetricsSnapshot,
    triggers: Vec<RecordedTrigger>,
}

#[derive(Deserialize)]
struct RecordedTrigger {
    t_s: f64,
    rule: String,
    value: f64,
}

#[derive(Deserialize)]
struct RecordedFleet {
    nodes: Vec<u64>,
    merged: MetricsSnapshot,
    worst: Vec<RecordedWorst>,
}

#[derive(Deserialize)]
struct RecordedWorst {
    criterion: String,
    ranked: Vec<NodeScore>,
}

#[derive(Deserialize)]
struct RecordedVerdict {
    pass: bool,
    reports: Vec<RecordedReport>,
}

#[derive(Deserialize)]
struct RecordedReport {
    name: String,
    pass: bool,
    observed: f64,
    threshold: f64,
    events: u64,
    armed: bool,
}

#[derive(Deserialize)]
struct DiagnosisArtefact {
    alarms: Vec<RecordedAlarm>,
    timeline: Vec<DiagnosisWindow>,
}

#[derive(Deserialize)]
struct DiagnosisWindow {
    t_s: f64,
    alarms: u64,
    delta: MetricsSnapshot,
}

#[derive(Deserialize)]
struct RecordedAlarm {
    detector: String,
    kind: DetectorKind,
    t_s: f64,
    window_index: u64,
    value: f64,
    baseline: f64,
    score: f64,
    threshold: f64,
}

fn fleet_artefact() -> FleetArtefact {
    serde_json::from_str(&artefact("ext-fleet-observability-fleet.json"))
        .expect("fleet artefact parses")
}

#[test]
fn slo_verdict_replays_from_the_recorded_timeline() {
    let art = fleet_artefact();
    let windows: Vec<MetricsSnapshot> = art.windows.iter().map(|w| w.delta.clone()).collect();
    // The figure judges against a 500 ms p99 ceiling (its default).
    let verdict = evaluate_slos(&default_slos(5e8), &art.fleet.merged, &windows);
    assert_eq!(verdict.pass, art.slo.pass);
    assert_eq!(verdict.reports.len(), 4);
    assert_eq!(verdict.reports.len(), art.slo.reports.len());
    for (got, want) in verdict.reports.iter().zip(&art.slo.reports) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.pass, want.pass, "{}", want.name);
        assert_eq!(got.armed, want.armed, "{}", want.name);
        assert_eq!(got.events, want.events, "{}", want.name);
        assert_eq!(
            got.observed.to_bits(),
            want.observed.to_bits(),
            "{}: observed {} vs recorded {}",
            want.name,
            got.observed,
            want.observed
        );
        assert_eq!(
            got.threshold.to_bits(),
            want.threshold.to_bits(),
            "{}",
            want.name
        );
    }
}

#[test]
fn fleet_triggers_replay_window_by_window() {
    let art = fleet_artefact();
    let rules = default_flight_config().rules;
    assert!(!art.windows.is_empty());
    for w in &art.windows {
        let fired = check_fleet_rules(&rules, w.t_s, &w.delta);
        assert_eq!(fired.len(), w.triggers.len(), "window at {} s", w.t_s);
        for (got, want) in fired.iter().zip(&w.triggers) {
            assert_eq!(got.rule, want.rule);
            assert_eq!(got.t_s.to_bits(), want.t_s.to_bits());
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "{}", want.rule);
        }
    }
}

#[test]
fn fleet_prometheus_exposition_is_byte_identical() {
    let art = fleet_artefact();
    let criteria = FleetAggregator::default().criteria;
    let worst: Vec<WorstList> = art
        .fleet
        .worst
        .into_iter()
        .map(|w| {
            let c = criteria
                .iter()
                .find(|c| c.label == w.criterion)
                .unwrap_or_else(|| panic!("{} is a default criterion", w.criterion));
            WorstList {
                criterion: w.criterion,
                signal: c.signal,
                ranked: w.ranked,
            }
        })
        .collect();
    let fleet = FleetSnapshot {
        nodes: art.fleet.nodes,
        merged: art.fleet.merged,
        worst,
    };
    assert_eq!(fleet.to_prometheus(), art.prometheus);
}

#[test]
fn diagnosis_alarms_replay_from_the_recorded_timeline() {
    let art: DiagnosisArtefact = serde_json::from_str(&artefact("ext-diagnosis-report.json"))
        .expect("diagnosis artefact parses");
    let mut bank = DetectorBank::new(ext_diagnosis::detectors());
    let mut alarms = Vec::new();
    for (i, w) in art.timeline.iter().enumerate() {
        let fired = bank.observe(w.t_s, &w.delta);
        assert_eq!(fired.len() as u64, w.alarms, "window {i}");
        alarms.extend(fired);
    }
    assert_eq!(alarms.len(), 5);
    assert_eq!(alarms.len(), art.alarms.len());
    for (got, want) in alarms.iter().zip(&art.alarms) {
        assert_eq!(got.detector, want.detector);
        assert_eq!(got.kind, want.kind, "{}", want.detector);
        assert_eq!(got.window_index, want.window_index, "{}", want.detector);
        for (field, g, w) in [
            ("t_s", got.t_s, want.t_s),
            ("value", got.value, want.value),
            ("baseline", got.baseline, want.baseline),
            ("score", got.score, want.score),
            ("threshold", got.threshold, want.threshold),
        ] {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{} {field}: {g} vs {w}",
                want.detector
            );
        }
    }
}
