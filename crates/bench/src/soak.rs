//! SLO-gated soak harness: sustained multi-vehicle load, judged from
//! telemetry alone.
//!
//! [`run_soak`] drives an n-vehicle [`ConvoyRig`] — traced beacons over
//! its faulted link, codec validation, inbox vetting and periodic fix
//! epochs on every vehicle — for a fixed
//! *wall-clock* budget, looping the simulated drive as fast as the build
//! allows. While it runs it does two production-shaped things:
//!
//! * samples the process's **live allocated bytes** through a caller
//!   provided probe (the `soak` binary and the smoke test install a
//!   counting `#[global_allocator]`), and afterwards asserts the warm
//!   path is allocation-flat: the second half of the post-warmup samples
//!   must not sit measurably above the first half;
//! * folds the per-vehicle registries into per-window fleet deltas with
//!   a [`FleetAggregator`] and judges the run against the declarative
//!   [`default_slos`] set via [`evaluate_slos`] — no ground truth, only
//!   what the registries observed;
//! * feeds every fleet window to a [`DetectorBank`] of the
//!   [`default_detectors`] so level shifts and drifts raise [`Alarm`]s
//!   *during* the run (early warnings, stamped with their detection
//!   window), and runs a [`TailSampler`] per vehicle, judged afterwards
//!   against an exhaustive shadow set: every anomalous trace must be
//!   retained while total committed volume and the sampler's own
//!   measured record-path overhead stay bounded (the [`SamplerVerdict`]
//!   gate).
//!
//! Everything the harness retains is bounded: memory samples decimate
//! (stride doubles) once their preallocated buffer fills, and the window
//! ring keeps the newest [`WINDOW_CAP`] deltas, so the harness itself
//! cannot mask — or cause — a leak. The outcome serialises to JSON; the
//! `soak` binary exits non-zero on any breach, which is the CI gate.
//!
//! [`FleetAggregator`]: rups_obs::FleetAggregator
//! [`default_slos`]: rups_obs::default_slos
//! [`evaluate_slos`]: rups_obs::evaluate_slos

use crate::bench_config;
use rups_core::quality::FixQuality;
use rups_eval::rig::{acceptance_faults, ConvoyRig, ConvoySpec, SPAN_RING};
use rups_obs::{
    default_detectors, default_slos, evaluate_slos, Alarm, DetectorBank, MetricsSnapshot,
    SampleConfig, SloSpec, SloVerdict, TailSampler, TRACE_ARG,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use v2v_sim::fault::FaultConfig;

/// Newest fleet-window deltas retained for burn-rate evaluation.
pub const WINDOW_CAP: usize = 1024;

/// Memory samples preallocated before decimation kicks in.
const MEM_SAMPLE_CAP: usize = 1 << 16;

/// Knobs of one soak run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Convoy size (ids `1..=n`).
    pub n_vehicles: usize,
    /// Channels in the trajectory band (soak favours sustained load over
    /// band realism; keep it lean).
    pub n_channels: usize,
    /// Journey context each vehicle beacons, metres.
    pub context_m: usize,
    /// True gap between adjacent vehicles, metres.
    pub gap_m: f64,
    /// Staleness horizon of each inbox, seconds.
    pub horizon_s: f64,
    /// Simulated seconds between fix epochs (beaconing stays at 1 Hz).
    pub fix_stride_s: usize,
    /// Fix epochs aggregated into one fleet window.
    pub window_epochs: usize,
    /// Channel impairments (default: the burst acceptance cell).
    pub faults: FaultConfig,
    /// Wall-clock budget of the run, seconds.
    pub wall_secs: f64,
    /// p99 ceiling of the `fix_p99_latency` SLO, nanoseconds.
    pub p99_max_ns: f64,
    /// Allowed relative live-bytes growth, second half over first half of
    /// the post-warmup samples.
    pub mem_growth_tol: f64,
    /// Absolute slack on top of the relative tolerance, bytes (rounding
    /// room for tiny runs).
    pub mem_abs_slack_bytes: u64,
    /// Ceiling on the fraction of ingested spans the tail samplers may
    /// commit (the whole point of tail sampling is committing far less
    /// than everything).
    pub max_committed_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            n_vehicles: 4,
            n_channels: 24,
            context_m: 160,
            gap_m: 35.0,
            horizon_s: 10.0,
            fix_stride_s: 5,
            window_epochs: 16,
            faults: acceptance_faults(),
            wall_secs: 20.0,
            p99_max_ns: 250e6,
            mem_growth_tol: 0.02,
            mem_abs_slack_bytes: 1 << 20,
            max_committed_fraction: 0.2,
            seed: 0x50AC,
        }
    }
}

/// The flat-memory verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemVerdict {
    /// Post-warmup live-bytes samples the halves were averaged over.
    pub samples: usize,
    /// Mean live bytes over the first half.
    pub first_half_avg_bytes: f64,
    /// Mean live bytes over the second half.
    pub second_half_avg_bytes: f64,
    /// `second_half / first_half` (1.0 when the first half is empty).
    pub growth_ratio: f64,
    /// Largest live-bytes sample seen after warmup.
    pub max_live_bytes: u64,
    /// Whether the growth stayed within tolerance.
    pub pass: bool,
}

/// The tail-sampling verdict: every anomalous trace retained (checked
/// against an exhaustive shadow set the harness keeps independently),
/// committed volume under the cap, and the sampler's measured record-path
/// overhead inside its budget (or demoted itself trying).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerVerdict {
    /// Spans offered to the samplers across every vehicle.
    pub spans_ingested: u64,
    /// Spans committed to the durable rings.
    pub spans_committed: u64,
    /// `spans_committed / spans_ingested` (0.0 when nothing was ingested).
    pub committed_fraction: f64,
    /// Traces settled by
    /// [`fix_inbox_parallel`](rups_core::pipeline::RupsNode::fix_inbox_parallel)
    /// verdicts.
    pub traces_finished: u64,
    /// Traces whose spans were committed.
    pub traces_committed: u64,
    /// Distinct anomalous trace ids in the harness's shadow set.
    pub anomalous_traces: u64,
    /// Of those, how many have at least one span in a durable ring.
    pub anomalous_retained: u64,
    /// Whether the span layer was live (spans were actually recorded); the
    /// retention cross-check is only meaningful when it was.
    pub shadow_checked: bool,
    /// Every shadow-set trace retained (vacuously true when unchecked).
    pub retained_all_anomalous: bool,
    /// The configured committed-fraction ceiling.
    pub max_committed_fraction: f64,
    /// `committed_fraction <= max_committed_fraction`.
    pub committed_within_cap: bool,
    /// Worst per-vehicle mean record-path cost over the last ladder
    /// window, nanoseconds per span.
    pub mean_record_ns: f64,
    /// The per-span overhead budget the ladder enforces, nanoseconds.
    pub budget_ns_per_span: f64,
    /// Head-rate demotions the ladders performed.
    pub demotions: u64,
    /// Lowest final head-sampling rate across vehicles.
    pub head_rate: f64,
    /// Overhead inside budget, or the ladder demonstrably responded.
    pub overhead_ok: bool,
    /// The gate: retention, volume cap and overhead all healthy.
    pub pass: bool,
}

/// The outcome of one soak run: the gate is `pass`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakOutcome {
    /// Always `"soak"`.
    pub harness: String,
    /// The knobs the run used.
    pub config: SoakConfig,
    /// Wall seconds actually spent in the drive loop.
    pub wall_s: f64,
    /// Simulated seconds driven.
    pub sim_s: u64,
    /// Fix epochs executed.
    pub epochs: u64,
    /// Fleet windows evaluated (newest [`WINDOW_CAP`] retained).
    pub windows: usize,
    /// The SLO spec set the run was judged against.
    pub slo_specs: Vec<SloSpec>,
    /// The telemetry-only SLO verdict.
    pub slo: SloVerdict,
    /// The allocation-flatness verdict.
    pub mem: MemVerdict,
    /// The tail-sampling verdict.
    pub sampler: SamplerVerdict,
    /// Online alarms raised by the [`DetectorBank`] over the fleet-window
    /// stream — early warnings ahead of the end-of-run SLO verdict, each
    /// stamped with its detection window. Not part of the gate: a faulted
    /// soak legitimately alarms.
    pub alarms: Vec<Alarm>,
    /// Fleet windows the detector bank observed.
    pub alarm_windows: u64,
    /// `slo.pass && mem.pass && sampler.pass`.
    pub pass: bool,
}

/// Judges flatness over the post-warmup samples: the first quarter is
/// discarded (caches, arenas and rings legitimately fill), then the mean
/// of the second half must not exceed the mean of the first half by more
/// than the configured tolerance.
fn mem_verdict(cfg: &SoakConfig, samples: &[u64]) -> MemVerdict {
    let warm = &samples[samples.len() / 4..];
    let mid = warm.len() / 2;
    let (a, b) = warm.split_at(mid);
    let avg = |s: &[u64]| {
        if s.is_empty() {
            0.0
        } else {
            s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64
        }
    };
    let (first, second) = (avg(a), avg(b));
    let growth_ratio = if first > 0.0 { second / first } else { 1.0 };
    let pass = second <= first * (1.0 + cfg.mem_growth_tol) + cfg.mem_abs_slack_bytes as f64;
    MemVerdict {
        samples: warm.len(),
        first_half_avg_bytes: first,
        second_half_avg_bytes: second,
        growth_ratio,
        max_live_bytes: warm.iter().copied().max().unwrap_or(0),
        pass,
    }
}

/// Appends to the alarm log, keeping the newest [`WINDOW_CAP`].
fn log_alarms(log: &mut VecDeque<Alarm>, fired: Vec<Alarm>) {
    for alarm in fired {
        if log.len() == WINDOW_CAP {
            log.pop_front();
        }
        log.push_back(alarm);
    }
}

/// Adds the trace ids in a sampler's durable ring to `kept`.
fn harvest(kept: &mut HashSet<u64>, sampler: &TailSampler) {
    let committed = sampler.committed();
    kept.extend(
        committed
            .iter()
            .filter_map(|r| r.args.get(TRACE_ARG))
            .map(|v| v as u64),
    );
}

/// Runs the soak. `live_bytes` is sampled once per fix epoch; wire it to
/// the counting allocator of the hosting binary/test.
pub fn run_soak(cfg: &SoakConfig, live_bytes: &dyn Fn() -> u64) -> SoakOutcome {
    let mut rc = bench_config(cfg.n_channels, 85.min(cfg.context_m / 2), cfg.n_channels);
    rc.max_context_m = cfg.context_m + 50;
    let sample_cfg = SampleConfig::default();
    let mut rig = ConvoyRig::with_extras(
        ConvoySpec {
            cfg: rc,
            n_vehicles: cfg.n_vehicles,
            gap_m: cfg.gap_m,
            field_seed: cfg.seed,
            context_m: cfg.context_m,
            horizon_s: cfg.horizon_s,
            faults: cfg.faults,
            link_seed: cfg.seed ^ 0x11,
            span_capacity: SPAN_RING,
        },
        |_, node, registry, _| {
            node.with_trace_sampler(Arc::new(
                TailSampler::new(sample_cfg).with_registry(registry),
            ))
        },
    );
    let samplers: Vec<Arc<TailSampler>> = rig
        .ids()
        .map(|id| Arc::clone(rig.vehicle(id).node.trace_sampler().expect("wired above")))
        .collect();

    let warmup_m = cfg.context_m + 10;
    let mut windows: VecDeque<MetricsSnapshot> = VecDeque::with_capacity(WINDOW_CAP);
    let mut mem_samples: Vec<u64> = Vec::with_capacity(MEM_SAMPLE_CAP);
    let mut sample_stride = 1u64;
    let mut epochs = 0u64;
    let mut bank = DetectorBank::new(default_detectors()).with_registry(&rig.vehicle(1).registry);
    let mut alarms: VecDeque<Alarm> = VecDeque::with_capacity(WINDOW_CAP);
    // The exhaustive shadow the samplers are judged against: every trace id
    // whose fix verdict was anomalous, per vehicle.
    let mut shadow: Vec<HashSet<u64>> = samplers.iter().map(|_| HashSet::new()).collect();
    // Trace ids seen in each durable ring, harvested per window so the
    // ring's bounded eviction cannot erase evidence of a commit.
    let mut kept_traces: Vec<HashSet<u64>> = samplers.iter().map(|_| HashSet::new()).collect();

    let start = Instant::now();
    let mut metre = 0usize;
    loop {
        let t = metre as f64;
        rig.drive(t);
        if metre >= warmup_m {
            for id in rig.ids() {
                rig.beacon_traced(id, t, |_| {});
            }
            rig.deliver(t);
            if (metre - warmup_m).is_multiple_of(cfg.fix_stride_s) {
                for (id, shadow) in rig.ids().zip(shadow.iter_mut()) {
                    // Map sender → trace id before the pass so anomalous
                    // verdicts can be attributed to their traces (the
                    // node's sampler settles them internally; this is the
                    // harness's independent shadow record).
                    let traces: HashMap<u64, u64> = rig
                        .vehicle(id)
                        .inbox
                        .fresh(t)
                        .iter()
                        .filter_map(|s| Some((s.vehicle_id?, s.trace?.trace_id)))
                        .collect();
                    for (sender, graded) in rig.grade(id, t) {
                        let anomalous = match &graded {
                            Err(_) => true,
                            Ok(g) => g.report.quality == FixQuality::Low,
                        };
                        if let (true, Some(tid)) = (anomalous, traces.get(&sender)) {
                            shadow.insert(*tid);
                        }
                    }
                }
                epochs += 1;
                if epochs.is_multiple_of(sample_stride) {
                    if mem_samples.len() == MEM_SAMPLE_CAP {
                        // Decimate in place: keep every other sample and
                        // double the stride, so the buffer never regrows.
                        let mut i = 0usize;
                        mem_samples.retain(|_| {
                            i += 1;
                            i % 2 == 1
                        });
                        sample_stride *= 2;
                    }
                    mem_samples.push(live_bytes());
                }
                if epochs.is_multiple_of(cfg.window_epochs as u64) {
                    let (_, delta) = rig.fleet_window();
                    // The detector bank sees the window online — alarms
                    // are early warnings of what the end-of-run SLO
                    // verdict would catch, stamped with their detection
                    // window (newest WINDOW_CAP retained).
                    log_alarms(&mut alarms, bank.observe(t, &delta));
                    if windows.len() == WINDOW_CAP {
                        windows.pop_front();
                    }
                    windows.push_back(delta.compact());
                    for (kept, sampler) in kept_traces.iter_mut().zip(&samplers) {
                        harvest(kept, sampler);
                    }
                }
                // The wall budget is checked at epoch granularity: every
                // iteration between epochs is microseconds.
                if start.elapsed() >= Duration::from_secs_f64(cfg.wall_secs) {
                    break;
                }
            }
        }
        metre += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();

    let (fleet, tail) = rig.fleet_window();
    let cumulative = fleet.merged;
    let slo_specs = default_slos(cfg.p99_max_ns);
    let had_window = !windows.is_empty();
    let mut windows: Vec<MetricsSnapshot> = windows.into_iter().collect();
    // The trailing partial window still counts against burn-rate — and the
    // detector bank sees it too, so a fault landing in the last stretch of
    // the run is not silently unwatched.
    if had_window && tail.counters.iter().any(|c| c.value > 0) {
        log_alarms(&mut alarms, bank.observe(metre as f64, &tail));
        windows.push(tail.compact());
    }
    let slo = evaluate_slos(&slo_specs, &cumulative, &windows);
    let mem = mem_verdict(cfg, &mem_samples);

    // Final harvest, then judge the samplers against the shadow set.
    let mut spans_ingested = 0u64;
    let mut spans_committed = 0u64;
    let mut traces_finished = 0u64;
    let mut traces_committed = 0u64;
    let mut demotions = 0u64;
    let mut mean_record_ns = 0f64;
    let mut head_rate = f64::INFINITY;
    let mut anomalous_retained = 0u64;
    for (k, sampler) in samplers.iter().enumerate() {
        harvest(&mut kept_traces[k], sampler);
        let st = sampler.stats();
        spans_ingested += st.spans_ingested;
        spans_committed += st.spans_committed;
        traces_finished += st.traces_finished;
        traces_committed += st.traces_committed;
        demotions += st.demotions;
        mean_record_ns = mean_record_ns.max(st.mean_record_ns);
        head_rate = head_rate.min(st.head_rate);
        anomalous_retained += shadow[k].intersection(&kept_traces[k]).count() as u64;
    }
    if !head_rate.is_finite() {
        head_rate = sample_cfg.head_rate;
    }
    let anomalous_traces: u64 = shadow.iter().map(|s| s.len() as u64).sum();
    // The cross-check is only meaningful when the span layer recorded
    // anything at all (builds without the `obs` feature ingest nothing).
    let shadow_checked = spans_ingested > 0;
    let retained_all_anomalous = !shadow_checked || anomalous_retained == anomalous_traces;
    let committed_fraction = if spans_ingested == 0 {
        0.0
    } else {
        spans_committed as f64 / spans_ingested as f64
    };
    let committed_within_cap = committed_fraction <= cfg.max_committed_fraction;
    let overhead_ok =
        !shadow_checked || mean_record_ns <= sample_cfg.budget_ns_per_span || demotions > 0;
    let sampler = SamplerVerdict {
        spans_ingested,
        spans_committed,
        committed_fraction,
        traces_finished,
        traces_committed,
        anomalous_traces,
        anomalous_retained,
        shadow_checked,
        retained_all_anomalous,
        max_committed_fraction: cfg.max_committed_fraction,
        committed_within_cap,
        mean_record_ns,
        budget_ns_per_span: sample_cfg.budget_ns_per_span,
        demotions,
        head_rate,
        overhead_ok,
        pass: retained_all_anomalous && committed_within_cap && overhead_ok,
    };

    SoakOutcome {
        harness: "soak".into(),
        config: cfg.clone(),
        wall_s,
        sim_s: metre as u64,
        epochs,
        windows: windows.len(),
        pass: slo.pass && mem.pass && sampler.pass,
        slo_specs,
        slo,
        mem,
        sampler,
        alarms: alarms.into_iter().collect(),
        alarm_windows: bank.windows_seen(),
    }
}
