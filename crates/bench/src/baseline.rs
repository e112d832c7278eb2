//! The one timing harness of rups-bench and its machine-readable perf
//! baselines.
//!
//! Every bench case is timed by [`measure_median_ns_per_op`] and printed
//! as one `<bench>/<id>` line. The four gated workloads (`syn_batch`,
//! `syn_kernels`, `fleet`, `codec`) return a [`Baseline`]; [`publish`]
//! prints it and, when `RUPS_BENCH_OUT_DIR` is set, writes
//! `BENCH_<bench>.json` there. The committed copies in `results/` are what
//! `bench_gate` compares a fresh run against ([`compare`]). The figure
//! benches time their cases with [`time_case`] and print them only. The
//! format is documented in `EXPERIMENTS.md`.

use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One benchmarked case, e.g. `batched/8`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Case identifier, `<function>/<input-size>`.
    pub id: String,
    /// Operations (elements) per iteration.
    pub ops_per_iter: usize,
    /// Median wall-clock nanoseconds per operation across samples.
    pub median_ns_per_op: f64,
    /// Samples the median was taken over.
    pub samples: usize,
}

/// Cache effectiveness of the query engine during the batched cases,
/// derived from the `rups_core_engine_*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheRates {
    /// Context-cache hits / (hits + rebuilds).
    pub context_hit_rate: f64,
    /// Window-memo hits / (hits + misses).
    pub window_hit_rate: f64,
    /// Scratch-arena reuses / (reuses + allocations).
    pub scratch_reuse_rate: f64,
}

/// The whole baseline artefact of one bench.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Bench name, e.g. `syn_batch`.
    pub bench: String,
    /// The measured cases.
    pub cases: Vec<BenchCase>,
    /// Engine cache-hit rates observed while driving the batched cases.
    pub engine: Option<CacheRates>,
}

/// Samples behind every committed `results/BENCH_<bench>.json`.
pub const BASELINE_SAMPLES: usize = 15;

/// Samples of one call each behind every [`time_case`].
const CASE_SAMPLES: usize = 10;

/// The environment variable naming the directory baselines are written to
/// and read from instead of the workspace `results/`.
const OUT_DIR_VAR: &str = "RUPS_BENCH_OUT_DIR";

/// Where `BENCH_<bench>.json` lives: the workspace `results/` directory,
/// overridable with the `RUPS_BENCH_OUT_DIR` environment variable.
pub fn default_path(bench: &str) -> String {
    let dir = std::env::var(OUT_DIR_VAR)
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    format!("{dir}/BENCH_{bench}.json")
}

/// Where the verdict on the baseline at `baseline_path` is written: the
/// same file stem with the extension `verdict.json`, so a verdict never
/// lands on the baseline it was compared against.
pub fn verdict_path(baseline_path: &str) -> String {
    Path::new(baseline_path)
        .with_extension("verdict.json")
        .to_string_lossy()
        .into_owned()
}

/// Serialises the baseline to `path`, creating parent directories.
fn write(path: &str, baseline: &Baseline) {
    let p = Path::new(path);
    if let Some(parent) = p.parent() {
        std::fs::create_dir_all(parent).expect("create baseline output dir");
    }
    let json = serde_json::to_string_pretty(baseline).expect("serialize baseline");
    std::fs::write(p, json).expect("write baseline");
}

/// Reads a baseline back (for regression-checking tools and tests).
pub fn read(path: &str) -> Baseline {
    let raw = std::fs::read_to_string(path).expect("read baseline");
    serde_json::from_str(&raw).expect("parse baseline")
}

/// Runs `op` for `samples` timed samples of `iters` iterations each and
/// returns the median nanoseconds per operation, where one call to `op`
/// counts as `ops_per_iter` operations (e.g. an 8-neighbour batch is 8).
pub fn measure_median_ns_per_op(
    samples: usize,
    iters: usize,
    ops_per_iter: usize,
    mut op: impl FnMut(),
) -> f64 {
    assert!(samples > 0 && iters > 0 && ops_per_iter > 0);
    // One untimed warmup pass populates caches and the branch predictor.
    op();
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / (iters * ops_per_iter) as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.total_cmp(b));
    median_of_sorted(&per_op)
}

/// Times one print-only case of `bench` — one warmup call of `op`, then
/// ten samples of one call each — and prints it. What `op` returns goes
/// through [`black_box`] so its work is not optimised away.
pub fn time_case<T>(bench: &str, id: impl Into<String>, mut op: impl FnMut() -> T) {
    let ns = measure_median_ns_per_op(CASE_SAMPLES, 1, 1, || {
        black_box(op());
    });
    let case = BenchCase {
        id: id.into(),
        ops_per_iter: 1,
        median_ns_per_op: ns,
        samples: CASE_SAMPLES,
    };
    print(&Baseline {
        bench: bench.into(),
        cases: vec![case],
        engine: None,
    });
}

/// Prints every case of `baseline`, one `<bench>/<id>` line each, and its
/// engine cache-hit rates when it has them.
fn print(baseline: &Baseline) {
    for c in &baseline.cases {
        println!(
            "{}/{}: median {} per op over {} samples",
            baseline.bench,
            c.id,
            format_ns(c.median_ns_per_op),
            c.samples
        );
    }
    if let Some(e) = &baseline.engine {
        println!(
            "{}: engine context hit rate {:.3}, window hit rate {:.3}, scratch reuse rate {:.3}",
            baseline.bench, e.context_hit_rate, e.window_hit_rate, e.scratch_reuse_rate
        );
    }
}

/// Prints a gated workload's fresh baseline and writes it to
/// [`default_path`] only when `RUPS_BENCH_OUT_DIR` is set, so a plain
/// `cargo bench` never rewrites the committed `results/` baselines.
pub fn publish(baseline: &Baseline) {
    print(baseline);
    if std::env::var_os(OUT_DIR_VAR).is_some() {
        let path = default_path(&baseline.bench);
        write(&path, baseline);
        eprintln!("baseline written to {path}");
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Verdict on one case of a baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaseStatus {
    /// Within tolerance of the baseline.
    Ok,
    /// Slower than baseline by more than the tolerance — fails the gate.
    Regressed,
    /// Faster than baseline by more than the improvement margin (a hint
    /// that the committed baseline is stale, not a failure).
    Improved,
    /// Present in the baseline but missing from the current run — fails
    /// the gate (a silently dropped case would hide regressions forever).
    Missing,
    /// Present in the current run but not in the baseline (informational).
    New,
}

/// One case's comparison outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseVerdict {
    /// Case identifier, `<function>/<input-size>`.
    pub id: String,
    /// Baseline median ns/op (0 for [`CaseStatus::New`] cases).
    pub baseline_ns_per_op: f64,
    /// Current median ns/op (0 for [`CaseStatus::Missing`] cases).
    pub current_ns_per_op: f64,
    /// `current / baseline` (1.0 when either side is absent).
    pub ratio: f64,
    /// The verdict.
    pub status: CaseStatus,
}

/// Thresholds of a baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompareConfig {
    /// Maximum tolerated slowdown fraction: a case regresses when
    /// `current > baseline × (1 + tolerance)`. Wall-clock ns are not
    /// comparable across machines, so CI overrides the default with a
    /// generous value (`RUPS_BENCH_TOLERANCE`) — the gate is meant to
    /// catch algorithmic cliffs, not scheduler noise.
    pub tolerance: f64,
    /// Improvements beyond this fraction are flagged [`CaseStatus::Improved`]
    /// so a stale baseline gets noticed.
    pub improvement_margin: f64,
    /// Maximum tolerated absolute drop in any engine cache-hit rate.
    /// Cache rates are machine-independent, so this check is tight even
    /// where the ns tolerance is loose.
    pub max_cache_rate_drop: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.35,
            improvement_margin: 0.35,
            max_cache_rate_drop: 0.10,
        }
    }
}

/// The machine-readable outcome of comparing a fresh run against a
/// committed baseline — the artifact the CI bench-gate job uploads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareVerdict {
    /// Bench name.
    pub bench: String,
    /// Tolerance the comparison ran with.
    pub tolerance: f64,
    /// Overall verdict: no regressed/missing case and the cache check
    /// passed.
    pub pass: bool,
    /// Whether the engine cache rates stayed within
    /// [`CompareConfig::max_cache_rate_drop`].
    pub cache_pass: bool,
    /// Per-case outcomes, baseline order first, then new cases.
    pub cases: Vec<CaseVerdict>,
    /// Human-oriented notes (cache-rate drops, stale-baseline hints).
    pub notes: Vec<String>,
}

/// Compares a fresh measurement against the committed baseline.
pub fn compare(baseline: &Baseline, current: &Baseline, cfg: &CompareConfig) -> CompareVerdict {
    let mut cases = Vec::new();
    let mut notes = Vec::new();
    for b in &baseline.cases {
        let verdict = match current.cases.iter().find(|c| c.id == b.id) {
            None => CaseVerdict {
                id: b.id.clone(),
                baseline_ns_per_op: b.median_ns_per_op,
                current_ns_per_op: 0.0,
                ratio: 1.0,
                status: CaseStatus::Missing,
            },
            Some(c) => {
                let ratio = if b.median_ns_per_op > 0.0 {
                    c.median_ns_per_op / b.median_ns_per_op
                } else {
                    1.0
                };
                let status = if ratio > 1.0 + cfg.tolerance {
                    CaseStatus::Regressed
                } else if ratio < 1.0 - cfg.improvement_margin {
                    CaseStatus::Improved
                } else {
                    CaseStatus::Ok
                };
                CaseVerdict {
                    id: b.id.clone(),
                    baseline_ns_per_op: b.median_ns_per_op,
                    current_ns_per_op: c.median_ns_per_op,
                    ratio,
                    status,
                }
            }
        };
        cases.push(verdict);
    }
    for c in &current.cases {
        if !baseline.cases.iter().any(|b| b.id == c.id) {
            cases.push(CaseVerdict {
                id: c.id.clone(),
                baseline_ns_per_op: 0.0,
                current_ns_per_op: c.median_ns_per_op,
                ratio: 1.0,
                status: CaseStatus::New,
            });
        }
    }
    if cases.iter().any(|c| c.status == CaseStatus::Improved) {
        notes.push(format!(
            "some cases improved beyond {:.0}% — consider refreshing the committed baseline",
            cfg.improvement_margin * 100.0
        ));
    }
    let mut cache_pass = true;
    if let (Some(b), Some(c)) = (&baseline.engine, &current.engine) {
        for (name, was, now) in [
            ("context_hit_rate", b.context_hit_rate, c.context_hit_rate),
            ("window_hit_rate", b.window_hit_rate, c.window_hit_rate),
            (
                "scratch_reuse_rate",
                b.scratch_reuse_rate,
                c.scratch_reuse_rate,
            ),
        ] {
            if was - now > cfg.max_cache_rate_drop {
                cache_pass = false;
                notes.push(format!(
                    "engine {name} collapsed: {was:.3} -> {now:.3} (max drop {:.2})",
                    cfg.max_cache_rate_drop
                ));
            }
        }
    }
    let pass = cache_pass
        && !cases
            .iter()
            .any(|c| matches!(c.status, CaseStatus::Regressed | CaseStatus::Missing));
    CompareVerdict {
        bench: baseline.bench.clone(),
        tolerance: cfg.tolerance,
        pass,
        cache_pass,
        cases,
        notes,
    }
}

/// Serialises a verdict to `path`, creating parent directories.
pub fn write_verdict(path: &str, verdict: &CompareVerdict) {
    let p = Path::new(path);
    if let Some(parent) = p.parent() {
        std::fs::create_dir_all(parent).expect("create verdict output dir");
    }
    let json = serde_json::to_string_pretty(verdict).expect("serialize verdict");
    std::fs::write(p, json).expect("write verdict");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_measurement_counts_every_op() {
        let mut calls = 0u64;
        let ns = measure_median_ns_per_op(3, 4, 2, || calls += 1);
        // 1 warmup + 3 samples × 4 iters.
        assert_eq!(calls, 13);
        assert!(ns >= 0.0);
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let b = Baseline {
            bench: "syn_batch".into(),
            cases: vec![BenchCase {
                id: "batched/8".into(),
                ops_per_iter: 8,
                median_ns_per_op: 1234.5,
                samples: 15,
            }],
            engine: Some(CacheRates {
                context_hit_rate: 0.99,
                window_hit_rate: 0.97,
                scratch_reuse_rate: 0.95,
            }),
        };
        let json = serde_json::to_string(&b).unwrap();
        let back: Baseline = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }

    fn baseline_with(medians: &[(&str, f64)], engine: Option<CacheRates>) -> Baseline {
        Baseline {
            bench: "syn_batch".into(),
            cases: medians
                .iter()
                .map(|(id, ns)| BenchCase {
                    id: id.to_string(),
                    ops_per_iter: 8,
                    median_ns_per_op: *ns,
                    samples: 15,
                })
                .collect(),
            engine,
        }
    }

    const HEALTHY_RATES: CacheRates = CacheRates {
        context_hit_rate: 0.998,
        window_hit_rate: 0.999,
        scratch_reuse_rate: 0.999,
    };

    #[test]
    fn identical_runs_pass_the_gate() {
        let b = baseline_with(
            &[("batched/8", 10_000.0), ("naive/8", 90_000.0)],
            Some(HEALTHY_RATES),
        );
        let v = compare(&b, &b, &CompareConfig::default());
        assert!(v.pass && v.cache_pass);
        assert!(v.cases.iter().all(|c| c.status == CaseStatus::Ok));
        assert!(v.cases.iter().all(|c| (c.ratio - 1.0).abs() < 1e-12));
    }

    #[test]
    fn injected_25_percent_slowdown_fails_the_gate() {
        // The acceptance-criteria proof: doctor the committed medians up by
        // ≥ 25% and the gate must fail at a 20% tolerance.
        let committed = baseline_with(
            &[
                ("batched/1", 12_000.0),
                ("batched/8", 10_000.0),
                ("batched/32", 9_000.0),
            ],
            Some(HEALTHY_RATES),
        );
        let doctored = baseline_with(
            &[
                ("batched/1", 12_000.0 * 1.25),
                ("batched/8", 10_000.0 * 1.30),
                ("batched/32", 9_000.0 * 1.27),
            ],
            Some(HEALTHY_RATES),
        );
        let cfg = CompareConfig {
            tolerance: 0.20,
            ..CompareConfig::default()
        };
        let v = compare(&committed, &doctored, &cfg);
        assert!(!v.pass, "a >=25% slowdown must fail a 20% gate: {v:?}");
        assert!(
            v.cases.iter().all(|c| c.status == CaseStatus::Regressed),
            "{v:?}"
        );
        // The same slowdown passes a looser 35% gate — tolerance is real.
        let v = compare(&committed, &doctored, &CompareConfig::default());
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn missing_case_fails_and_new_case_informs() {
        let committed = baseline_with(&[("batched/8", 10_000.0), ("naive/8", 90_000.0)], None);
        let current = baseline_with(&[("batched/8", 10_000.0), ("batched/64", 8_000.0)], None);
        let v = compare(&committed, &current, &CompareConfig::default());
        assert!(!v.pass, "a dropped case must fail the gate");
        let status_of = |id: &str| v.cases.iter().find(|c| c.id == id).unwrap().status;
        assert_eq!(status_of("naive/8"), CaseStatus::Missing);
        assert_eq!(status_of("batched/64"), CaseStatus::New);
        assert_eq!(status_of("batched/8"), CaseStatus::Ok);
    }

    #[test]
    fn cache_rate_collapse_fails_even_when_timings_pass() {
        let committed = baseline_with(&[("batched/8", 10_000.0)], Some(HEALTHY_RATES));
        let busted = baseline_with(
            &[("batched/8", 10_000.0)],
            Some(CacheRates {
                context_hit_rate: 0.998,
                window_hit_rate: 0.45, // memo effectively disabled
                scratch_reuse_rate: 0.999,
            }),
        );
        let v = compare(&committed, &busted, &CompareConfig::default());
        assert!(!v.cache_pass && !v.pass);
        assert!(v.notes.iter().any(|n| n.contains("window_hit_rate")));
        // Timing-wise everything was fine.
        assert!(v.cases.iter().all(|c| c.status == CaseStatus::Ok));
    }

    #[test]
    fn big_improvement_passes_but_flags_a_stale_baseline() {
        let committed = baseline_with(&[("batched/8", 10_000.0)], None);
        let faster = baseline_with(&[("batched/8", 4_000.0)], None);
        let v = compare(&committed, &faster, &CompareConfig::default());
        assert!(v.pass);
        assert_eq!(v.cases[0].status, CaseStatus::Improved);
        assert!(v.notes.iter().any(|n| n.contains("baseline")));
    }

    #[test]
    fn verdict_roundtrips_through_json() {
        let committed = baseline_with(&[("batched/8", 10_000.0)], Some(HEALTHY_RATES));
        let doctored = baseline_with(&[("batched/8", 14_000.0)], Some(HEALTHY_RATES));
        let cfg = CompareConfig {
            tolerance: 0.20,
            ..CompareConfig::default()
        };
        let v = compare(&committed, &doctored, &cfg);
        let json = serde_json::to_string(&v).unwrap();
        let back: CompareVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        assert!(!back.pass);
    }

    #[test]
    fn verdict_path_never_names_its_baseline() {
        assert_eq!(
            verdict_path("results/BENCH_codec.json"),
            "results/BENCH_codec.verdict.json"
        );
        // A baseline without an extension gains one instead of being
        // overwritten by its own verdict.
        assert_eq!(verdict_path("/tmp/base"), "/tmp/base.verdict.json");
        // Only the file name changes, never a directory on the way.
        assert_eq!(
            verdict_path("/tmp/x.json.d/BENCH_codec.json"),
            "/tmp/x.json.d/BENCH_codec.verdict.json"
        );
    }

    #[test]
    fn default_path_honours_the_env_override() {
        // Uses the compile-time fallback when the variable is unset; the
        // name embeds the bench either way.
        let p = default_path("syn_batch");
        assert!(p.ends_with("/BENCH_syn_batch.json"), "{p}");
    }
}
