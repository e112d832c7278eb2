//! The CI perf-regression gate: re-measures the committed bench workloads
//! and compares each against its committed baseline.
//!
//! ```text
//! bench_gate [--bench syn_batch|syn_kernels|fleet|codec|all]
//!            [--baseline <path>] [--out <path>] [--tolerance <frac>]
//!            [--samples <n>]
//! ```
//!
//! Four workloads are gated: `syn_batch` (end-to-end batched vs naive
//! fixes, including the engine cache rates), `syn_kernels` (per-kernel
//! nanoseconds on the SYN hot path), `fleet` (one sharded fleet epoch
//! at 1 and 4 workers plus the cell-index microbenches) and `codec`
//! (snapshot encode and decode at 600 m and 1 km × 194 channels).
//! Defaults: all benches, committed
//! baselines `results/BENCH_<bench>.json`, verdicts next to them as
//! `results/BENCH_<bench>.verdict.json`, tolerance from
//! `RUPS_BENCH_TOLERANCE` (falling back to the library default of 0.35 —
//! wall-clock ns differ across machines; the engine cache rates are
//! checked tightly regardless), 9 samples per case. `--baseline`/`--out`
//! override the paths of a single selected bench.
//!
//! Exit code 0 when every selected gate passes, 1 otherwise (regressed or
//! missing case, or a cache-rate collapse). The verdict JSON files are
//! written either way, so CI can upload them as artifacts.

use rups_bench::baseline::{self, Baseline, CompareConfig};
use rups_bench::{codec, fleet, syn_batch, syn_kernels};
use std::process::ExitCode;

struct Args {
    bench: String,
    baseline_path: Option<String>,
    out_path: Option<String>,
    cfg: CompareConfig,
    samples: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        bench: "all".into(),
        baseline_path: None,
        out_path: None,
        cfg: CompareConfig::default(),
        samples: 9,
    };
    if let Ok(tol) = std::env::var("RUPS_BENCH_TOLERANCE") {
        parsed.cfg.tolerance = tol
            .parse()
            .expect("RUPS_BENCH_TOLERANCE must be a fraction like 0.35");
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--bench" => parsed.bench = val("--bench"),
            "--baseline" => parsed.baseline_path = Some(val("--baseline")),
            "--out" => parsed.out_path = Some(val("--out")),
            "--tolerance" => {
                parsed.cfg.tolerance = val("--tolerance")
                    .parse()
                    .expect("--tolerance must be a fraction like 0.35")
            }
            "--samples" => {
                parsed.samples = val("--samples")
                    .parse()
                    .expect("--samples must be a positive integer")
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    parsed
}

fn gate_one(name: &str, current: Baseline, args: &Args) -> bool {
    let baseline_path = args
        .baseline_path
        .clone()
        .unwrap_or_else(|| baseline::default_path(name));
    let out_path = args
        .out_path
        .clone()
        .unwrap_or_else(|| baseline::verdict_path(&baseline_path));
    eprintln!(
        "bench_gate[{name}]: baseline {baseline_path}, tolerance {:.0}%",
        args.cfg.tolerance * 100.0
    );
    let committed = baseline::read(&baseline_path);
    let verdict = baseline::compare(&committed, &current, &args.cfg);
    baseline::write_verdict(&out_path, &verdict);
    for c in &verdict.cases {
        eprintln!(
            "  {:<26} {:>12.0} -> {:>12.0} ns/op  x{:.3}  {:?}",
            c.id, c.baseline_ns_per_op, c.current_ns_per_op, c.ratio, c.status
        );
    }
    for n in &verdict.notes {
        eprintln!("  note: {n}");
    }
    eprintln!(
        "bench_gate[{name}]: {} (verdict written to {out_path})",
        if verdict.pass { "PASS" } else { "FAIL" }
    );
    verdict.pass
}

fn main() -> ExitCode {
    let args = parse_args();
    let run_batch = matches!(args.bench.as_str(), "all" | "syn_batch");
    let run_kernels = matches!(args.bench.as_str(), "all" | "syn_kernels");
    let run_fleet = matches!(args.bench.as_str(), "all" | "fleet");
    let run_codec = matches!(args.bench.as_str(), "all" | "codec");
    assert!(
        run_batch || run_kernels || run_fleet || run_codec,
        "--bench must be syn_batch, syn_kernels, fleet, codec, or all (got {})",
        args.bench
    );
    assert!(
        args.bench != "all" || (args.baseline_path.is_none() && args.out_path.is_none()),
        "--baseline/--out need a single --bench selection"
    );
    let mut pass = true;
    if run_batch {
        pass &= gate_one("syn_batch", syn_batch::measure(args.samples), &args);
    }
    if run_kernels {
        pass &= gate_one("syn_kernels", syn_kernels::measure(args.samples), &args);
    }
    if run_fleet {
        pass &= gate_one("fleet", fleet::measure(args.samples), &args);
    }
    if run_codec {
        pass &= gate_one("codec", codec::measure(args.samples), &args);
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
