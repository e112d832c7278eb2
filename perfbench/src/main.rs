//! RUPS benchmark: runs one seeded closed-loop workload and prints its
//! end-to-end metrics (`--trace 0`) or its per-layer metrics from an
//! outside-in traced run (`--trace 1`), then one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload discover --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run measures a fixed number of epochs, `epochs_per_s` from
//! `spec.json` times `--seconds`: about that many seconds of epoch wall on
//! the machine it was calibrated on, and the same epochs on any other.
//!
//! Every run checks its fixes against ground truth and exits non-zero when
//! a check fails: the output digest differs between repeated set-ups of one
//! seed or between the traced and untraced runs, the mean error exceeds the
//! workload's ceiling in `spec.json`, the engine ran the wrong kernel, or
//! the trace leaves more than the allowed share of epoch wall unaccounted.

mod convoy;
mod fleet;
mod report;
mod stamp;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

use report::{Digest, Phase};
use trace::Tracer;
use workload::{Fix, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Epochs the first set-up runs before it is dropped; the last set-up's
/// first epochs must produce the same digest.
const PROBE_EPOCHS: usize = 3;
/// Fewest epochs a traced run compares against its untraced twin.
const TRACE_MIN_EPOCHS: usize = 20;
/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: perfbench --workload <discover|track|fleet> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(serde::Deserialize)]
struct Spec {
    default_seed: u64,
    max_unaccounted_share: f64,
    workloads: Vec<WorkloadSpec>,
}

#[derive(serde::Deserialize)]
struct WorkloadSpec {
    name: String,
    /// Measured epochs per second of `--seconds`.
    epochs_per_s: f64,
    fix_err_m_mean_max: f64,
    /// Required share of directed kernel passes run by the FFT scan.
    fft_share: Option<f64>,
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad)?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "discover" => Box::new(convoy::Convoy::setup(convoy::DISCOVER, seed)),
        "track" => Box::new(convoy::Convoy::setup(convoy::TRACK, seed)),
        "fleet" => Box::new(fleet::Fleet::setup(seed)),
        other => unreachable!("workload {other} passed the spec lookup"),
    }
}

/// At least `n` epochs, rounded up to whole rounds of `w`.
fn whole_rounds(w: &dyn Workload, n: f64) -> usize {
    (n.ceil() as usize).div_ceil(w.round()) * w.round()
}

/// Runs `epochs` closed-loop epochs, fewer if the workload runs out: each
/// starts once the previous one returned.
fn run_phase(w: &mut dyn Workload, tr: &mut Tracer, epochs: usize) -> Phase {
    let epochs = epochs.min(w.max_epochs().unwrap_or(usize::MAX));
    let before = w.counts();
    let mut phase = Phase::default();
    let mut fixes: Vec<Fix> = Vec::new();
    while phase.epoch_ms.len() < epochs {
        w.prepare();
        tr.set_epoch(phase.epoch_ms.len() as u32);
        let t0 = Instant::now();
        tr.begin(trace::EPOCH);
        w.epoch(tr, &mut fixes);
        tr.end();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        phase.push_epoch(ms, &fixes);
        if phase.epoch_ms.len() == PROBE_EPOCHS {
            phase.prefix = Some(phase.digest);
        }
        fixes.clear();
    }
    phase.counts = w.counts().delta(&before);
    phase
}

/// Peak resident set of this process, MB (VmHWM). One process runs one
/// workload, so the peak is that workload's.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec: Spec = serde_json::from_str(include_str!("../spec.json")).expect("spec.json parses");
    let Some(ws) = spec.workloads.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(spec.default_seed);
    println!(
        "perfbench workload={} seed={seed} seconds={} trace={}",
        ws.name, args.seconds, args.trace as u8
    );
    println!("stamp {}", stamp::stamp());

    let mut checks = report::Checks::default();
    let mut setup_s = Vec::new();
    let mut probe: Option<Digest> = None;
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let mut w = setup(&ws.name, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            probe = Some(run_phase(&mut *w, &mut Tracer::new(false), PROBE_EPOCHS).digest);
        }
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");

    // A traced run splits the epochs between the untraced twin and the
    // traced run.
    let epochs = ws.epochs_per_s * args.seconds;
    let epochs = if args.trace {
        whole_rounds(&*w, (epochs / 2.0).max(TRACE_MIN_EPOCHS as f64))
    } else {
        whole_rounds(&*w, epochs.max(stats::min_samples(90.0) as f64))
    };
    let measured = run_phase(&mut *w, &mut Tracer::new(false), epochs);
    drop(w);
    checks.expect(
        measured.prefix == probe,
        format!(
            "repeat digest {:?} != first set-up {probe:?}",
            measured.prefix
        ),
    );
    checks.expect(
        measured
            .mean_err()
            .is_some_and(|e| e <= ws.fix_err_m_mean_max),
        format!(
            "fix_err_m_mean {:?} above ceiling {}",
            measured.mean_err(),
            ws.fix_err_m_mean_max
        ),
    );
    if let Some(want) = ws.fft_share {
        let got = report::fft_share(&measured.counts.engine);
        checks.expect(
            got == want,
            format!("engine.fft_share {got} != {want}: the workload crossed the kernel choice"),
        );
    }
    println!("digest {}", measured.digest);

    let e2e = report::end_to_end(&measured, &setup_s, peak_rss_mb());
    report::print_metrics(&e2e);

    let metrics = if args.trace {
        let mut w = setup(&ws.name, seed);
        let mut tr = Tracer::new(true);
        let traced = run_phase(&mut *w, &mut tr, measured.epoch_ms.len());
        checks.expect(
            traced.digest == measured.digest,
            format!(
                "traced digest {} != untraced {}",
                traced.digest, measured.digest
            ),
        );
        let layers = report::per_layer(tr.spans(), &traced, &measured);
        report::print_layers(&layers, tr.spans(), &traced);
        let unaccounted = trace::unaccounted_share(tr.spans());
        checks.expect(
            unaccounted <= spec.max_unaccounted_share,
            format!(
                "trace.unaccounted_share {unaccounted} above {}",
                spec.max_unaccounted_share
            ),
        );
        match write_spans(&tr, &ws.name, seed) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => checks.expect(false, format!("writing spans: {e}")),
        }
        layers
    } else {
        e2e
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), format!("{} is not finite", m.name));
    }

    let (attempted, ok) = (measured.attempted, measured.ok);
    checks.print();
    println!(
        "{}",
        report::result_json(checks.passed(), attempted, attempted - ok, &metrics)
    );
    if checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_spans(tr: &Tracer, workload: &str, seed: u64) -> std::io::Result<String> {
    fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/spans-{workload}-{seed}.json");
    tr.write_json(&mut BufWriter::new(fs::File::create(&path)?))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Counts;

    struct Rounds(usize);

    impl Workload for Rounds {
        fn epoch(&mut self, _: &mut Tracer, _: &mut Vec<Fix>) {}
        fn counts(&self) -> Counts {
            Counts::default()
        }
        fn round(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn phases_run_whole_rounds() {
        assert_eq!(whole_rounds(&Rounds(16), 350.0), 352);
        assert_eq!(whole_rounds(&Rounds(16), 352.0), 352);
        assert_eq!(whole_rounds(&Rounds(1), 124.2), 125);
    }

    #[test]
    fn a_phase_runs_exactly_its_epochs() {
        let mut w = Rounds(1);
        let p = run_phase(&mut w, &mut Tracer::new(false), 7);
        assert_eq!(p.epoch_ms.len(), 7);
    }
}
