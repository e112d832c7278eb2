//! Turning a phase's epochs, fixes, counters and spans into the named
//! metrics, the output digest and the result line.

use std::fmt;

use rups_core::engine::EngineStats;

use crate::stamp::Fnv;
use crate::stats::{self, mean, median, percentile, ratio};
use crate::trace::{self, Span};
use crate::workload::{Counts, Fix};

/// End-to-end metrics, with units, in reporting order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("fixes_per_s", "1/s"),
    ("fix_ok_ratio", "ratio"),
    ("fix_err_m_mean", "m"),
    ("fix_err_m_p95", "m"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units, in reporting order.
/// Self times and counts are per epoch.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("bind.self_ms", "ms"),
    ("snapshot.self_ms", "ms"),
    ("encode.self_ms", "ms"),
    ("encode.bytes", "B"),
    ("link.self_ms", "ms"),
    ("link.delivery_ratio", "ratio"),
    ("decode.self_ms", "ms"),
    ("decode.frames", "count"),
    ("decode.reject_ratio", "ratio"),
    ("inbox.self_ms", "ms"),
    ("inbox.reject_ratio", "ratio"),
    ("engine.self_ms", "ms"),
    ("engine.call_ms_p50", "ms"),
    ("engine.call_ms_p90", "ms"),
    ("engine.queries", "count"),
    ("engine.context_hit_rate", "ratio"),
    ("engine.window_hit_rate", "ratio"),
    ("engine.fft_share", "ratio"),
    ("engine.pruned_placements", "count"),
    ("tracker.incremental_ratio", "ratio"),
    ("quality.high_ratio", "ratio"),
    ("quality.low_ratio", "ratio"),
    ("fuse.self_ms", "ms"),
    ("fuse.rejected_edges", "count"),
    ("fleet.query_ms", "ms"),
    ("fleet.other_ms", "ms"),
    ("fleet.tasks", "count"),
    ("fleet.relayed", "count"),
    ("fleet.rehomes", "count"),
    ("sched.steals", "count"),
    ("sched.imbalance", "ratio"),
    ("cell.moves", "count"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Span names whose self time is a layer's `self_ms`.
const SELF_TIMES: [(&str, &str); 10] = [
    ("bind.self_ms", "bind"),
    ("snapshot.self_ms", "snapshot"),
    ("encode.self_ms", "encode"),
    ("link.self_ms", "link"),
    ("decode.self_ms", "decode"),
    ("inbox.self_ms", "inbox"),
    ("engine.self_ms", "engine"),
    ("fuse.self_ms", "fuse"),
    ("fleet.query_ms", "fleet.query"),
    ("fleet.other_ms", "fleet.step"),
];

/// Quantised summary of every fix a phase produced: equal digests mean
/// equal fix outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub fixes: u64,
    pub ok: u64,
    /// Σ |fix − truth| over successful fixes, in whole micrometres.
    pub err_sum_um: i64,
    /// Wrapping sum of FNV-1a over each (observer, neighbour, fixed
    /// distance bits): independent of the order in which an inbox hands
    /// out its snapshots.
    pub hash: u64,
}

impl Digest {
    fn add(&mut self, f: &Fix) {
        self.fixes += 1;
        let mut h = Fnv::default();
        h.write(&f.observer.to_le_bytes());
        h.write(&f.neighbour.to_le_bytes());
        h.write(&f.est_m.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        self.hash = self.hash.wrapping_add(h.0);
        if let Some(est) = f.est_m {
            self.ok += 1;
            self.err_sum_um += ((est - f.truth_m).abs() * 1e6).round() as i64;
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fixes={} ok={} err_sum_um={} hash={:016x}",
            self.fixes, self.ok, self.err_sum_um, self.hash
        )
    }
}

/// Everything one run of consecutive epochs produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub epoch_ms: Vec<f64>,
    pub attempted: u64,
    pub ok: u64,
    pub errs: Vec<f64>,
    pub digest: Digest,
    /// Digest after the first few epochs, compared across set-ups.
    pub prefix: Option<Digest>,
    pub counts: Counts,
}

impl Phase {
    pub fn push_epoch(&mut self, ms: f64, fixes: &[Fix]) {
        self.epoch_ms.push(ms);
        for f in fixes {
            self.attempted += 1;
            self.digest.add(f);
            if let Some(est) = f.est_m {
                self.ok += 1;
                self.errs.push((est - f.truth_m).abs());
            }
        }
    }

    /// Wall seconds of the measured epochs.
    pub fn wall_s(&self) -> f64 {
        self.epoch_ms.iter().sum::<f64>() / 1e3
    }

    pub fn mean_err(&self) -> Option<f64> {
        mean(&self.errs)
    }
}

/// Share of directed kernel passes answered by the FFT scan.
pub fn fft_share(e: &EngineStats) -> f64 {
    ratio(
        e.fft_passes as f64,
        (e.fft_passes + e.reference_passes) as f64,
    )
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// NaN when the samples cannot support the statistic.
    pub value: f64,
    /// Sample count and other context for the printed line.
    pub note: String,
}

fn metrics(table: &[(&'static str, &'static str)], values: Vec<(f64, String)>) -> Vec<Metric> {
    assert_eq!(table.len(), values.len());
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, note))| Metric {
            name,
            unit,
            value,
            note,
        })
        .collect()
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(p: &Phase, setup_s: &[f64], peak_rss_mb: Option<f64>) -> Vec<Metric> {
    let p90 = stats::tail(&p.epoch_ms, 90.0);
    let p95 = stats::tail(&p.errs, 95.0);
    let nan = f64::NAN;
    let epochs = format!("n={} epochs", p90.samples);
    let errs = format!("n={} fixes", p95.samples);
    metrics(
        &END_TO_END,
        vec![
            (
                median(setup_s).unwrap_or(nan),
                format!("median of {} set-ups", setup_s.len()),
            ),
            (median(&p.epoch_ms).unwrap_or(nan), epochs.clone()),
            (
                p90.value.unwrap_or(nan),
                format!("{epochs}, {} beyond", p90.beyond),
            ),
            (
                ratio(p.ok as f64, p.wall_s()),
                format!("{} ok fixes in {:.3} s", p.ok, p.wall_s()),
            ),
            (
                ratio(p.ok as f64, p.attempted as f64),
                format!("{} of {} queries", p.ok, p.attempted),
            ),
            (p.mean_err().unwrap_or(nan), errs.clone()),
            (
                p95.value.unwrap_or(nan),
                format!("{errs}, {} beyond", p95.beyond),
            ),
            (peak_rss_mb.unwrap_or(nan), "VmHWM".into()),
        ],
    )
}

/// The per-layer metrics of a traced phase; `untraced` is its twin run
/// without spans, for the tracing overhead.
pub fn per_layer(spans: &[Span], traced: &Phase, untraced: &Phase) -> Vec<Metric> {
    let epochs = traced.epoch_ms.len().max(1) as f64;
    let by_name = trace::self_by_name(spans);
    let self_ms = |span: &str| {
        by_name
            .iter()
            .find(|(n, _)| *n == span)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6 / epochs)
    };
    let calls: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "engine")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let c = &traced.counts;
    let e = &c.engine;
    let per_epoch = |x: u64| (x as f64 / epochs, "per epoch".to_string());
    let share = |num: u64, den: u64| (ratio(num as f64, den as f64), format!("{num} of {den}"));
    let timed = |metric: &str| {
        let span = SELF_TIMES
            .iter()
            .find(|(m, _)| *m == metric)
            .expect("every timed metric names its span")
            .1;
        (self_ms(span), "self time per epoch".to_string())
    };
    let overhead = match (median(&traced.epoch_ms), median(&untraced.epoch_ms)) {
        (Some(t), Some(u)) => t / u - 1.0,
        _ => f64::NAN,
    };
    let n_calls = format!("n={} calls", calls.len());
    metrics(
        &PER_LAYER,
        vec![
            timed("bind.self_ms"),
            timed("snapshot.self_ms"),
            timed("encode.self_ms"),
            (
                ratio(c.encode_bytes as f64, c.beacons as f64),
                format!("mean of {} beacons", c.beacons),
            ),
            timed("link.self_ms"),
            share(c.link_delivered, c.link_offered),
            timed("decode.self_ms"),
            per_epoch(c.decode_frames),
            share(c.decode_rejects, c.decode_frames),
            timed("inbox.self_ms"),
            share(c.inbox_rejected, c.inbox_offered),
            timed("engine.self_ms"),
            (median(&calls).unwrap_or(0.0), n_calls.clone()),
            (percentile(&calls, 90.0).unwrap_or(0.0), n_calls),
            per_epoch(e.queries),
            (e.context_hit_rate(), "".into()),
            (e.window_hit_rate(), "".into()),
            share(e.fft_passes, e.fft_passes + e.reference_passes),
            per_epoch(e.pruned_placements),
            share(c.incremental, c.tracked),
            share(c.high, c.graded),
            share(c.low, c.graded),
            timed("fuse.self_ms"),
            per_epoch(c.fuse_rejected),
            timed("fleet.query_ms"),
            timed("fleet.other_ms"),
            per_epoch(c.fleet_tasks),
            per_epoch(c.fleet_relayed),
            per_epoch(c.fleet_rehomes),
            per_epoch(c.steals),
            (c.imbalance_sum / epochs, "max ÷ mean worker tasks".into()),
            per_epoch(c.cell_moves),
            (
                trace::unaccounted_share(spans),
                "1 − Σ layer self ÷ epoch wall".into(),
            ),
            (overhead, "traced ÷ untraced epoch p50 − 1".into()),
        ],
    )
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<26} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Prints the layer metrics, each layer's share of epoch wall time and
/// the largest layer.
pub fn print_layers(layers: &[Metric], spans: &[Span], traced: &Phase) {
    print_metrics(layers);
    let wall_ms = traced.wall_s() * 1e3 / traced.epoch_ms.len().max(1) as f64;
    let mut shares: Vec<(&str, f64)> = SELF_TIMES
        .iter()
        .map(|&(metric, _)| {
            let v = layers
                .iter()
                .find(|m| m.name == metric)
                .expect("per_layer reports every timed metric")
                .value;
            (metric, v / wall_ms)
        })
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, share) in &shares {
        println!("share {name:<26} {share:>8.4} of epoch wall");
    }
    println!(
        "largest layer {} ({:.4} of epoch wall, {} spans)",
        shares[0].0,
        shares[0].1,
        spans.len()
    );
}

/// Failed correctness checks.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn expect(&mut self, ok: bool, failure: String) {
        if !ok {
            self.0.push(failure);
        }
    }

    pub fn passed(&self) -> bool {
        self.0.is_empty()
    }

    pub fn print(&self) {
        for f in &self.0 {
            println!("check FAILED: {f}");
        }
        if self.passed() {
            println!("checks passed");
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in BENCHMARK.json must agree.
    #[test]
    fn tables_match_benchmark_json() {
        let doc: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let serde::Value::Map(top) = doc else {
            panic!("BENCHMARK.json is an object")
        };
        let names = |key: &str| -> Vec<(String, String)> {
            let Some((_, serde::Value::Seq(items))) = top.iter().find(|(k, _)| k == key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|item| {
                    let serde::Value::Map(fields) = item else {
                        panic!("metric is an object")
                    };
                    let get = |f: &str| {
                        fields
                            .iter()
                            .find(|(k, _)| k == f)
                            .and_then(|(_, v)| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
    }

    fn fix(est_m: Option<f64>, truth_m: f64) -> Fix {
        Fix {
            observer: 1,
            neighbour: 2,
            est_m,
            truth_m,
        }
    }

    #[test]
    fn digest_counts_fixes_and_quantises_error() {
        let mut p = Phase::default();
        p.push_epoch(10.0, &[fix(Some(41.5), 40.0), fix(None, 40.0)]);
        p.push_epoch(30.0, &[fix(Some(39.75), 40.0)]);
        assert_eq!((p.digest.fixes, p.digest.ok), (3, 2));
        assert_eq!(p.digest.err_sum_um, 1_750_000);
        assert_eq!((p.attempted, p.ok), (3, 2));
        assert_eq!(p.wall_s(), 0.04);
        assert_eq!(p.mean_err(), Some(0.875));

        let mut q = Phase::default();
        q.push_epoch(99.0, &[fix(Some(39.75), 40.0), fix(None, 40.0)]);
        q.push_epoch(1.0, &[fix(Some(41.5), 40.0)]);
        assert_eq!(p.digest, q.digest, "order and timing do not matter");
        let mut r = Phase::default();
        r.push_epoch(1.0, &[fix(Some(39.75000001), 40.0), fix(None, 40.0)]);
        r.push_epoch(1.0, &[fix(Some(41.5), 40.0)]);
        assert_ne!(p.digest, r.digest, "the hash sees every output bit");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let m = Metric {
            name: "epoch_ms_p50",
            unit: "ms",
            value: 1.25,
            note: String::new(),
        };
        assert_eq!(
            result_json(true, 10, 1, &[m]),
            r#"{"correct":true,"attempted":10,"failed":1,"metrics":{"epoch_ms_p50":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
