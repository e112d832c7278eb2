//! `soak` — the SLO-gated soak gate (see [`rups_bench::soak`]).
//!
//! ```text
//! RUPS_SOAK_SECS=20 cargo run --release -p rups-bench --bin soak
//! ```
//!
//! Environment knobs:
//!
//! * `RUPS_SOAK_SECS` — wall-clock budget, seconds (default 20)
//! * `RUPS_SOAK_P99_MS` — `fix_p99_latency` ceiling, milliseconds
//!   (default 250; raise for debug builds)
//! * `RUPS_SOAK_VEHICLES` — convoy size (default 4)
//! * `RUPS_SOAK_OUT` — verdict JSON path (default
//!   `results/soak-slo.json` under the workspace)
//! * `RUPS_SOAK_ALARMS_OUT` — online alarm log JSON path (default
//!   `results/soak-alarms.json` under the workspace)
//!
//! Installs a counting global allocator so live heap bytes are sampled
//! per fix epoch; exits 1 when any SLO or the flat-memory assertion
//! breaches, which is exactly what the CI soak job gates on.

use rups_bench::soak::{run_soak, SoakConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts net live bytes (allocated minus freed).
struct LiveAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn default_out_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/soak-slo.json").to_string()
}

fn main() {
    let cfg = SoakConfig {
        n_vehicles: env_f64("RUPS_SOAK_VEHICLES", 4.0) as usize,
        wall_secs: env_f64("RUPS_SOAK_SECS", 20.0),
        p99_max_ns: env_f64("RUPS_SOAK_P99_MS", 250.0) * 1e6,
        ..SoakConfig::default()
    };
    eprintln!(
        "soak: {} vehicles for {:.0} s wall (p99 ceiling {:.0} ms)…",
        cfg.n_vehicles,
        cfg.wall_secs,
        cfg.p99_max_ns / 1e6,
    );
    let outcome = run_soak(&cfg, &|| LIVE_BYTES.load(Ordering::Relaxed));

    println!(
        "soak: {} epochs over {} sim-s in {:.1} wall-s, {} fleet windows",
        outcome.epochs, outcome.sim_s, outcome.wall_s, outcome.windows
    );
    for r in &outcome.slo.reports {
        println!(
            "  slo {:28} {}  observed {:.4} vs {:.4} ({} events{})",
            r.name,
            if r.pass { "pass" } else { "FAIL" },
            r.observed,
            r.threshold,
            r.events,
            if r.armed { "" } else { "; never armed" },
        );
    }
    println!(
        "  mem {:28} {}  {:.2} MiB -> {:.2} MiB (x{:.4}, peak {:.2} MiB, {} samples)",
        "flat_live_bytes",
        if outcome.mem.pass { "pass" } else { "FAIL" },
        outcome.mem.first_half_avg_bytes / (1 << 20) as f64,
        outcome.mem.second_half_avg_bytes / (1 << 20) as f64,
        outcome.mem.growth_ratio,
        outcome.mem.max_live_bytes as f64 / (1 << 20) as f64,
        outcome.mem.samples,
    );
    let s = &outcome.sampler;
    println!(
        "  sampler {:24} {}  {}/{} spans committed (x{:.3} <= x{:.3}), \
         anomalous {}/{} retained{}, record {:.0} ns/span (budget {:.0}, \
         {} demotions, head rate {:.4})",
        "tail_sampling",
        if s.pass { "pass" } else { "FAIL" },
        s.spans_committed,
        s.spans_ingested,
        s.committed_fraction,
        s.max_committed_fraction,
        s.anomalous_retained,
        s.anomalous_traces,
        if s.shadow_checked {
            ""
        } else {
            " (unchecked: no spans)"
        },
        s.mean_record_ns,
        s.budget_ns_per_span,
        s.demotions,
        s.head_rate,
    );
    if outcome.alarms.is_empty() {
        println!(
            "  alarms: none over {} fleet windows",
            outcome.alarm_windows
        );
    } else {
        println!(
            "  alarms: {} over {} fleet windows (early warnings):",
            outcome.alarms.len(),
            outcome.alarm_windows
        );
        for a in &outcome.alarms {
            println!(
                "    {:28} window {} (t={:.0}s, detection latency {} windows \
                 into the stream): {:.4} vs baseline {:.4}, score {:.1}/{:.1}",
                a.detector,
                a.window_index,
                a.t_s,
                a.window_index + 1,
                a.value,
                a.baseline,
                a.score,
                a.threshold,
            );
        }
    }
    let alarms_out = std::env::var("RUPS_SOAK_ALARMS_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/soak-alarms.json"
        )
        .to_string()
    });
    if let Some(parent) = std::path::Path::new(&alarms_out).parent() {
        std::fs::create_dir_all(parent).expect("create alarm log dir");
    }
    let alarm_json = serde_json::to_string_pretty(&outcome.alarms).expect("serialize alarm log");
    std::fs::write(&alarms_out, alarm_json).expect("write alarm log");
    println!("  alarm log written to {alarms_out}");

    let out = std::env::var("RUPS_SOAK_OUT").unwrap_or_else(|_| default_out_path());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("create soak output dir");
    }
    let json = serde_json::to_string_pretty(&outcome).expect("serialize soak outcome");
    std::fs::write(&out, json).expect("write soak verdict");
    println!("  verdict written to {out}");

    if !outcome.pass {
        eprintln!("soak: BREACH");
        std::process::exit(1);
    }
    println!("soak: all SLOs held and the warm path is allocation-flat");
}
