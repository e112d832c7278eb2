//! Debug-friendly smoke run of the soak harness: two wall-seconds of
//! convoy load must hold the (debug-relaxed) SLOs and stay
//! allocation-flat. The CI soak job runs the real 20 s release gate via
//! the `soak` binary; this test keeps the harness itself honest in plain
//! `cargo test`.

use rups_bench::soak::{run_soak, SoakConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn short_soak_holds_slos_and_stays_allocation_flat() {
    let cfg = SoakConfig {
        wall_secs: 2.0,
        // Debug builds are ~20× slower; judge health, not optimisation.
        p99_max_ns: 5e9,
        // A 2 s run has few samples; allow debug-build jitter.
        mem_growth_tol: 0.05,
        // Debug epochs are slow; close fleet windows often enough that the
        // detector bank genuinely observes some.
        window_epochs: 2,
        ..SoakConfig::default()
    };
    let outcome = run_soak(&cfg, &|| LIVE_BYTES.load(Ordering::Relaxed));

    assert!(outcome.epochs > 0, "no fix epoch completed in 2 s");
    assert!(outcome.sim_s > 0);
    assert_eq!(outcome.slo.reports.len(), outcome.slo_specs.len());
    assert!(
        outcome.slo.pass,
        "SLO breach in smoke soak: {:?}",
        outcome.slo.reports
    );
    assert!(
        outcome.slo.reports.iter().any(|r| r.armed),
        "nothing armed — the load loop is not exercising the pipeline"
    );
    assert!(
        outcome.mem.pass,
        "allocation growth on the warm path: {:?}",
        outcome.mem
    );
    assert!(outcome.mem.samples > 0);
    let s = &outcome.sampler;
    assert!(s.pass, "tail-sampling verdict failed in smoke soak: {s:?}");
    // bench pulls rups-core with default features, so the span layer is
    // live and the shadow cross-check is real, not vacuous.
    assert!(
        s.shadow_checked,
        "span layer should be live in bench builds"
    );
    assert!(s.spans_ingested > 0);
    assert!(s.traces_finished > 0, "traces must settle every epoch");
    assert!(
        s.committed_fraction <= s.max_committed_fraction,
        "tail sampling must shed volume: {s:?}"
    );
    assert_eq!(
        s.anomalous_retained, s.anomalous_traces,
        "exhaustive shadow cross-check: every anomalous trace retained"
    );
    // The detector bank watched the fleet-window stream.
    assert!(
        outcome.alarm_windows > 0,
        "no fleet window reached the bank"
    );
    assert!(outcome.pass);

    // The verdict round-trips through JSON (the binary commits it as the
    // CI artefact).
    let json = serde_json::to_string(&outcome).unwrap();
    let back: rups_bench::soak::SoakOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome);
}
