//! Batched-engine vs naive per-query throughput for one epoch of
//! neighbour distance queries (the §V-B heavy-traffic path).
//!
//! `batched` answers the whole epoch through `RupsNode::fix_distances_parallel`
//! — one `SynQueryEngine` work-stealing pass sharing the cached interpolated
//! context, window memo, own-side `f64` rows and spectra and pooled scratch
//! arenas.
//! `naive` replays what every query used to cost before the engine: clone +
//! interpolate the own context, re-select every window and run the reference
//! multi-SYN search, once per neighbour, sequentially.
//!
//! The workload lives in `rups_bench::syn_batch` so the `bench_gate` CI
//! binary measures exactly the same cases against the committed baseline.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use rups_bench::baseline;
use rups_bench::syn_batch::{build_node, measure, naive_fix, neighbour_snapshots, BATCH_SIZES};

fn bench_syn_batch(c: &mut Criterion) {
    let node = build_node(21);
    let mut group = c.benchmark_group("syn_batch");
    for &n in &BATCH_SIZES {
        let snaps = neighbour_snapshots(21, n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("batched", n), &snaps, |b, snaps| {
            b.iter(|| {
                let fixes = node.fix_distances_parallel(snaps);
                assert!(fixes.iter().all(|f| f.is_ok()));
                fixes
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &snaps, |b, snaps| {
            b.iter(|| {
                snaps
                    .iter()
                    .map(|s| naive_fix(&node, &s.gsm))
                    .collect::<Vec<f64>>()
            })
        });
    }
    group.finish();

    // Counter sanity: the batched path must actually be hitting its caches.
    let snaps = neighbour_snapshots(21, 8);
    let _ = node.fix_distances_parallel(&snaps);
    let stats = node.engine_stats();
    eprintln!("engine stats after batches: {stats:?}");
    assert!(stats.context_rebuilds <= 1, "context must be cached");
    assert!(stats.window_hits > 0, "window memo must be hit");
}

/// Re-measures every case with a plain wall clock and writes the
/// committed machine-readable baseline (`results/BENCH_syn_batch.json`,
/// format in EXPERIMENTS.md): median ns per fix per case, plus the
/// engine's cache-hit rates while driving the batched path.
fn write_baseline() {
    let out = measure(15);
    let path = baseline::default_path("syn_batch");
    baseline::write(&path, &out);
    eprintln!("baseline written to {path}");
}

criterion_group!(syn_batch, bench_syn_batch);

fn main() {
    syn_batch();
    write_baseline();
}
