//! §V-B: serialization and exchange cost of journey contexts.
//!
//! Measures the snapshot codec (encode/decode of 600 m and 1 km × 194-channel
//! contexts, the latter the paper's 182 KB payload) and WSM fragmentation
//! throughput. The codec workload lives in `rups_bench::codec` so the
//! `bench_gate` CI binary measures exactly the same cases against the
//! committed baseline (`results/BENCH_codec.json`).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use rups_bench::baseline;
use rups_bench::codec::{snapshot, LENGTHS_M};
use std::hint::black_box;
use v2v_sim::codec::{decode_snapshot, encode_snapshot};
use v2v_sim::wsm::{fragment, reassemble, WsmConfig};

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec/encode");
    for len in LENGTHS_M {
        let snap = snapshot(len);
        let bytes = encode_snapshot(&snap).len() as u64;
        g.throughput(Throughput::Bytes(bytes));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| black_box(encode_snapshot(black_box(&snap))))
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec/decode");
    for len in LENGTHS_M {
        let wire = encode_snapshot(&snapshot(len));
        g.throughput(Throughput::Bytes(wire.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| black_box(decode_snapshot(black_box(&wire)).unwrap()))
        });
    }
    g.finish();
}

fn bench_fragment_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec/wsm_fragment");
    let wire = encode_snapshot(&snapshot(1000));
    let cfg = WsmConfig::default();
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("fragment_1km_context", |b| {
        b.iter(|| black_box(fragment(black_box(&wire), &cfg)))
    });
    let frags = fragment(&wire, &cfg);
    g.bench_function("reassemble_1km_context", |b| {
        b.iter(|| black_box(reassemble(black_box(&frags))))
    });
    g.finish();
}

/// Re-measures the codec cases with a plain wall clock and writes the
/// committed machine-readable baseline (`results/BENCH_codec.json`, format
/// in EXPERIMENTS.md).
fn write_baseline() {
    let out = rups_bench::codec::measure(15);
    let path = baseline::default_path("codec");
    baseline::write(&path, &out);
    eprintln!("baseline written to {path}");
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_fragment_roundtrip
);

fn main() {
    benches();
    write_baseline();
}
