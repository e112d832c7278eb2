//! §V-B: serialization and exchange cost of journey contexts.
//!
//! Runs the gated [`rups_bench::codec`] workload (encode/decode of 600 m
//! and 1 km × 194-channel contexts, the latter the paper's 182 KB payload),
//! printed and, with `RUPS_BENCH_OUT_DIR` set, written as its baseline;
//! then times WSM fragmentation and reassembly of the 1 km payload, which
//! are printed only.

use rups_bench::baseline::{publish, time_case, BASELINE_SAMPLES};
use rups_bench::codec::{measure, snapshot};
use std::hint::black_box;
use v2v_sim::codec::encode_snapshot;
use v2v_sim::wsm::{fragment, reassemble, WsmConfig};

fn main() {
    publish(&measure(BASELINE_SAMPLES));
    let wire = encode_snapshot(&snapshot(1000));
    let cfg = WsmConfig::default();
    time_case("codec", "wsm_fragment/fragment_1km_context", || {
        fragment(black_box(&wire), &cfg)
    });
    let frags = fragment(&wire, &cfg);
    time_case("codec", "wsm_fragment/reassemble_1km_context", || {
        reassemble(black_box(&frags))
    });
}
