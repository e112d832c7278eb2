//! Batched-engine vs naive per-query cost for one epoch of neighbour
//! distance queries (the §V-B heavy-traffic path): the gated
//! [`rups_bench::syn_batch`] workload, printed and, with
//! `RUPS_BENCH_OUT_DIR` set, written as its baseline.

use rups_bench::baseline::{publish, BASELINE_SAMPLES};

fn main() {
    publish(&rups_bench::syn_batch::measure(BASELINE_SAMPLES));
}
