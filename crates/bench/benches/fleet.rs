//! End-to-end sharded fleet epochs (beacon → route → relay → receive →
//! query) at 1 and 4 scheduler workers, plus the cell-index maintenance
//! and halo-query microbenches the serving layer rests on: the gated
//! [`rups_bench::fleet`] workload, printed and, with `RUPS_BENCH_OUT_DIR`
//! set, written as its baseline.

use rups_bench::baseline::{publish, BASELINE_SAMPLES};

fn main() {
    publish(&rups_bench::fleet::measure(BASELINE_SAMPLES));
}
