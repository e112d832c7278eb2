//! Figs. 1–4 (§III): the empirical-study experiments as benches — each
//! case regenerates the corresponding figure at a reduced scale, so
//! regressions in the signal-model pipeline show up as timing changes and
//! the figures stay reproducible from the bench harness as well.

use rups_bench::baseline::time_case;
use rups_eval::figures::{fig01, fig02, fig03, fig04};
use std::hint::black_box;

const BENCH: &str = "empirical";

fn main() {
    let p = fig01::Params {
        n_channels: 64,
        len_m: 120,
    };
    time_case(BENCH, "fig01_spectrogram/two_roads_three_entries", || {
        fig01::run(black_box(&p))
    });
    let p = fig02::quick_params();
    time_case(BENCH, "fig02_stability/power_vector_pairs", || {
        fig02::run(black_box(&p))
    });
    let p = fig03::quick_params();
    time_case(BENCH, "fig03_uniqueness/trajectory_cdfs", || {
        fig03::run(black_box(&p))
    });
    let p = fig04::quick_params();
    time_case(BENCH, "fig04_resolution/relative_change_sweep", || {
        fig04::run(black_box(&p))
    });
}
