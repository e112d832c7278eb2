//! Figs. 9–12 (§VI): the accuracy experiments as benches.
//!
//! Trace generation is done once per case (setup); the timed body is the
//! query path — the part a deployed RUPS node executes online. One case
//! per paper figure (two for Fig. 12), at bench scale.

use gsm_sim::RadioPlacement;
use rups_bench::baseline::time_case;
use rups_bench::{bench_scale, quick_trace};
use rups_eval::figures::{fig10, fig11, fig12};
use rups_eval::queries::{run_queries, sample_query_times, GpsBaseline};
use std::hint::black_box;
use urban_sim::road::RoadClass;

const BENCH: &str = "accuracy";

fn main() {
    let scale = bench_scale();

    // Fig. 9 path: SYN errors under a given radio configuration (query side).
    let trace = quick_trace(0xF09, RoadClass::Urban4Lane);
    let cfg = scale.rups_config();
    let times = sample_query_times(&trace, 4, 1);
    time_case(BENCH, "fig09_radios/queries_per_config", || {
        run_queries(black_box(&trace), &cfg, &times)
    });

    // Fig. 10 path: multi-SYN aggregation under occlusions.
    time_case(BENCH, "fig10_aggregation/full_figure", || {
        fig10::run(black_box(&scale))
    });

    // Fig. 11 path: one grid cell (environment × radio config).
    time_case(BENCH, "fig11_cell/suburb_4front", || {
        fig11::run_cell(
            &scale,
            RoadClass::Suburban2Lane,
            true,
            4,
            RadioPlacement::FrontPanel,
        )
    });

    // Fig. 12 path: RUPS and GPS on one road class, and the GPS baseline
    // alone for reference.
    time_case(BENCH, "fig12_vs_gps/under_elevated_road", || {
        fig12::run_road(&scale, RoadClass::UnderElevated)
    });
    let trace = quick_trace(0xF12, RoadClass::UnderElevated);
    time_case(BENCH, "fig12_vs_gps/gps_baseline_only", || {
        GpsBaseline::simulate(black_box(&trace), 1)
    });
}
