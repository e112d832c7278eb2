//! `evaluate` — regenerates every figure/table of the RUPS paper.
//!
//! ```text
//! evaluate [--quick] [--json DIR] [FIGURE ...]
//!
//!   FIGURE   any of: fig1 fig2 fig3 fig4 sec5a sec5b fig9 fig10 fig11 fig12
//!            ext-diagnosis ext-faults ext-fleet-observability
//!            ext-fleet-scale ext-fpr
//!            ext-fusion ext-multiband ext-observability ext-pedestrian
//!            ext-scalability abl-window abl-channels
//!            abl-interp   (default: all)
//!   --quick  reduced scale (fast; for smoke runs and debug builds)
//!   --json DIR  also write each figure as DIR/<id>.json, and the side
//!               artefacts a figure returns beside it (an artefact named
//!               <id>.json takes the figure's place)
//! ```
//!
//! Without `--json` nothing is written.
//!
//! Run with `--release`: the accuracy experiments replay hundreds of
//! queries over ~200-channel × 900 s traces.

use rups_eval::figures::{self, Artefact};
use rups_eval::series::Figure;

struct Args {
    quick: bool,
    json_dir: Option<String>,
    figures: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        json_dir: None,
        figures: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--json" => {
                args.json_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json needs a directory argument");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!(
                    "usage: evaluate [--quick] [--json DIR] [FIGURE ...]\n\
                     figures: fig1 fig2 fig3 fig4 sec5a sec5b fig9 fig10 fig11 fig12 \
                              ext-diagnosis ext-faults ext-fleet-observability \
                              ext-fleet-scale ext-fpr ext-fusion \
                              ext-multiband ext-observability \
                              ext-pedestrian ext-scalability \
                              abl-window abl-channels abl-interp"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => args.figures.push(other.to_string()),
        }
    }
    args
}

/// `quick_params()` under `--quick`, the paper-scale default otherwise.
fn preset<P: Default>(quick: bool, quick_params: fn() -> P) -> P {
    if quick {
        quick_params()
    } else {
        P::default()
    }
}

/// Runs one figure: its series plus the side artefacts it hands back.
fn run_figure(id: &str, quick: bool) -> (Figure, Vec<Artefact>) {
    use figures::*;
    let scale = &if quick {
        EvalScale::quick()
    } else {
        EvalScale::paper()
    };
    let alone = |fig: Figure| (fig, Vec::new());
    match id {
        "fig1" => alone(fig01::run(&preset(quick, fig01::quick_params))),
        "fig2" => alone(fig02::run(&preset(quick, fig02::quick_params))),
        "fig3" => alone(fig03::run(&preset(quick, fig03::quick_params))),
        "fig4" => alone(fig04::run(&preset(quick, fig04::quick_params))),
        "sec5a" => alone(cost::run(&preset(quick, cost::quick_params))),
        "sec5b" => alone(comm::run(&preset(quick, comm::quick_params))),
        "fig9" => alone(fig09::run(scale)),
        "fig10" => alone(fig10::run(scale)),
        "fig11" => alone(fig11::run(scale)),
        "fig12" => alone(fig12::run(scale)),
        "ext-diagnosis" => ext_diagnosis::run(scale),
        "ext-faults" => alone(ext_faults::run(&preset(quick, ext_faults::quick_params))),
        "ext-fusion" => alone(ext_fusion::run(&preset(quick, ext_fusion::quick_params))),
        "ext-fpr" => alone(ext_fpr::run(&preset(quick, ext_fpr::quick_params))),
        "ext-fleet-observability" => {
            ext_fleet_observability::run(&preset(quick, ext_fleet_observability::quick_params))
        }
        "ext-fleet-scale" => ext_fleet_scale::run(&preset(quick, ext_fleet_scale::quick_params)),
        "ext-observability" => {
            ext_observability::run(&preset(quick, ext_observability::quick_params))
        }
        "ext-multiband" => alone(ext_multiband::run(scale)),
        "ext-pedestrian" => alone(ext_pedestrian::run(scale)),
        "ext-scalability" => alone(ext_scalability::run(scale)),
        "abl-window" => alone(ablations::window_length(scale)),
        "abl-channels" => alone(ablations::channel_count(scale)),
        "abl-interp" => alone(ablations::interpolation(scale)),
        other => {
            eprintln!("unknown figure {other}");
            std::process::exit(2);
        }
    }
}

const ALL_FIGURES: [&str; 23] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "sec5a",
    "sec5b",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ext-diagnosis",
    "ext-faults",
    "ext-fleet-observability",
    "ext-fleet-scale",
    "ext-fpr",
    "ext-fusion",
    "ext-multiband",
    "ext-observability",
    "ext-pedestrian",
    "ext-scalability",
    "abl-window",
    "abl-channels",
    "abl-interp",
];

fn main() {
    let args = parse_args();

    let selected: Vec<String> = if args.figures.is_empty() {
        ALL_FIGURES.iter().map(|s| s.to_string()).collect()
    } else {
        for want in &args.figures {
            if !ALL_FIGURES.contains(&want.as_str()) {
                eprintln!("unknown figure {want}");
                std::process::exit(2);
            }
        }
        args.figures.clone()
    };

    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    for id in &selected {
        let t0 = std::time::Instant::now();
        let (fig, artefacts) = run_figure(id, args.quick);
        let dt = t0.elapsed().as_secs_f64();
        println!("{}", fig.render_text(12));
        println!("   [{id} regenerated in {dt:.1} s]\n");
        if let Some(dir) = &args.json_dir {
            let figure_file = format!("{id}.json");
            let mut files = Vec::new();
            if !artefacts.iter().any(|a| a.file == figure_file) {
                let json = serde_json::to_string_pretty(&fig).expect("serialize figure");
                files.push((figure_file, json));
            }
            files.extend(artefacts.into_iter().map(|a| (a.file.to_string(), a.json)));
            for (file, json) in files {
                let path = format!("{dir}/{file}");
                std::fs::write(&path, json).expect("write json");
                println!("   [wrote {path}]");
            }
        }
    }
}
