//! Golden convoy fixture: the beacon → link → inbox → fix → fuse chain,
//! pinned byte for byte.
//!
//! Two small convoy figures run on the plain-beacon path — `ext-fusion`
//! (four vehicles fusing each epoch's fix graph) and `ext-faults` (one
//! front–rear pair) — each over the ideal channel and the acceptance
//! cell (30 % expected burst loss plus 1 % corruption). Their figures are
//! serialised together and compared with
//! `tests/fixtures/convoy_golden.json`. Any drift in how the convoy
//! drives, beacons, delivers, vets, grades or fuses shows up here.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test convoy_golden
//! ```

use rups_eval::figures::{ext_faults, ext_fusion, EvalScale};
use rups_eval::Figure;
use serde::Serialize;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/convoy_golden.json"
);

/// Everything the fixture pins, in one serialisable record.
#[derive(Serialize)]
struct GoldenRecord {
    ext_fusion: Figure,
    ext_faults: Figure,
}

fn scale(duration_s: f64) -> EvalScale {
    EvalScale {
        n_channels: 24,
        duration_s,
        ..EvalScale::quick()
    }
}

/// The ideal channel and the acceptance cell, by their legend labels.
const PINNED: [&str; 2] = ["ideal channel", "burst 30% loss + 1% corruption"];

fn record() -> GoldenRecord {
    let mut fusion = ext_fusion::Params {
        scale: scale(40.0),
        n_vehicles: 4,
        ..ext_fusion::quick_params()
    };
    fusion.cells.retain(|c| PINNED.contains(&c.label.as_str()));
    let mut faults = ext_faults::Params {
        scale: scale(30.0),
        ..ext_faults::quick_params()
    };
    faults.cells.retain(|c| PINNED.contains(&c.label.as_str()));
    assert_eq!((fusion.cells.len(), faults.cells.len()), (2, 2));
    GoldenRecord {
        ext_fusion: ext_fusion::run(&fusion),
        ext_faults: ext_faults::run(&faults),
    }
}

#[test]
fn convoy_figures_reproduce_the_golden_fixture() {
    let json = serde_json::to_string_pretty(&record()).expect("record must serialise");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let dir = std::path::Path::new(FIXTURE).parent().unwrap();
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(FIXTURE, &json).unwrap();
    }
    let on_disk = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — regenerate with UPDATE_GOLDEN=1");
    // Deliberately not assert_eq!: on drift that would dump the full JSON.
    assert!(
        on_disk == json,
        "the convoy figures no longer reproduce the golden fixture \
         byte-for-byte (lengths: fixture {} vs regenerated {}); if the \
         change is intentional, refresh with UPDATE_GOLDEN=1",
        on_disk.len(),
        json.len()
    );
}
