//! Golden-fusion regression fixture.
//!
//! A pinned six-vehicle synthetic fusion scenario (one corrupted chord,
//! known ground truth) is solved by the `rups-fuse` least-squares fuser
//! and the whole record — measurement graph, truth, fused solution,
//! rejections — is committed under `tests/fixtures/golden_fusion.json`.
//! The test regenerates the record from the seed and asserts the
//! serialisation is **byte-identical** to the committed fixture: any
//! drift in the synthetic generator, the edge weighting, the solver's
//! assembly order, or the outlier-rejection verdicts shows up here,
//! loudly, before it can silently reshape the eval artefacts.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rups-eval --test golden_fusion
//! ```

use rups_fuse::{generate, FusedSolution, Fuser, SynthConfig, SynthScenario};
use serde::Serialize;

const GOLDEN_SEED: u64 = 2016;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_fusion.json"
);

/// Everything the fixture pins, in one serialisable record.
#[derive(Serialize)]
struct GoldenRecord {
    scenario: SynthScenario,
    solution: FusedSolution,
}

/// Six vehicles, six redundant chords, realistic noise, one gross
/// corrupted edge — small enough to review, rich enough that the solver
/// has to weigh, refit and reject.
fn golden_scenario() -> SynthScenario {
    generate(&SynthConfig {
        seed: GOLDEN_SEED,
        n_nodes: 6,
        n_chords: 6,
        noise_sigma_m: 0.6,
        n_corrupt: 1,
        corrupt_offset_m: 60.0,
        ..SynthConfig::default()
    })
}

fn solve(scenario: &SynthScenario) -> FusedSolution {
    Fuser::default()
        .solve(&scenario.graph)
        .expect("golden scenario is connected and non-singular")
}

#[test]
fn golden_fusion_fixture_is_bit_stable() {
    let scenario = golden_scenario();
    let solution = solve(&scenario);
    let record = GoldenRecord { scenario, solution };
    let json = serde_json::to_string_pretty(&record).expect("record must serialise");
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
        "fusion no longer reproduces the golden fixture byte-for-byte \
         (lengths: fixture {} vs regenerated {}); if the change is \
         intentional, refresh with UPDATE_GOLDEN=1",
        on_disk.len(),
        json.len()
    );
}

#[test]
fn golden_fusion_semantics_are_stable() {
    let scenario = golden_scenario();
    let solution = solve(&scenario);

    // The one corrupted chord is rejected — matched by endpoints *and*
    // measured value, so a rejection of some other edge between the same
    // pair cannot pass.
    assert_eq!(solution.rejected.len(), 1, "exactly one edge rejected");
    let corrupt = scenario.graph.edges()[scenario.corrupted[0]];
    let r = &solution.rejected[0];
    assert_eq!((r.a, r.b), (corrupt.a, corrupt.b));
    assert!((r.measured_m - corrupt.measured_m).abs() < 1e-12);

    // Every fused displacement lands within the honest-noise envelope;
    // the 60 m corruption must not leak.
    for &(a, _) in &scenario.truth {
        for &(b, _) in &scenario.truth {
            let got = solution.displacement(a, b).unwrap();
            let want = scenario.truth_displacement(a, b).unwrap();
            assert!(
                (got - want).abs() < 5.0,
                "pair ({a},{b}): fused {got} vs truth {want}"
            );
        }
    }
}
