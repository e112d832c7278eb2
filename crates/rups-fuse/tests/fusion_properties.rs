//! Property-based tests of the fusion invariants, driven by the
//! synthetic-scenario generator (known ground truth, deterministic in
//! the seed).
//!
//! The invariants:
//! - clean input is recovered exactly up to the gauge freedom;
//! - the anchor choice is a pure translation (displacements invariant);
//! - fusion never degrades the weighted RMS error of the input
//!   (rejection disabled — that case is a theorem: least squares is a
//!   W-orthogonal projection onto the cycle-consistent subspace, which
//!   contains the truth);
//! - a `Low`-grade fix can never outweigh a `High`-grade one;
//! - gross corrupted chords are rejected before they perturb the fused
//!   solution beyond the noise floor.

use proptest::prelude::*;
use rups_core::quality::{FixQuality, QualityReport};
use rups_fuse::{generate, weight_for, FuseConfig, Fuser, SynthConfig};

fn scenario_cfg(seed: u64, n_nodes: usize, n_chords: usize, noise: f64) -> SynthConfig {
    SynthConfig {
        seed,
        n_nodes,
        n_chords,
        noise_sigma_m: noise,
        ..SynthConfig::default()
    }
}

fn report(quality: FixQuality, bound: f64) -> QualityReport {
    QualityReport {
        quality,
        error_bound_m: bound,
        estimate_spread_m: 0.0,
        score: 1.8,
    }
}

proptest! {
    // Noise-free connected graphs are recovered exactly (up to the
    // translation gauge, which `displacement` quotients away).
    #[test]
    fn clean_graphs_are_recovered_up_to_gauge(
        seed in 0u64..4000,
        n_nodes in 4usize..9,
        n_chords in 2usize..8,
    ) {
        let s = generate(&scenario_cfg(seed, n_nodes, n_chords, 0.0));
        prop_assert!(s.graph.is_connected());
        let sol = Fuser::default().solve(&s.graph).unwrap();
        prop_assert!(sol.residual_rms_m < 1e-6, "rms {}", sol.residual_rms_m);
        prop_assert!(sol.rejected.is_empty());
        for &(a, _) in &s.truth {
            for &(b, _) in &s.truth {
                let got = sol.displacement(a, b).unwrap();
                let want = s.truth_displacement(a, b).unwrap();
                prop_assert!(
                    (got - want).abs() < 1e-6,
                    "pair ({a},{b}): {got} vs {want}"
                );
            }
        }
    }

    // Re-anchoring translates every position by one constant and leaves
    // every pairwise displacement unchanged: the gauge group acts
    // trivially on the observables. Rejection is disabled because the
    // invariance holds exactly only for a fixed active edge set — a
    // leave-one-out verdict balanced on its gate can flip with the
    // anchor's floating-point rounding and change the set.
    #[test]
    fn anchor_choice_is_a_pure_translation(
        seed in 0u64..4000,
        n_nodes in 4usize..9,
        n_chords in 2usize..8,
        noise in 0.0f64..2.0,
    ) {
        let no_reject = |anchor| FuseConfig {
            anchor,
            reject_outliers: false,
        };
        let s = generate(&scenario_cfg(seed, n_nodes, n_chords, noise));
        let base = Fuser::new(no_reject(None)).solve(&s.graph).unwrap();
        let alt_anchor = *s.graph.nodes().last().unwrap();
        let alt = Fuser::new(no_reject(Some(alt_anchor)))
            .solve(&s.graph)
            .unwrap();
        prop_assert_eq!(alt.anchor, alt_anchor);
        let shift = base.position_of(alt_anchor).unwrap();
        for &(id, _) in &s.truth {
            let a = base.position_of(id).unwrap();
            let b = alt.position_of(id).unwrap();
            prop_assert!(
                (a - shift - b).abs() < 1e-6,
                "node {id}: {a} − {shift} vs {b}"
            );
            for &(other, _) in &s.truth {
                let d0 = base.displacement(id, other).unwrap();
                let d1 = alt.displacement(id, other).unwrap();
                prop_assert!((d0 - d1).abs() < 1e-6);
            }
        }
    }

    // With rejection disabled, fusion is a weighted projection onto the
    // cycle-consistent subspace — which contains the truth — so the
    // weighted RMS error of the fused estimates never exceeds that of
    // the raw measurements.
    #[test]
    fn fusion_never_degrades_the_input(
        seed in 0u64..4000,
        n_nodes in 4usize..9,
        n_chords in 2usize..8,
        noise in 0.0f64..3.0,
    ) {
        let s = generate(&scenario_cfg(seed, n_nodes, n_chords, noise));
        let fuser = Fuser::new(FuseConfig {
            reject_outliers: false,
            ..FuseConfig::default()
        });
        let sol = fuser.solve(&s.graph).unwrap();
        prop_assert!(sol.rejected.is_empty());
        let fused = s.fused_weighted_rms(|id| sol.position_of(id));
        let input = s.input_weighted_rms();
        prop_assert!(
            fused <= input + 1e-9,
            "fused {fused} vs input {input} (seed {seed})"
        );
    }

    // A `Low` fix never outweighs a `High` (or `Medium`) one, whatever
    // error bounds the two reports claim — the grade bands are disjoint.
    #[test]
    fn low_grade_never_dominates_high(
        low_bound in 1e-4f64..1e4,
        high_bound in 1e-4f64..1e4,
    ) {
        let low = weight_for(&report(FixQuality::Low, low_bound));
        let medium = weight_for(&report(FixQuality::Medium, low_bound));
        let high = weight_for(&report(FixQuality::High, high_bound));
        prop_assert!(low < medium, "{low} vs {medium}");
        prop_assert!(medium < high, "{medium} vs {high}");
        // Degenerate bounds fall to the band floor, never out of band.
        for bad in [f64::NAN, f64::INFINITY, -3.0, 0.0] {
            prop_assert!(weight_for(&report(FixQuality::Low, bad)) < high);
        }
    }

    // Chord edges corrupted by a gross offset are always rejected, and
    // the surviving solution stays within the noise floor of the truth.
    #[test]
    fn corrupted_chords_are_rejected_before_they_perturb(
        seed in 0u64..2000,
        n_nodes in 5usize..9,
        n_chords in 4usize..8,
        n_corrupt in 1usize..3,
    ) {
        let s = generate(&SynthConfig {
            seed,
            n_nodes,
            n_chords,
            noise_sigma_m: 0.4,
            n_corrupt,
            corrupt_offset_m: 80.0,
            ..SynthConfig::default()
        });
        let sol = Fuser::default().solve(&s.graph).unwrap();
        for &i in &s.corrupted {
            let e = s.graph.edges()[i];
            let hit = sol.rejected.iter().any(|r| {
                (r.a, r.b) == (e.a, e.b) && (r.measured_m - e.measured_m).abs() < 1e-12
            });
            prop_assert!(
                hit,
                "corrupted edge ({}, {}) = {} not rejected (seed {seed})",
                e.a, e.b, e.measured_m
            );
        }
        // The corruption (≥ 48 m offsets) must not leak into the fused
        // geometry. The bound leaves room for honest measurement noise on
        // a weakly-covered cut (a lone Low-grade chain edge can carry a
        // few metres of error) while still catching any leak.
        for &(a, _) in &s.truth {
            for &(b, _) in &s.truth {
                let got = sol.displacement(a, b).unwrap();
                let want = s.truth_displacement(a, b).unwrap();
                prop_assert!(
                    (got - want).abs() < 10.0,
                    "pair ({a},{b}): fused {got} vs truth {want} (seed {seed})"
                );
            }
        }
    }
}
