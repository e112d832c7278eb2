//! Differential tests: the one-solve least-squares fuser against a
//! brute-force reference on small graphs.
//!
//! The reference shares no machinery with the production path: Gauss–Seidel
//! coordinate descent — each sweep sets every free node to the weighted
//! mean of its neighbours' implied positions, which is the exact
//! single-coordinate minimiser of the quadratic cost. Convexity makes the
//! fixed point the global optimum.

use proptest::prelude::*;
use rups_core::quality::FixQuality;
use rups_fuse::{generate, FixGraph, FuseConfig, Fuser, SynthConfig};

/// Reference 1-D solver: coordinate descent to the weighted least-squares
/// optimum with `anchor` pinned at 0. Exact per-coordinate minimiser, so
/// every sweep monotonically decreases the convex cost.
fn coordinate_descent(graph: &FixGraph, anchor: u64, max_sweeps: usize) -> Vec<(u64, f64)> {
    let mut pos: Vec<(u64, f64)> = graph.nodes().iter().map(|&n| (n, 0.0)).collect();
    let idx_of =
        |pos: &Vec<(u64, f64)>, id: u64| pos.binary_search_by_key(&id, |&(n, _)| n).expect("node");
    for _ in 0..max_sweeps {
        let mut moved = 0.0f64;
        for i in 0..pos.len() {
            let (id, _) = pos[i];
            if id == anchor {
                pos[i].1 = 0.0;
                continue;
            }
            // Optimal x_id given all others: weighted mean of the
            // positions each incident edge implies for it.
            let mut wsum = 0.0;
            let mut acc = 0.0;
            for e in graph.edges() {
                if e.a == id {
                    let xb = pos[idx_of(&pos, e.b)].1;
                    acc += e.weight * (xb - e.measured_m);
                    wsum += e.weight;
                } else if e.b == id {
                    let xa = pos[idx_of(&pos, e.a)].1;
                    acc += e.weight * (xa + e.measured_m);
                    wsum += e.weight;
                }
            }
            if wsum > 0.0 {
                let next = acc / wsum;
                moved = moved.max((next - pos[i].1).abs());
                pos[i].1 = next;
            }
        }
        if moved < 1e-11 {
            break;
        }
    }
    pos
}

/// Weighted SSE of a 1-D assignment — the objective both solvers claim
/// to minimise.
fn cost_1d(graph: &FixGraph, pos: &[(u64, f64)]) -> f64 {
    let of = |id: u64| pos[pos.binary_search_by_key(&id, |&(n, _)| n).unwrap()].1;
    graph
        .edges()
        .iter()
        .map(|e| {
            let r = (of(e.b) - of(e.a)) - e.measured_m;
            e.weight * r * r
        })
        .sum()
}

proptest! {
    // The production solver and the coordinate-descent reference agree
    // on every position (same anchor, rejection off so the edge sets
    // match), and neither beats the other's cost.
    #[test]
    fn least_squares_matches_coordinate_descent(
        seed in 0u64..3000,
        n_nodes in 3usize..7,
        n_chords in 1usize..6,
        noise in 0.0f64..3.0,
    ) {
        let s = generate(&SynthConfig {
            seed,
            n_nodes,
            n_chords,
            noise_sigma_m: noise,
            ..SynthConfig::default()
        });
        let sol = Fuser::new(FuseConfig {
            reject_outliers: false,
            ..FuseConfig::default()
        })
        .solve(&s.graph)
        .unwrap();
        let reference = coordinate_descent(&s.graph, sol.anchor, 200_000);
        for &(id, x_ref) in &reference {
            let x = sol.position_of(id).unwrap();
            prop_assert!(
                (x - x_ref).abs() < 1e-4,
                "node {id}: LS {x} vs reference {x_ref} (seed {seed})"
            );
        }
        let (c_ls, c_ref) = (cost_1d(&s.graph, &sol.positions), cost_1d(&s.graph, &reference));
        prop_assert!(c_ls <= c_ref + 1e-6, "LS cost {c_ls} vs reference {c_ref}");
    }
}

/// Hand-checkable fixed case: two measurements of one pair fuse to the
/// weighted mean — the smallest possible differential check, computable
/// on paper.
#[test]
fn two_parallel_edges_fuse_to_the_weighted_mean() {
    let mut g = FixGraph::new();
    g.insert_measurement(0, 1, 30.0, 3.0, FixQuality::High, 3.0);
    g.insert_measurement(0, 1, 40.0, 1.0, FixQuality::Medium, 6.0);
    let sol = Fuser::new(FuseConfig {
        reject_outliers: false,
        ..FuseConfig::default()
    })
    .solve(&g)
    .unwrap();
    // (3·30 + 1·40) / 4 = 32.5.
    assert!((sol.displacement(0, 1).unwrap() - 32.5).abs() < 1e-9);
}
