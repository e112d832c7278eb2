//! The fusion solver: weighted least-squares over a [`FixGraph`] with
//! residual-based outlier rejection.
//!
//! # Model
//!
//! Unknowns are per-vehicle scalar positions `x_i` along the common road,
//! relative to a *gauge anchor* pinned at `x = 0` (pairwise distances are
//! translation-invariant, so one node must be fixed — the paper's fixes
//! carry no absolute coordinate at all). Each edge `e = (a, b, d_e, w_e)`
//! contributes a residual `r_e = (x_b − x_a) − d_e` and the solver
//! minimises `Σ w_e · r_e²`. The residuals are linear in the positions, so
//! the optimum is one solve of the weighted normal equations
//! `JᵀWJ x = JᵀW d` with the anchor column removed. Every active edge set —
//! the whole graph, each leave-one-out refit — costs exactly one dense
//! solve.
//!
//! # Outlier rejection
//!
//! Cycle closure makes corrupted fixes visible: an edge whose measured
//! length disagrees with every path around it leaves a misclosure the
//! least-squares fit must absorb. The subtlety is that LS *spreads* that
//! misclosure around the cycle, so the corrupted edge's own post-fit
//! residual is diluted (and any scale estimated from the post-fit
//! residuals is contaminated). Rejection is therefore leave-one-out:
//! after each solve the most *suspicious* edge — largest post-fit
//! residual scaled by its prior error bound, so between two equally
//! discrepant edges the one that promised less precision is suspected —
//! is left out and the remaining edges refitted. The candidate's
//! disagreement with that refit (its leave-one-out residual) is
//! undiluted, and the gate `max(MIN_GATE_M, GATE_K · robust_sigma)` uses
//! the MAD scale of the *refit* residuals, which the candidate no longer
//! pollutes. A failing edge is demoted out of the active set, recorded as
//! a [`RejectedEdge`], counted on `rups_fuse_edges_rejected`, reported to
//! an attached [`FlightRecorder`], and its refit becomes the solution of
//! the edges that remain. Rejection is greedy, one edge at a time, and
//! refuses to strip more than `MAX_REJECT_FRACTION` of the graph — a burst
//! that corrupts everything should degrade loudly, not silently fit
//! garbage.

use crate::graph::{FixEdge, FixGraph};
use crate::linalg::solve_dense;
use rups_core::quality::FixQuality;
use rups_obs::{Counter, FlightRecorder, Gauge, Histogram, Registry, SpanRecorder, TraceContext};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Robust-sigma multiple a leave-one-out residual must exceed to be
/// rejected.
const GATE_K: f64 = 4.0;

/// Absolute residual floor of the gate, metres — residuals inside the
/// measurement noise floor are never outliers, however tight the MAD scale
/// of an otherwise-clean graph gets.
const MIN_GATE_M: f64 = 6.0;

/// Greatest fraction of edges the greedy rejection may demote.
const MAX_REJECT_FRACTION: f64 = 0.34;

/// Configuration of a [`Fuser`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuseConfig {
    /// Gauge anchor (pinned at `x = 0`). `None` picks the lowest vehicle
    /// id in the graph.
    pub anchor: Option<u64>,
    /// Residual-based outlier rejection; off keeps every edge active, so
    /// the solution is the bare weighted least-squares fit.
    pub reject_outliers: bool,
}

impl Default for FuseConfig {
    fn default() -> Self {
        Self {
            anchor: None,
            reject_outliers: true,
        }
    }
}

/// An edge demoted by the residual gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RejectedEdge {
    /// Lower vehicle id of the pair.
    pub a: u64,
    /// Higher vehicle id of the pair.
    pub b: u64,
    /// The (inconsistent) measured displacement, metres.
    pub measured_m: f64,
    /// Leave-one-out residual at the time of rejection: the edge's
    /// disagreement with the solution fitted without it, metres.
    pub residual_m: f64,
    /// The weight the edge carried while active.
    pub weight: f64,
    /// Grade of the underlying fix.
    pub grade: FixQuality,
    /// The residual gate the edge failed, metres.
    pub gate_m: f64,
}

/// A globally consistent set of relative positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedSolution {
    /// The gauge anchor (held at position 0).
    pub anchor: u64,
    /// `(vehicle_id, position_m)` pairs, ascending by id, anchor-relative.
    pub positions: Vec<(u64, f64)>,
    /// Weighted RMS residual over the accepted edges, metres.
    pub residual_rms_m: f64,
    /// Edges still active in the final solve.
    pub accepted_edges: usize,
    /// Edges demoted by the residual gate, in rejection order.
    pub rejected: Vec<RejectedEdge>,
    /// Vehicles present in the graph but not connected to the anchor —
    /// no fused position exists for them.
    pub unreachable: Vec<u64>,
}

impl FusedSolution {
    /// The fused anchor-relative position of a vehicle, metres.
    pub fn position_of(&self, id: u64) -> Option<f64> {
        self.positions
            .binary_search_by_key(&id, |&(n, _)| n)
            .ok()
            .map(|i| self.positions[i].1)
    }

    /// The fused signed displacement `x_to − x_from`, metres — positive
    /// when `to` is ahead of `from`, matching
    /// [`DistanceFix::distance_m`](rups_core::pipeline::DistanceFix).
    pub fn displacement(&self, from: u64, to: u64) -> Option<f64> {
        Some(self.position_of(to)? - self.position_of(from)?)
    }
}

/// Why a graph could not be fused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseError {
    /// The graph holds no measurements.
    EmptyGraph,
    /// The requested anchor is not a node of the graph.
    UnknownAnchor(u64),
    /// The normal equations were singular (should not happen for a
    /// connected active set; surfaced rather than unwrapped).
    Singular,
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::EmptyGraph => write!(f, "fix graph holds no measurements"),
            FuseError::UnknownAnchor(id) => write!(f, "anchor vehicle {id} is not in the graph"),
            FuseError::Singular => write!(f, "normal equations are singular"),
        }
    }
}

impl std::error::Error for FuseError {}

/// Pre-registered `rups_fuse_*` metric handles.
#[derive(Debug, Clone)]
struct FuseMetrics {
    solves: Counter,
    edges_rejected: Counter,
    solve_ns: Histogram,
    residual_rms: Gauge,
}

impl FuseMetrics {
    fn register(reg: &Registry) -> Self {
        Self {
            solves: reg.counter("rups_fuse_solves"),
            edges_rejected: reg.counter("rups_fuse_edges_rejected"),
            solve_ns: reg.histogram("rups_fuse_solve_ns"),
            residual_rms: reg.gauge("rups_fuse_residual_rms_m"),
        }
    }
}

/// The fusion solver with its observability wiring.
#[derive(Debug)]
pub struct Fuser {
    cfg: FuseConfig,
    registry: Arc<Registry>,
    metrics: FuseMetrics,
    flight: Option<Arc<FlightRecorder>>,
    spans: Option<Arc<SpanRecorder>>,
}

impl Fuser {
    /// A fuser with its own private registry.
    pub fn new(cfg: FuseConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = FuseMetrics::register(&registry);
        Self {
            cfg,
            registry,
            metrics,
            flight: None,
            spans: None,
        }
    }

    /// Rebinds the fuser's metrics (`rups_fuse_*`: solve counter,
    /// solve-time histogram, residual gauge, edges-rejected counter) onto
    /// a shared registry.
    pub fn with_observability(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = FuseMetrics::register(&registry);
        self.registry = registry;
        self
    }

    /// Attaches a flight recorder: every [`RejectedEdge`] is recorded into
    /// its per-fix ring as a structured report (tagged `"fuse_reject"`).
    pub fn with_flight_recorder(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Records `fuse.solve` spans into `spans` from this call on, so the
    /// fusion step shows up in a merged fleet trace.
    pub fn with_spans(mut self, spans: Arc<SpanRecorder>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The metrics registry this fuser records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &FuseConfig {
        &self.cfg
    }

    /// Fuses the graph into a consistent set of relative positions.
    pub fn solve(&self, graph: &FixGraph) -> Result<FusedSolution, FuseError> {
        self.solve_traced(graph, None)
    }

    /// [`solve`](Self::solve) joining an existing causal trace: when a
    /// contributing fix descends from a traced beacon, pass that beacon's
    /// [`TraceContext`] so the recorded `fuse.solve` span carries its
    /// `trace`/`clock` args (plus the graph shape) in the merged fleet
    /// trace.
    pub fn solve_traced(
        &self,
        graph: &FixGraph,
        trace: Option<TraceContext>,
    ) -> Result<FusedSolution, FuseError> {
        let mut _span = self.spans.as_ref().map(|s| s.span("fuse.solve"));
        if let Some(g) = _span.as_mut() {
            let base = trace.map_or_else(rups_obs::SpanArgs::new, |t| t.args());
            g.set_args(
                base.with("nodes", graph.node_count() as i64)
                    .with("edges", graph.edge_count() as i64),
            );
        }
        let _timer = self.metrics.solve_ns.start_timer();
        if graph.is_empty() {
            return Err(FuseError::EmptyGraph);
        }
        let anchor = self.cfg.anchor.unwrap_or(graph.nodes()[0]);
        if graph.nodes().binary_search(&anchor).is_err() {
            return Err(FuseError::UnknownAnchor(anchor));
        }

        // Only the anchor's connected component is observable.
        let component = graph.component_of(anchor);
        let unreachable: Vec<u64> = graph
            .nodes()
            .iter()
            .copied()
            .filter(|n| component.binary_search(n).is_err())
            .collect();
        // Unknowns: every component node except the anchor, in ascending
        // id order (deterministic ⇒ byte-stable golden output).
        let vars: Vec<u64> = component.iter().copied().filter(|&n| n != anchor).collect();
        // An edge touching the component lies inside it.
        let mut active: Vec<FixEdge> = graph
            .edges()
            .iter()
            .filter(|e| component.binary_search(&e.a).is_ok())
            .copied()
            .collect();

        let mut positions = fit(anchor, &vars, &active)?;
        let mut rejected = Vec::new();
        let reject_budget = (MAX_REJECT_FRACTION * active.len() as f64).floor() as usize;
        let residual_rms = loop {
            let residuals = edge_residuals(&active, &positions);
            if !self.cfg.reject_outliers || rejected.len() >= reject_budget {
                break weighted_rms(&active, &residuals);
            }
            let Some((worst, report, refit)) =
                find_reject_candidate(anchor, &vars, &active, &residuals)?
            else {
                break weighted_rms(&active, &residuals);
            };
            self.metrics.edges_rejected.inc();
            if let Some(flight) = &self.flight {
                flight.record_fix(&FuseRejectReport::from(&report));
            }
            rejected.push(report);
            active.remove(worst);
            // The candidate's refit already solved the remaining edges.
            positions = refit;
        };
        self.metrics.solves.inc();
        self.metrics.residual_rms.set(residual_rms);

        Ok(FusedSolution {
            anchor,
            positions: positions.into_iter().collect(),
            residual_rms_m: residual_rms,
            accepted_edges: active.len(),
            rejected,
            unreachable,
        })
    }
}

impl Default for Fuser {
    fn default() -> Self {
        Self::new(FuseConfig::default())
    }
}

/// Anchor-relative positions of a component, keyed by vehicle id.
type Positions = BTreeMap<u64, f64>;

/// The weighted least-squares positions over `edges`, with `anchor` pinned
/// at 0 and the unknowns `vars` (ascending) on the columns: one solve of
/// the normal equations `JᵀWJ x = JᵀW d`.
fn fit(anchor: u64, vars: &[u64], edges: &[FixEdge]) -> Result<Positions, FuseError> {
    let m = vars.len();
    let mut h = vec![0.0; m * m];
    let mut rhs = vec![0.0; m];
    for e in edges {
        let ca = vars.binary_search(&e.a).ok();
        let cb = vars.binary_search(&e.b).ok();
        let wd = e.weight * e.measured_m;
        // J row: +1 on b, −1 on a (anchor column dropped).
        if let Some(cb) = cb {
            h[cb * m + cb] += e.weight;
            rhs[cb] += wd;
        }
        if let Some(ca) = ca {
            h[ca * m + ca] += e.weight;
            rhs[ca] -= wd;
        }
        if let (Some(ca), Some(cb)) = (ca, cb) {
            h[ca * m + cb] -= e.weight;
            h[cb * m + ca] -= e.weight;
        }
    }
    let x = solve_dense(&mut h, &mut rhs, m).ok_or(FuseError::Singular)?;
    // Added to the anchor's 0.0, as a step from the origin would be, so an
    // exact zero reads +0.0.
    let mut positions: Positions = vars.iter().zip(x).map(|(&n, x)| (n, 0.0 + x)).collect();
    positions.insert(anchor, 0.0);
    Ok(positions)
}

/// Each edge's residual `(x_b − x_a) − d`, metres.
fn edge_residuals(edges: &[FixEdge], positions: &Positions) -> Vec<f64> {
    edges
        .iter()
        .map(|e| (positions[&e.b] - positions[&e.a]) - e.measured_m)
        .collect()
}

/// Finds the next edge to demote, with the refit of the edges that remain,
/// or `None` when every candidate is consistent. Candidates are tried in
/// descending *suspicion* (post-fit residual scaled by the fix's prior
/// error bound, so between two equally discrepant edges the one that
/// promised less precision is suspected first); each is judged by its
/// leave-one-out residual — the refit without the candidate is free of its
/// pull, so the disagreement shows up undiluted and the MAD gate is
/// computed from residuals the candidate no longer pollutes.
fn find_reject_candidate(
    anchor: u64,
    vars: &[u64],
    active: &[FixEdge],
    residuals: &[f64],
) -> Result<Option<(usize, RejectedEdge, Positions)>, FuseError> {
    let mut order: Vec<usize> = (0..active.len()).collect();
    order.sort_by(|&i, &j| {
        suspicion(&active[j], residuals[j]).total_cmp(&suspicion(&active[i], residuals[i]))
    });
    for idx in order {
        // LS dilutes a misclosure around its cycle, but never below the
        // noise floor — a residual inside the floor is not evidence of
        // inconsistency.
        if residuals[idx].abs() <= MIN_GATE_M {
            continue;
        }
        let mut rest = active.to_vec();
        let e = rest.remove(idx);
        // Never disconnect the graph: a bridge has no cycle around it, so
        // its residual is pure noise, not evidence.
        let mut without = FixGraph::new();
        for o in &rest {
            without.insert_measurement(o.a, o.b, o.measured_m, o.weight, o.grade, o.error_bound_m);
        }
        if without.component_of(anchor).len() != vars.len() + 1 {
            continue;
        }
        let refit = fit(anchor, vars, &rest)?;
        let loo_residual = (refit[&e.b] - refit[&e.a]) - e.measured_m;
        let gate = residual_gate(&edge_residuals(&rest, &refit));
        if loo_residual.abs() <= gate {
            continue;
        }
        let report = RejectedEdge {
            a: e.a,
            b: e.b,
            measured_m: e.measured_m,
            residual_m: loo_residual,
            weight: e.weight,
            grade: e.grade,
            gate_m: gate,
        };
        return Ok(Some((idx, report, refit)));
    }
    Ok(None)
}

/// The residual magnitude above which an edge is inconsistent: a robust
/// (MAD-based) sigma scaled by [`GATE_K`], floored at [`MIN_GATE_M`].
fn residual_gate(residuals: &[f64]) -> f64 {
    let mut abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
    abs.sort_by(|x, y| x.total_cmp(y));
    let mad = abs.get(abs.len() / 2).copied().unwrap_or(0.0);
    // 1.4826 · MAD estimates sigma for Gaussian residuals.
    (GATE_K * 1.4826 * mad).max(MIN_GATE_M)
}

/// The flight-recorder form of a rejection (tagged so fusion rejects are
/// distinguishable from `rups-core` fix reports in a mixed ring).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FuseRejectReport {
    /// Constant `"fuse_reject"`.
    kind: String,
    a: u64,
    b: u64,
    measured_m: f64,
    residual_m: f64,
    weight: f64,
    gate_m: f64,
}

impl From<&RejectedEdge> for FuseRejectReport {
    fn from(e: &RejectedEdge) -> Self {
        Self {
            kind: "fuse_reject".into(),
            a: e.a,
            b: e.b,
            measured_m: e.measured_m,
            residual_m: e.residual_m,
            weight: e.weight,
            gate_m: e.gate_m,
        }
    }
}

/// Rejection-candidate score: the post-fit residual magnitude scaled by
/// the fix's prior error bound. Equal residuals are broken towards the
/// edge whose fix claimed less precision (degenerate bounds count as
/// maximally suspect).
fn suspicion(e: &FixEdge, residual: f64) -> f64 {
    let prior = if e.error_bound_m.is_finite() && e.error_bound_m > 0.0 {
        e.error_bound_m.min(1e3)
    } else {
        1e3
    };
    residual.abs() * prior
}

/// Weighted RMS of the residuals.
fn weighted_rms(edges: &[FixEdge], residuals: &[f64]) -> f64 {
    let wsum: f64 = edges.iter().map(|e| e.weight).sum();
    if wsum <= 0.0 {
        return 0.0;
    }
    let ss: f64 = edges
        .iter()
        .zip(residuals)
        .map(|(e, r)| e.weight * r * r)
        .sum();
    (ss / wsum).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rups_core::quality::FixQuality;

    fn chain_graph(truth: &[f64], noise: &[f64]) -> FixGraph {
        let mut g = FixGraph::new();
        for i in 0..truth.len() - 1 {
            let d = truth[i + 1] - truth[i] + noise.get(i).copied().unwrap_or(0.0);
            g.insert_measurement(i as u64, (i + 1) as u64, d, 1.0, FixQuality::High, 3.0);
        }
        g
    }

    #[test]
    fn clean_chain_is_recovered_exactly() {
        let truth = [0.0, 40.0, 95.0, 140.0];
        let g = chain_graph(&truth, &[]);
        let sol = Fuser::default().solve(&g).unwrap();
        assert!(sol.residual_rms_m < 1e-9);
        assert_eq!(sol.anchor, 0);
        for (i, &t) in truth.iter().enumerate() {
            assert!((sol.position_of(i as u64).unwrap() - t).abs() < 1e-9);
        }
        assert!((sol.displacement(0, 3).unwrap() - 140.0).abs() < 1e-9);
        assert!((sol.displacement(3, 1).unwrap() + 100.0).abs() < 1e-9);
        assert!(sol.rejected.is_empty());
        assert!(sol.unreachable.is_empty());
    }

    #[test]
    fn cycle_closure_averages_disagreement() {
        // Triangle: 0→1 = 10, 1→2 = 10, but 0→2 measured 23 (3 m of
        // cycle error, equal weights) → LS spreads the misclosure 1 m per
        // edge.
        let mut g = FixGraph::new();
        g.insert_measurement(0, 1, 10.0, 1.0, FixQuality::High, 3.0);
        g.insert_measurement(1, 2, 10.0, 1.0, FixQuality::High, 3.0);
        g.insert_measurement(0, 2, 23.0, 1.0, FixQuality::High, 3.0);
        let sol = Fuser::default().solve(&g).unwrap();
        assert!((sol.position_of(1).unwrap() - 11.0).abs() < 1e-9);
        assert!((sol.position_of(2).unwrap() - 22.0).abs() < 1e-9);
        assert!(sol.residual_rms_m > 0.5 && sol.residual_rms_m < 1.5);
    }

    #[test]
    fn corrupted_chord_is_rejected() {
        // A 4-node chain with chords; one chord is off by 60 m.
        let truth = [0.0, 40.0, 95.0, 140.0];
        let mut g = chain_graph(&truth, &[]);
        g.insert_measurement(0, 2, 95.0, 1.0, FixQuality::High, 3.0);
        g.insert_measurement(1, 3, 100.0 + 60.0, 1.0, FixQuality::Medium, 6.0);
        let sol = Fuser::default().solve(&g).unwrap();
        assert_eq!(sol.rejected.len(), 1);
        assert_eq!((sol.rejected[0].a, sol.rejected[0].b), (1, 3));
        for (i, &t) in truth.iter().enumerate() {
            assert!(
                (sol.position_of(i as u64).unwrap() - t).abs() < 1e-6,
                "node {i}: {} vs {t}",
                sol.position_of(i as u64).unwrap()
            );
        }
    }

    #[test]
    fn a_rejection_keeps_the_refit_of_the_remaining_edges() {
        // The solution after a rejection is the leave-one-out refit, bit
        // for bit the bare fit of the graph without the rejected edge.
        let truth = [0.0, 40.0, 95.0, 140.0];
        let mut g = chain_graph(&truth, &[0.3, -0.2, 0.1]);
        g.insert_measurement(0, 2, 95.4, 1.0, FixQuality::High, 3.0);
        g.insert_measurement(0, 3, 139.5, 1.0, FixQuality::High, 3.0);
        let without = g.clone();
        g.insert_measurement(1, 3, 160.0, 1.0, FixQuality::Medium, 6.0);
        let sol = Fuser::default().solve(&g).unwrap();
        assert_eq!(sol.rejected.len(), 1);
        assert_eq!((sol.rejected[0].a, sol.rejected[0].b), (1, 3));
        let bare = Fuser::new(FuseConfig {
            reject_outliers: false,
            ..FuseConfig::default()
        })
        .solve(&without)
        .unwrap();
        let bits = |s: &FusedSolution| -> Vec<(u64, u64)> {
            s.positions.iter().map(|&(n, x)| (n, x.to_bits())).collect()
        };
        assert_eq!(bits(&sol), bits(&bare));
        assert_eq!(sol.residual_rms_m.to_bits(), bare.residual_rms_m.to_bits());
        assert_eq!(sol.accepted_edges, without.edge_count());
    }

    #[test]
    fn bridges_are_never_rejected() {
        // Chain only: every edge is a bridge; even a wildly wrong edge
        // must survive (no cycle evidence against it).
        let truth = [0.0, 40.0, 95.0];
        let mut g = chain_graph(&truth, &[]);
        g.insert_measurement(2, 3, 500.0, 1.0, FixQuality::Low, 9.0);
        let sol = Fuser::default().solve(&g).unwrap();
        assert!(sol.rejected.is_empty());
        assert!((sol.position_of(3).unwrap() - 595.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_nodes_are_reported_unreachable() {
        let mut g = chain_graph(&[0.0, 40.0], &[]);
        g.insert_measurement(10, 11, 5.0, 1.0, FixQuality::High, 3.0);
        let sol = Fuser::default().solve(&g).unwrap();
        assert_eq!(sol.unreachable, vec![10, 11]);
        assert!(sol.position_of(10).is_none());
        assert!(sol.displacement(0, 10).is_none());
        // Anchoring inside the other component flips the roles.
        let sol = Fuser::new(FuseConfig {
            anchor: Some(10),
            ..FuseConfig::default()
        })
        .solve(&g)
        .unwrap();
        assert_eq!(sol.unreachable, vec![0, 1]);
        assert!((sol.displacement(10, 11).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            Fuser::default().solve(&FixGraph::new()),
            Err(FuseError::EmptyGraph)
        );
        let g = chain_graph(&[0.0, 10.0], &[]);
        assert_eq!(
            Fuser::new(FuseConfig {
                anchor: Some(99),
                ..FuseConfig::default()
            })
            .solve(&g),
            Err(FuseError::UnknownAnchor(99))
        );
    }

    #[test]
    fn metrics_land_in_the_registry() {
        let reg = Arc::new(Registry::new());
        let fuser = Fuser::default().with_observability(Arc::clone(&reg));
        let truth = [0.0, 40.0, 95.0, 140.0];
        let mut g = chain_graph(&truth, &[]);
        g.insert_measurement(1, 3, 160.0, 1.0, FixQuality::Medium, 6.0);
        fuser.solve(&g).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rups_fuse_solves"), Some(1));
        assert_eq!(snap.counter("rups_fuse_edges_rejected"), Some(1));
        assert!(snap.gauge("rups_fuse_residual_rms_m").unwrap() >= 0.0);
    }

    #[test]
    fn rejections_reach_the_flight_recorder() {
        use rups_obs::FlightConfig;
        let reg = Arc::new(Registry::new());
        let flight = Arc::new(FlightRecorder::new(
            FlightConfig::default(),
            Arc::clone(&reg),
        ));
        let fuser = Fuser::default()
            .with_observability(Arc::clone(&reg))
            .with_flight_recorder(Arc::clone(&flight));
        let mut g = chain_graph(&[0.0, 40.0, 95.0, 140.0], &[]);
        g.insert_measurement(0, 2, 95.0, 1.0, FixQuality::High, 3.0);
        g.insert_measurement(1, 3, 180.0, 1.0, FixQuality::Low, 9.0);
        fuser.solve(&g).unwrap();
        let dump = flight.dump();
        assert_eq!(dump.fixes.len(), 1);
        let serde::value::Value::Map(kv) = &dump.fixes[0] else {
            panic!("reject reports must be JSON objects");
        };
        let get = |key: &str| kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        assert_eq!(
            get("kind").and_then(|v| v.as_str().map(String::from)),
            Some("fuse_reject".into())
        );
        assert_eq!(get("a").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(get("b").and_then(|v| v.as_u64()), Some(3));
        assert!(get("residual_m").and_then(|v| v.as_f64()).unwrap().abs() > 6.0);
    }
}
