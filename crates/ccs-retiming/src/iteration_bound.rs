//! The iteration bound (maximum cycle ratio) of a CSDFG.
//!
//! For a cyclic data-flow graph the *iteration bound*
//! `B = max over cycles C of  T(C) / D(C)`
//! (total computation time over total delay count) lower-bounds the
//! achievable steady-state initiation interval of any schedule, no
//! matter how many processors are available and ignoring communication.
//! The experiment harness uses it to report how close cyclo-compaction
//! gets to the algorithmic optimum.
//!
//! The bound itself is a fact of the graph: `ccs-model` computes it
//! (Howard's policy iteration, exact in integer arithmetic) the first
//! time [`Csdfg::iteration_bound`] is read and keeps it until an edit,
//! so Pass A, the compaction floor and the certificate share one
//! computation.  This module adds the witness cycle.

use ccs_graph::algo::paths::feasible_potentials;
use ccs_model::Csdfg;
pub use ccs_model::Ratio;

/// Computes the iteration bound of `g`: [`Csdfg::iteration_bound`],
/// computed on the first read of `g` and kept.
///
/// Returns `None` for acyclic graphs (no cycle, no bound).
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (illegal CSDFG — the bound
/// would be infinite).
pub fn iteration_bound(g: &Csdfg) -> Option<Ratio> {
    g.iteration_bound()
}

/// The iteration bound together with a *witness*: one critical cycle
/// `C` (as a node sequence, `[a, b, c]` meaning `a -> b -> c -> a`)
/// attaining `T(C)/D(C) = B`.
///
/// Returns `None` for acyclic graphs.  Deterministic: the tight-edge
/// sub-graph is scanned in node/edge id order, so the same graph
/// always yields the same witness.
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (illegal CSDFG).
pub fn critical_cycle(g: &Csdfg) -> Option<(Ratio, Vec<ccs_graph::NodeId>)> {
    let r = iteration_bound(g)?;
    // Potentials for the exact bound exist (the bound is feasible);
    // tight edges (pot[v] == pot[u] + w) form a sub-graph whose every
    // cycle is zero-weight, i.e. attains exactly ratio r.
    let pot = feasible_potentials(g.graph(), |e| {
        let (u, _) = g.endpoints(e);
        r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u))
    })
    .ok()?;
    let graph = g.graph();
    let cycle = ccs_graph::algo::cycles::find_cycle_filtered(graph, |e| {
        let (u, v) = graph.edge_endpoints(e);
        let w = r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u));
        (pot[v.index()] - pot[u.index()] - w).abs() < 1e-6
    })?;
    Some((r, cycle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_loop_bound() {
        // A(1) -> B(2) -> A with 1 delay: bound = 3/1.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn two_delays_halve_the_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 2)));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // Cycle 1: A->B->A, T=3, D=3 => 1. Cycle 2: C->C self loop T=5 D=2 => 5/2.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        g.add_dep(c, c, 2, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(5, 2)));
    }

    #[test]
    fn overlapping_cycles_take_the_maximum() {
        let mut g = Csdfg::new();
        let n: Vec<_> = (0..5)
            .map(|i| g.add_task(format!("v{i}"), (i % 3 + 1) as u32).unwrap())
            .collect();
        g.add_dep(n[0], n[1], 0, 1).unwrap();
        g.add_dep(n[1], n[2], 0, 1).unwrap();
        g.add_dep(n[2], n[0], 2, 1).unwrap();
        g.add_dep(n[1], n[3], 0, 1).unwrap();
        g.add_dep(n[3], n[0], 1, 1).unwrap();
        g.add_dep(n[3], n[4], 0, 1).unwrap();
        g.add_dep(n[4], n[3], 3, 1).unwrap();
        // Cycles: 0-1-2 (T=6,D=2 -> 3), 0-1-3 (T=4,D=1 -> 4), 3-4 (T=3,D=3 -> 1).
        assert_eq!(iteration_bound(&g), Some(Ratio::new(4, 1)));
    }

    #[test]
    fn parallel_edges_bind_through_the_smaller_delay() {
        // B -> A twice: d = 3 (the initial policy's pick) and d = 1.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(5, 1)));
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        assert_eq!(iteration_bound(&g), None);
    }

    #[test]
    fn paper_fig1_bound() {
        // Cycles: A->B->D->A (T=4, D=3), E->F->E (T=3, D=1),
        // A->E->F? F->E only; A->C->E->F->E no (E->F->E is the only F cycle
        // through delay) — also A->E..? no edge back to A except D->A.
        // Other cycle: A->B->E? E has no edge to D or A. So max(4/3, 3/1) = 3.
        let mut g = Csdfg::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| {
                let t = if *n == "B" || *n == "E" { 2 } else { 1 };
                g.add_task(*n, t).unwrap()
            })
            .collect();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        g.add_dep(a, e, 0, 1).unwrap();
        g.add_dep(b, d, 0, 1).unwrap();
        g.add_dep(b, e, 0, 2).unwrap();
        g.add_dep(c, e, 0, 1).unwrap();
        g.add_dep(d, a, 3, 3).unwrap();
        g.add_dep(d, f, 0, 2).unwrap();
        g.add_dep(e, f, 0, 1).unwrap();
        g.add_dep(f, e, 1, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn bound_is_invariant_under_rotation() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 2, 1).unwrap();
        let before = iteration_bound(&g).unwrap();
        let rotated = crate::retiming::rotate(&g, &[a]).unwrap();
        let after = iteration_bound(&rotated).unwrap();
        assert_eq!(before, after);
        assert_eq!(before, Ratio::new(6, 2));
    }

    #[test]
    fn slowdown_divides_the_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 3).unwrap();
        g.add_dep(a, a, 1, 1).unwrap();
        let b1 = iteration_bound(&g).unwrap();
        assert_eq!(b1, Ratio::new(3, 1));
        let g3 = ccs_model::transform::slowdown(&g, 3);
        let b3 = iteration_bound(&g3).unwrap();
        assert_eq!(b3, Ratio::new(1, 1));
    }

    #[test]
    fn critical_cycle_witnesses_the_bound() {
        // Cycle 1: A->B->A, T=3, D=3 => 1. Cycle 2: C self loop, 5/2.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        g.add_dep(c, c, 2, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        let (r, cycle) = critical_cycle(&g).unwrap();
        assert_eq!(r, Ratio::new(5, 2));
        assert_eq!(cycle, vec![c]);
        // The witness attains the bound exactly.
        let t: u64 = cycle.iter().map(|&v| u64::from(g.time(v))).sum();
        assert_eq!(Ratio::new(t, 2), r);
    }

    #[test]
    fn critical_cycle_none_for_acyclic() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        assert!(critical_cycle(&g).is_none());
    }

    #[test]
    #[should_panic(expected = "zero-delay cycle")]
    fn zero_delay_cycle_panics() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        let _ = iteration_bound(&g);
    }
}
