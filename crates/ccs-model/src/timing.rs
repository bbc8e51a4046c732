//! Dependency-only timing analysis of the zero-delay DAG view:
//! ASAP / ALAP control steps, mobility, critical path.
//!
//! These quantities ignore communication and resources entirely; they
//! feed the *mobility* term `MB(v)` of the paper's priority function
//! (Definition 3.4) and provide lower bounds for sanity checks.

use crate::csdfg::Csdfg;
use ccs_graph::algo::topo::CycleError;
use ccs_graph::NodeId;

/// Result of [`analyze`]: all values are 1-based control steps, the
/// convention used throughout the paper's schedule tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timing {
    asap: Vec<u32>,
    alap: Vec<u32>,
    /// Length of the (resource-unconstrained) critical path in control
    /// steps: the smallest schedule length any schedule of the
    /// zero-delay DAG can achieve.
    pub critical_path: u32,
}

impl Timing {
    /// Earliest control step at which `v` can begin.
    pub fn asap(&self, v: NodeId) -> u32 {
        self.asap[v.index()]
    }

    /// Latest control step at which `v` can begin without stretching the
    /// critical path.
    pub fn alap(&self, v: NodeId) -> u32 {
        self.alap[v.index()]
    }

    /// Mobility `MB(v) = ALAP(v) - ASAP(v)` (Definition 3.4, measured
    /// from the node's earliest position).
    pub fn mobility(&self, v: NodeId) -> u32 {
        self.alap[v.index()] - self.asap[v.index()]
    }

    /// Mobility relative to an arbitrary "current" control step, as used
    /// while list scheduling: `max(0, ALAP(v) - cs)`.
    pub fn mobility_at(&self, v: NodeId, cs: u32) -> u32 {
        self.alap[v.index()].saturating_sub(cs)
    }
}

/// Computes [`Timing`] for the zero-delay DAG view of `g`, walking the
/// graph's kept zero-delay order ([`Csdfg::zero_delay_topo`]).
///
/// Fails with [`CycleError`] if `g` has a zero-delay cycle (illegal
/// CSDFG).
pub fn analyze(g: &Csdfg) -> Result<Timing, CycleError> {
    let order = g.zero_delay_topo()?;
    let graph = g.graph();
    let bound = graph.node_count();
    // ASAP: longest path counting execution times, start step 1.
    // asap(v) = max(1, max over zero-delay edges u->v of asap(u)+t(u)).
    let mut asap_raw = vec![1i64; bound];
    for &u in order {
        let reach = asap_raw[u.index()] + i64::from(g.time(u));
        for e in g.intra_iter_out_deps(u) {
            let w = graph.edge_target(e);
            asap_raw[w.index()] = asap_raw[w.index()].max(reach);
        }
    }
    let mut critical: i64 = 0;
    for v in g.tasks() {
        critical = critical.max(asap_raw[v.index()] + i64::from(g.time(v)) - 1);
    }
    // Tail length T(v) = t(v) + max over zero-delay out-edges T(w),
    // in reverse topological order.
    let mut tail = vec![0i64; bound];
    for &v in order.iter().rev() {
        let mut best = 0i64;
        for e in g.intra_iter_out_deps(v) {
            let w = graph.edge_target(e);
            best = best.max(tail[w.index()]);
        }
        tail[v.index()] = best + i64::from(g.time(v));
    }
    let asap = asap_raw
        .iter()
        .map(|&x| u32::try_from(x.max(1)).unwrap())
        .collect();
    let alap = g
        .tasks()
        .map(|v| (v.index(), critical - tail[v.index()] + 1))
        .fold(vec![0u32; bound], |mut acc, (i, x)| {
            acc[i] = u32::try_from(x.max(1)).unwrap();
            acc
        });
    Ok(Timing {
        asap,
        alap,
        critical_path: u32::try_from(critical.max(0)).unwrap(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1(b)/6(a) example.
    fn fig1() -> (Csdfg, Vec<NodeId>) {
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
        (g, ids)
    }

    #[test]
    fn fig1_asap_matches_hand_calculation() {
        let (g, n) = fig1();
        let t = analyze(&g).unwrap();
        // A starts at 1 (t=1); B,C,E can start at 2; D after B (t=2) at 4;
        // E also waits for B: max(2, 2+2)=4; F after D(4,t=1)->5 and E(4,t=2)->6.
        assert_eq!(t.asap(n[0]), 1); // A
        assert_eq!(t.asap(n[1]), 2); // B
        assert_eq!(t.asap(n[2]), 2); // C
        assert_eq!(t.asap(n[3]), 4); // D
        assert_eq!(t.asap(n[4]), 4); // E
        assert_eq!(t.asap(n[5]), 6); // F
                                     // Critical path: A(1) B(2-3) E(4-5) F(6) = 6 control steps.
        assert_eq!(t.critical_path, 6);
    }

    #[test]
    fn fig1_alap_and_mobility() {
        let (g, n) = fig1();
        let t = analyze(&g).unwrap();
        // F last: ALAP(F) = 6. E must end by 5 => ALAP(E)=4.
        assert_eq!(t.alap(n[5]), 6);
        assert_eq!(t.alap(n[4]), 4);
        // D -> F: D can start as late as 5.
        assert_eq!(t.alap(n[3]), 5);
        // B feeds D (needs start by 5 => B by 3) and E (start by 4 => B by 2).
        assert_eq!(t.alap(n[1]), 2);
        // C feeds E: C by 3.
        assert_eq!(t.alap(n[2]), 3);
        assert_eq!(t.alap(n[0]), 1);
        // Mobility: on the critical path it is zero.
        assert_eq!(t.mobility(n[0]), 0);
        assert_eq!(t.mobility(n[1]), 0);
        assert_eq!(t.mobility(n[2]), 1);
        assert_eq!(t.mobility(n[3]), 1);
        assert_eq!(t.mobility(n[4]), 0);
        assert_eq!(t.mobility(n[5]), 0);
    }

    #[test]
    fn mobility_at_clamps_to_zero() {
        let (g, n) = fig1();
        let t = analyze(&g).unwrap();
        assert_eq!(t.mobility_at(n[2], 1), 2);
        assert_eq!(t.mobility_at(n[2], 3), 0);
        assert_eq!(t.mobility_at(n[2], 9), 0);
    }

    #[test]
    fn asap_at_least_one_for_roots() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 3).unwrap();
        let t = analyze(&g).unwrap();
        assert_eq!(t.asap(a), 1);
        assert_eq!(t.alap(a), 1);
        assert_eq!(t.critical_path, 3);
    }

    #[test]
    fn delayed_edges_do_not_constrain_timing() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 1, 1).unwrap(); // loop-carried only
        let t = analyze(&g).unwrap();
        assert_eq!(t.asap(b), 1);
        assert_eq!(t.critical_path, 1);
    }

    #[test]
    fn zero_delay_cycle_fails() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        assert!(analyze(&g).is_err());
    }

    #[test]
    fn chain_critical_path_sums_times() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        let c = g.add_task("C", 4).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        let t = analyze(&g).unwrap();
        assert_eq!(t.critical_path, 9);
        assert_eq!(t.asap(b), 3);
        assert_eq!(t.asap(c), 6);
        for v in [a, b, c] {
            assert_eq!(t.mobility(v), 0);
        }
    }
}
