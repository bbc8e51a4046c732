//! Whole-graph transformations: slow-down and unfolding.
//!
//! The paper's Table 11 runs the elliptic and lattice filters "with a
//! slow down factor of 3" — the classical multirate transformation that
//! multiplies every delay count by a constant, creating extra
//! loop-carried slack for pipelining.  Unfolding is the dual
//! transformation (schedule `f` consecutive iterations at once) and is
//! provided as the natural extension.

use crate::csdfg::Csdfg;
use ccs_graph::NodeId;
use std::collections::BTreeMap;

/// Returns a copy of `g` with every delay multiplied by `factor`
/// (slow-down transformation).  `factor == 0` is rejected because it
/// would produce zero-delay cycles from any cyclic graph.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn slowdown(g: &Csdfg, factor: u32) -> Csdfg {
    assert!(factor >= 1, "slow-down factor must be >= 1");
    let mut out = Csdfg::new();
    let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for v in g.tasks() {
        let nv = out
            .add_task(g.name(v).to_owned(), g.time(v))
            .expect("names unique in source graph");
        map.insert(v, nv);
    }
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        out.add_dep(map[&u], map[&v], g.delay(e) * factor, g.volume(e))
            .expect("volumes positive in source graph");
    }
    out
}

/// Unfolds `g` by factor `f`: the result contains `f` copies
/// `name#0 .. name#f-1` of every task, representing `f` consecutive
/// iterations of the original loop scheduled together.
///
/// For an edge `u -> v` with delay `d`, copy `i` of `u` feeds copy
/// `(i + d) mod f` of `v` with delay `floor((i + d) / f)` — the standard
/// unfolding construction, which preserves the total delay per original
/// edge and the iteration bound.
///
/// # Panics
///
/// Panics if `f == 0`.
pub fn unfold(g: &Csdfg, f: u32) -> Csdfg {
    assert!(f >= 1, "unfolding factor must be >= 1");
    let mut out = Csdfg::new();
    let mut map: BTreeMap<(NodeId, u32), NodeId> = BTreeMap::new();
    for v in g.tasks() {
        for i in 0..f {
            let nv = out
                .add_task(format!("{}#{}", g.name(v), i), g.time(v))
                .expect("generated names are unique");
            map.insert((v, i), nv);
        }
    }
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        let d = g.delay(e);
        for i in 0..f {
            let j = (i + d) % f;
            let dj = (i + d) / f;
            out.add_dep(map[&(u, i)], map[&(v, j)], dj, g.volume(e))
                .expect("volumes positive in source graph");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop2() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 3).unwrap();
        g
    }

    #[test]
    fn slowdown_multiplies_delays_only() {
        let g = loop2();
        let s = slowdown(&g, 3);
        assert_eq!(s.task_count(), 2);
        assert_eq!(s.dep_count(), 2);
        assert_eq!(s.total_delay(), 6);
        assert_eq!(s.total_time(), g.total_time());
        // volumes and times are untouched
        let b = s.task_by_name("B").unwrap();
        assert_eq!(s.time(b), 2);
        let e = s.out_deps(b).next().unwrap();
        assert_eq!(s.volume(e), 3);
        assert_eq!(s.delay(e), 6);
    }

    #[test]
    fn slowdown_by_one_is_identity_shape() {
        let g = loop2();
        let s = slowdown(&g, 1);
        assert_eq!(s.total_delay(), g.total_delay());
        assert!(s.check_legal().is_ok());
    }

    #[test]
    #[should_panic(expected = "slow-down factor must be >= 1")]
    fn slowdown_zero_panics() {
        slowdown(&loop2(), 0);
    }

    #[test]
    fn unfold_replicates_nodes() {
        let g = loop2();
        let u = unfold(&g, 3);
        assert_eq!(u.task_count(), 6);
        assert_eq!(u.dep_count(), 6);
        assert!(u.task_by_name("A#0").is_some());
        assert!(u.task_by_name("B#2").is_some());
    }

    #[test]
    fn unfold_preserves_total_delay_per_edge() {
        let g = loop2();
        for f in 1..=5 {
            let u = unfold(&g, f);
            // Sum over copies of floor((i+d)/f) for i in 0..f equals d.
            assert_eq!(u.total_delay(), g.total_delay(), "factor {f}");
            assert!(u.check_legal().is_ok(), "factor {f}");
        }
    }

    #[test]
    fn unfold_wires_delay_zero_edges_within_same_copy() {
        let g = loop2();
        let u = unfold(&g, 2);
        // A -> B has d=0: A#i -> B#i with d=0.
        for i in 0..2 {
            let a = u.task_by_name(&format!("A#{i}")).unwrap();
            let b = u.task_by_name(&format!("B#{i}")).unwrap();
            let e = u.graph().find_edge(a, b).unwrap();
            assert_eq!(u.delay(e), 0);
        }
    }

    #[test]
    fn unfold_spreads_loop_carried_delays() {
        let g = loop2();
        let u = unfold(&g, 2);
        // B -> A with d=2: B#0 -> A#0 d=1, B#1 -> A#1 d=1.
        for i in 0..2 {
            let b = u.task_by_name(&format!("B#{i}")).unwrap();
            let a = u.task_by_name(&format!("A#{i}")).unwrap();
            let e = u.graph().find_edge(b, a).unwrap();
            assert_eq!(u.delay(e), 1);
        }
    }

    #[test]
    fn unfold_delay_one_crosses_copies() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        g.add_dep(a, a, 1, 1).unwrap(); // self loop with one delay
        let u = unfold(&g, 3);
        // A#0 -> A#1 d=0, A#1 -> A#2 d=0, A#2 -> A#0 d=1.
        let n: Vec<_> = (0..3)
            .map(|i| u.task_by_name(&format!("A#{i}")).unwrap())
            .collect();
        assert_eq!(u.delay(u.graph().find_edge(n[0], n[1]).unwrap()), 0);
        assert_eq!(u.delay(u.graph().find_edge(n[1], n[2]).unwrap()), 0);
        assert_eq!(u.delay(u.graph().find_edge(n[2], n[0]).unwrap()), 1);
        assert!(u.check_legal().is_ok());
    }
}
