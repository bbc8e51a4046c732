//! Weighted path computations: DAG longest paths and feasible
//! potentials of a difference-constraint system.

use crate::algo::topo::{topo_sort_filtered, CycleError};
use crate::{DiGraph, EdgeId, NodeId};

/// Error returned when a relaxation detects a negative cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NegativeCycle;

impl std::fmt::Display for NegativeCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a reachable negative cycle")
    }
}

impl std::error::Error for NegativeCycle {}

/// Longest-path distances on a DAG (or a DAG view selected by
/// `edge_keep`), measured as the *sum of edge weights* supplied by
/// `edge_len` along the best path ending at each node.
///
/// Every node starts at `source_value(node)`; nodes unreachable from a
/// higher-valued source keep their own start value.  This is the shape
/// needed by ASAP/ALAP computations where node execution times enter
/// through `edge_len`/`source_value`.
///
/// Returns `Err` if the (filtered) graph is cyclic.
pub fn dag_longest_paths<N, E>(
    g: &DiGraph<N, E>,
    mut edge_keep: impl FnMut(EdgeId) -> bool,
    mut edge_len: impl FnMut(EdgeId) -> i64,
    mut source_value: impl FnMut(NodeId) -> i64,
) -> Result<Vec<i64>, CycleError> {
    let order = topo_sort_filtered(g, &mut edge_keep)?;
    let mut dist = vec![i64::MIN; g.node_count()];
    for n in g.node_ids() {
        dist[n.index()] = source_value(n);
    }
    for &u in &order {
        let du = dist[u.index()];
        for e in g.out_edges(u) {
            if !edge_keep(e) {
                continue;
            }
            let v = g.edge_target(e);
            let cand = du + edge_len(e);
            if cand > dist[v.index()] {
                dist[v.index()] = cand;
            }
        }
    }
    Ok(dist)
}

/// Bellman-Ford from a virtual super-source connected to every node
/// with zero-length edges: computes a feasible potential for the
/// constraint system `pot[v] <= pot[u] + len(u->v)`.
///
/// Returns [`NegativeCycle`] on a negative cycle.  This is exactly the
/// system solved when testing whether a clock period is achievable by
/// retiming.
pub fn feasible_potentials<N, E>(
    g: &DiGraph<N, E>,
    mut edge_len: impl FnMut(EdgeId) -> f64,
) -> Result<Vec<f64>, NegativeCycle> {
    let mut dist = vec![0.0f64; g.node_count()];
    let n = g.node_count();
    if n == 0 {
        return Ok(dist);
    }
    for round in 0..n {
        let mut changed = false;
        for (e, u, v, _) in g.edges() {
            let cand = dist[u.index()] + edge_len(e);
            if cand < dist[v.index()] - 1e-12 {
                dist[v.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return Ok(dist);
        }
        if round == n - 1 {
            return Err(NegativeCycle);
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_path_on_diamond() {
        let mut g: DiGraph<(), i64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 5);
        g.add_edge(b, d, 1);
        g.add_edge(c, d, 1);
        let dist = dag_longest_paths(&g, |_| true, |e| g[e], |_| 0).unwrap();
        assert_eq!(dist[d.index()], 6);
        assert_eq!(dist[b.index()], 1);
        assert_eq!(dist[c.index()], 5);
    }

    #[test]
    fn longest_path_rejects_cycles() {
        let mut g: DiGraph<(), i64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 1);
        assert!(dag_longest_paths(&g, |_| true, |e| g[e], |_| 0).is_err());
    }

    #[test]
    fn longest_path_respects_filter_and_sources() {
        let mut g: DiGraph<(), i64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let back = g.add_edge(b, a, 100);
        g.add_edge(a, b, 2);
        let dist = dag_longest_paths(&g, |e| e != back, |e| g[e], |n| if n == a { 10 } else { 0 })
            .unwrap();
        assert_eq!(dist[a.index()], 10);
        assert_eq!(dist[b.index()], 12);
    }

    #[test]
    fn potentials_satisfy_all_constraints() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], 3.0);
        g.add_edge(n[1], n[2], -1.0);
        g.add_edge(n[2], n[3], 2.0);
        g.add_edge(n[3], n[1], 0.5);
        let pot = feasible_potentials(&g, |e| g[e]).unwrap();
        for (e, u, v, _) in g.edges() {
            assert!(
                pot[v.index()] <= pot[u.index()] + g[e] + 1e-9,
                "constraint violated on {e:?}"
            );
        }
    }

    #[test]
    fn potentials_reject_negative_cycle() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0.4);
        g.add_edge(b, a, -0.5);
        assert!(feasible_potentials(&g, |e| g[e]).is_err());
    }
}
