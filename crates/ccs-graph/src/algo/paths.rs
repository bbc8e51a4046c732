//! Weighted path computations: feasible potentials of a
//! difference-constraint system.

use crate::{DiGraph, EdgeId};

/// Error returned when a relaxation detects a negative cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NegativeCycle;

impl std::fmt::Display for NegativeCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a reachable negative cycle")
    }
}

impl std::error::Error for NegativeCycle {}

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
