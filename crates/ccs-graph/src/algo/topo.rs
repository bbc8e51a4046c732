//! Topological ordering (Kahn's algorithm) with optional edge filtering.

use crate::{DiGraph, EdgeId, NodeId};

/// Error returned when a topological sort hits a directed cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// Some node that participates in (or is downstream of) a cycle.
    pub witness: NodeId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a directed cycle (witness node {})",
            self.witness
        )
    }
}

impl std::error::Error for CycleError {}

/// Topological order of the subgraph induced by edges for which
/// `edge_keep` returns `true`, or [`CycleError`] if that subgraph is
/// cyclic.  Ties are broken by node id, making the order deterministic.
///
/// This is the workhorse behind the "zero-delay DAG view" of a cyclic
/// data-flow graph: keep only edges with `d(e) == 0` and sort.
///
/// Kahn's algorithm over the graph's own adjacency, with the output
/// as its FIFO queue, so the sort allocates two vectors whatever the
/// graph's size; `edge_keep` is asked twice per edge.
pub fn topo_sort_filtered<N, E>(
    g: &DiGraph<N, E>,
    mut edge_keep: impl FnMut(EdgeId) -> bool,
) -> Result<Vec<NodeId>, CycleError> {
    let mut in_deg = vec![0usize; g.node_count()];
    for (e, _, dst, _) in g.edges() {
        if edge_keep(e) {
            in_deg[dst.index()] += 1;
        }
    }
    // Deterministic: seed the queue in id order.  `order[head..]` is
    // the queue, so the order is the sequence the queue pops.
    let mut order = Vec::with_capacity(g.node_count());
    order.extend(g.node_ids().filter(|n| in_deg[n.index()] == 0));
    let mut head = 0;
    while let Some(&n) = order.get(head) {
        head += 1;
        for e in g.out_edges(n) {
            if edge_keep(e) {
                let s = g.edge_target(e);
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    order.push(s);
                }
            }
        }
    }
    if order.len() == g.node_count() {
        Ok(order)
    } else {
        let witness = g
            .node_ids()
            .find(|n| in_deg[n.index()] > 0)
            .expect("cycle implies a node with positive residual in-degree");
        Err(CycleError { witness })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_a_dag() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, ());
        g.add_edge(b, c, ());
        let order = topo_sort_filtered(&g, |_| true).unwrap();
        assert_eq!(order.len(), 3);
        let pos = |x| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn detects_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(topo_sort_filtered(&g, |_| true).is_err());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        let err = topo_sort_filtered(&g, |_| true).unwrap_err();
        assert_eq!(err.witness, a);
    }

    #[test]
    fn filtering_breaks_cycles() {
        // a -> b (keep), b -> a (drop): acyclic when filtered.
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 1);
        let order = topo_sort_filtered(&g, |e| g[e] == 0).unwrap();
        assert_eq!(order, vec![a, b]);
        assert!(topo_sort_filtered(&g, |_| true).is_err());
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        // no edges: order must be id order
        assert_eq!(topo_sort_filtered(&g, |_| true).unwrap(), n);
    }

    #[test]
    fn cycle_error_displays() {
        let err = CycleError {
            witness: NodeId::from_index(3),
        };
        assert!(err.to_string().contains("n3"));
    }
}
