//! Strongly connected components (Tarjan, iterative).

use crate::{DiGraph, NodeId};

/// Computes the strongly connected components of `g`.
///
/// Components are returned in reverse topological order of the condensed
/// graph (a property of Tarjan's algorithm): if component `X` appears
/// before component `Y`, there is no edge from a node of `X` to a node of
/// `Y` unless `X == Y`.  Singleton nodes without self-loops form trivial
/// components.
pub fn tarjan_scc<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    const UNVISITED: usize = usize::MAX;

    /// A node being visited and the rest of its successors.  Each
    /// frame resumes its own iterator, so every edge is read once.
    struct Frame<I> {
        node: NodeId,
        succ: I,
    }

    let bound = g.node_count();
    let mut index = vec![UNVISITED; bound];
    let mut low = vec![0usize; bound];
    let mut on_stack = vec![false; bound];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<NodeId>> = Vec::new();
    let mut call = Vec::new();

    for root in g.node_ids() {
        if index[root.index()] != UNVISITED {
            continue;
        }
        call.push(Frame {
            node: root,
            succ: g.successors(root),
        });
        index[root.index()] = next_index;
        low[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.node;
            match frame.succ.next() {
                Some(w) => {
                    if index[w.index()] == UNVISITED {
                        index[w.index()] = next_index;
                        low[w.index()] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w.index()] = true;
                        call.push(Frame {
                            node: w,
                            succ: g.successors(w),
                        });
                    } else if on_stack[w.index()] {
                        low[v.index()] = low[v.index()].min(index[w.index()]);
                    }
                }
                None => {
                    call.pop();
                    if let Some(parent) = call.last() {
                        let p = parent.node;
                        low[p.index()] = low[p.index()].min(low[v.index()]);
                    }
                    if low[v.index()] == index[v.index()] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("SCC stack underflow");
                            on_stack[w.index()] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comps.push(comp);
                    }
                }
            }
        }
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The routine before each frame kept its iterator: the cursor
    /// re-walks the successor iterator from its start for every child,
    /// O(Σ deg²).  Kept as the oracle of the order-exact proptest.
    fn tarjan_scc_by_nth<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
        const UNVISITED: usize = usize::MAX;

        struct Frame {
            node: NodeId,
            succ_cursor: usize,
        }

        let bound = g.node_count();
        let mut index = vec![UNVISITED; bound];
        let mut low = vec![0usize; bound];
        let mut on_stack = vec![false; bound];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_index = 0usize;
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        let mut call: Vec<Frame> = Vec::new();

        for root in g.node_ids() {
            if index[root.index()] != UNVISITED {
                continue;
            }
            call.push(Frame {
                node: root,
                succ_cursor: 0,
            });
            index[root.index()] = next_index;
            low[root.index()] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root.index()] = true;

            while let Some(frame) = call.last_mut() {
                let v = frame.node;
                let succ = g.successors(v).nth(frame.succ_cursor);
                frame.succ_cursor += 1;
                match succ {
                    Some(w) => {
                        if index[w.index()] == UNVISITED {
                            index[w.index()] = next_index;
                            low[w.index()] = next_index;
                            next_index += 1;
                            stack.push(w);
                            on_stack[w.index()] = true;
                            call.push(Frame {
                                node: w,
                                succ_cursor: 0,
                            });
                        } else if on_stack[w.index()] {
                            low[v.index()] = low[v.index()].min(index[w.index()]);
                        }
                    }
                    None => {
                        call.pop();
                        if let Some(parent) = call.last() {
                            let p = parent.node;
                            low[p.index()] = low[p.index()].min(low[v.index()]);
                        }
                        if low[v.index()] == index[v.index()] {
                            let mut comp = Vec::new();
                            loop {
                                let w = stack.pop().expect("SCC stack underflow");
                                on_stack[w.index()] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            comps.push(comp);
                        }
                    }
                }
            }
        }
        comps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random multigraphs: endpoints drawn with replacement give
        /// self-loops and parallel edges.  Nodes fall into up to four
        /// blocks and an edge between blocks always points forward, so
        /// many graphs have several cyclic components (59 of the 256).
        #[test]
        fn resumed_iterators_match_the_nth_oracle(
            (n, blocks, edges) in (1usize..32, 1usize..5).prop_flat_map(|(n, blocks)| {
                (Just(n), Just(blocks), proptest::collection::vec((0..n, 0..n), 0..n * 6))
            }),
        ) {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            let block = |v: usize| v * blocks / n;
            for (a, b) in edges {
                let (a, b) = if block(a) > block(b) { (b, a) } else { (a, b) };
                g.add_edge(ids[a], ids[b], ());
            }
            prop_assert_eq!(tarjan_scc(&g), tarjan_scc_by_nth(&g));
        }
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // (a <-> b) -> (c <-> d), e isolated
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let e = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(b, c, ());
        g.add_edge(c, d, ());
        g.add_edge(d, c, ());
        let mut comps: Vec<Vec<usize>> = tarjan_scc(&g)
            .into_iter()
            .map(|mut c| {
                c.sort();
                c.into_iter().map(|n| n.index()).collect()
            })
            .collect();
        comps.sort();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![e.index()]]);
    }

    #[test]
    fn reverse_topological_order_of_condensation() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let comps = tarjan_scc(&g);
        // Sink component {b} must come first.
        assert_eq!(comps[0], vec![b]);
        assert_eq!(comps[1], vec![a]);
    }

    #[test]
    fn full_cycle_is_one_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        for i in 0..6 {
            g.add_edge(n[i], n[(i + 1) % 6], ());
        }
        assert_eq!(tarjan_scc(&g).len(), 1);
    }

    #[test]
    fn dag_gives_singletons() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        assert_eq!(tarjan_scc(&g).len(), 3);
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(tarjan_scc(&g).is_empty());
    }

    #[test]
    fn self_loop_singleton() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(tarjan_scc(&g), vec![vec![a]]);
    }
}
