//! One directed cycle of an edge-filtered sub-graph (iterative DFS).

use crate::{DiGraph, EdgeId, NodeId};

/// Finds one directed cycle in the sub-graph selected by `edge_keep`,
/// as a node sequence (`[a, b, c]` means `a -> b -> c -> a`), or
/// `None` if the filtered graph is acyclic.
///
/// Deterministic: the DFS roots nodes in id order and scans successors
/// in edge-insertion order, so the same graph always yields the same
/// cycle.  Used by the bound engine to extract the *witness* cycle
/// behind a max-cycle-ratio certificate.
pub fn find_cycle_filtered<N, E>(
    g: &DiGraph<N, E>,
    mut edge_keep: impl FnMut(EdgeId) -> bool,
) -> Option<Vec<NodeId>> {
    // 0 = white, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; g.node_count()];
    let mut path: Vec<NodeId> = Vec::new();
    // (node, out-edge cursor)
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    for root in g.node_ids() {
        if color[root.index()] != 0 {
            continue;
        }
        color[root.index()] = 1;
        path.push(root);
        stack.push((root, 0));
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            let mut advanced = false;
            while let Some(e) = g.out_edges(node).nth(*cursor) {
                *cursor += 1;
                if !edge_keep(e) {
                    continue;
                }
                let next = g.edge_target(e);
                match color[next.index()] {
                    1 => {
                        // Back edge: the cycle is the path suffix from
                        // `next` (inclusive) to `node`.
                        let start = path
                            .iter()
                            .position(|&p| p == next)
                            .expect("on-path node is in path");
                        return Some(path[start..].to_vec());
                    }
                    0 => {
                        color[next.index()] = 1;
                        path.push(next);
                        stack.push((next, 0));
                        advanced = true;
                        break;
                    }
                    _ => {}
                }
            }
            if !advanced {
                stack.pop();
                let done = path.pop().expect("path tracks stack");
                color[done.index()] = 2;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(mut cycles: Vec<Vec<NodeId>>) -> Vec<Vec<usize>> {
        // Rotate each cycle so it starts at its minimum node, then sort.
        let mut out: Vec<Vec<usize>> = cycles
            .drain(..)
            .map(|c| {
                let ixs: Vec<usize> = c.iter().map(|n| n.index()).collect();
                let min_pos = ixs
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| **v)
                    .map(|(i, _)| i)
                    .unwrap();
                let mut rot = ixs.clone();
                rot.rotate_left(min_pos);
                rot
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn find_cycle_filtered_respects_filter() {
        // 0 -> 1 -> 0 (edge ids 0,1) and 1 -> 2 -> 1 (edge ids 2,3).
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        let e01 = g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[0], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[1], ());
        let all = find_cycle_filtered(&g, |_| true).unwrap();
        assert_eq!(norm(vec![all]), vec![vec![0, 1]]);
        // Excluding 0 -> 1 leaves only the 1 <-> 2 cycle.
        let without = find_cycle_filtered(&g, |e| e != e01).unwrap();
        assert_eq!(norm(vec![without]), vec![vec![1, 2]]);
        // Keeping nothing: acyclic.
        assert!(find_cycle_filtered(&g, |_| false).is_none());
    }

    #[test]
    fn find_cycle_filtered_self_loop_and_dag() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        assert!(find_cycle_filtered(&g, |_| true).is_none());
        g.add_edge(b, b, ());
        assert_eq!(find_cycle_filtered(&g, |_| true), Some(vec![b]));
    }
}
