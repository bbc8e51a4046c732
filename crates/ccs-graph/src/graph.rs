//! The directed multigraph container.

use crate::ids::{EdgeId, NodeId};

#[derive(Clone, Debug)]
struct NodeSlot<N> {
    weight: N,
    /// Outgoing edge ids (insertion order).
    out_edges: Vec<EdgeId>,
    /// Incoming edge ids (insertion order).
    in_edges: Vec<EdgeId>,
}

#[derive(Clone, Debug)]
struct EdgeSlot<E> {
    weight: E,
    src: NodeId,
    dst: NodeId,
}

/// An append-only directed multigraph with node weights `N` and edge
/// weights `E`.
///
/// Parallel edges and self-loops are allowed (both occur in data-flow
/// graphs).  Nodes and edges are only ever added, so ids are dense:
/// node ids are `0..node_count()` and edge ids `0..edge_count()`, both
/// in insertion order, and side tables indexed by [`NodeId::index`]
/// are sized by [`node_count`](Self::node_count).
///
/// # Examples
///
/// ```
/// use ccs_graph::DiGraph;
///
/// let mut g: DiGraph<&str, u32> = DiGraph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let e = g.add_edge(a, b, 3);
/// assert_eq!(g.edge_endpoints(e), (a, b));
/// assert_eq!(g[e], 3);
/// assert_eq!(g.out_edges(a).count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeSlot<N>>,
    edges: Vec<EdgeSlot<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeSlot {
            weight,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        });
        id
    }

    /// Adds a directed edge `src -> dst` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(
            self.contains_node(src),
            "add_edge: source {src:?} is not a node of this graph"
        );
        assert!(
            self.contains_node(dst),
            "add_edge: target {dst:?} is not a node of this graph"
        );
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeSlot { weight, src, dst });
        self.nodes[src.index()].out_edges.push(id);
        self.nodes[dst.index()].in_edges.push(id);
        id
    }

    /// Returns `true` if `id` is a node of this graph (guards against
    /// ids taken from another, larger graph).
    pub fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// Endpoints `(src, dst)` of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let slot = &self.edges[id.index()];
        (slot.src, slot.dst)
    }

    /// Source node of an edge.
    pub fn edge_source(&self, id: EdgeId) -> NodeId {
        self.edges[id.index()].src
    }

    /// Target node of an edge.
    pub fn edge_target(&self, id: EdgeId) -> NodeId {
        self.edges[id.index()].dst
    }

    /// Node ids, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Edge ids, in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterator over `(id, src, dst, &weight)` for every edge, in
    /// insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, s)| (EdgeId::from_index(i), s.src, s.dst, &s.weight))
    }

    /// Ids of edges leaving `node`, in insertion order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.nodes[node.index()].out_edges.iter().copied()
    }

    /// Ids of edges entering `node`, in insertion order.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.nodes[node.index()].in_edges.iter().copied()
    }

    /// Successor nodes of `node` (with multiplicity for parallel edges).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node).map(|e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes of `node` (with multiplicity for parallel edges).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(node).map(|e| self.edges[e.index()].src)
    }

    /// Returns the first edge `src -> dst` if one exists.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src)
            .find(|&e| self.edges[e.index()].dst == dst)
    }
}

impl<N, E> std::ops::Index<NodeId> for DiGraph<N, E> {
    type Output = N;
    fn index(&self, id: NodeId) -> &N {
        &self.nodes[id.index()].weight
    }
}

impl<N, E> std::ops::Index<EdgeId> for DiGraph<N, E> {
    type Output = E;
    fn index(&self, id: EdgeId) -> &E {
        &self.edges[id.index()].weight
    }
}

impl<N, E> std::ops::IndexMut<EdgeId> for DiGraph<N, E> {
    fn index_mut(&mut self, id: EdgeId) -> &mut E {
        &mut self.edges[id.index()].weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        // a -> b -> d, a -> c -> d
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_edges(a).count(), 2);
        assert_eq!(g.in_edges(a).count(), 0);
        assert_eq!(g.out_edges(d).count(), 0);
        assert_eq!(g.in_edges(d).count(), 2);
        assert_eq!(g.out_edges(b).count(), 1);
    }

    #[test]
    fn adjacency_iteration() {
        let (g, [a, b, c, d]) = diamond();
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ, vec![b, c]);
        let pred: Vec<_> = g.predecessors(d).collect();
        assert_eq!(pred, vec![b, c]);
    }

    #[test]
    fn weights_and_indexing() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(g[a], "a");
        let e = g.find_edge(a, NodeId::from_index(1)).unwrap();
        assert_eq!(g[e], 1);
        g[e] = 10;
        assert_eq!(g[e], 10);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(a, b, 2);
        let e3 = g.add_edge(a, a, 3);
        assert_ne!(e1, e2);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(a).count(), 3);
        assert_eq!(g.in_edges(a).count(), 1);
        assert_eq!(g.edge_endpoints(e3), (a, a));
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let (g, nodes) = diamond();
        let ids: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(ids, nodes);
        let ix: Vec<usize> = g.node_ids().map(NodeId::index).collect();
        assert_eq!(ix, (0..g.node_count()).collect::<Vec<_>>());
        let ex: Vec<usize> = g.edge_ids().map(EdgeId::index).collect();
        assert_eq!(ex, (0..g.edge_count()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "is not a node of this graph")]
    fn add_edge_with_another_graphs_id_panics() {
        let (mut g, [a, ..]) = diamond();
        let mut other: DiGraph<&str, u32> = DiGraph::new();
        for name in ["p", "q", "r", "s", "t"] {
            other.add_node(name);
        }
        let foreign = other.add_node("u");
        g.add_edge(a, foreign, 99);
    }

    #[test]
    fn edges_iterator_reports_endpoints() {
        let (g, [a, b, ..]) = diamond();
        let first = g.edges().next().unwrap();
        assert_eq!((first.1, first.2, *first.3), (a, b, 1));
        assert_eq!(g.edges().count(), 4);
    }
}
