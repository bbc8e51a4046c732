//! # ccs-graph
//!
//! A small, dependency-free directed multigraph library: the graph
//! substrate underneath the `cyclosched` reproduction of
//! *"Architecture-Dependent Loop Scheduling via Communication-Sensitive
//! Remapping"* (Tongsima, Passos, Sha — ICPP 1995).
//!
//! Data-flow graphs in that paper are node- and edge-weighted directed
//! multigraphs (parallel edges and self-loops both occur), and no run
//! ever deletes a task or an edge: rotation rewrites delays, unfolding
//! and slow-down build new graphs.  So this crate provides an
//! append-only [`DiGraph`] arena with dense integer ids, plus the
//! algorithms the scheduler stack calls:
//!
//! * [`algo::topo`] — topological sorting with *edge filtering*, used to
//!   obtain the zero-delay DAG view of a cyclic data-flow graph;
//! * [`algo::scc`] — Tarjan strongly connected components (graph
//!   statistics, the iteration bound);
//! * [`algo::cycles`] — one cycle of an edge-filtered sub-graph (the
//!   witness behind a cycle-ratio certificate);
//! * [`algo::paths`] — feasible potentials of a difference-constraint
//!   system (negative-cycle detection for retiming feasibility).
//!
//! ## Example
//!
//! ```
//! use ccs_graph::{DiGraph, algo::topo::topo_sort_filtered};
//!
//! let mut g: DiGraph<&str, u32> = DiGraph::new();
//! let a = g.add_node("load");
//! let b = g.add_node("mul");
//! let c = g.add_node("store");
//! g.add_edge(a, b, 0);
//! g.add_edge(b, c, 0);
//! g.add_edge(c, a, 1); // loop-carried: dropped from the DAG view
//! let order = topo_sort_filtered(&g, |e| g[e] == 0).unwrap();
//! assert_eq!(order, vec![a, b, c]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod graph;
mod ids;

pub mod algo {
    //! Graph algorithms over [`DiGraph`](crate::DiGraph).
    pub mod cycles;
    pub mod paths;
    pub mod scc;
    pub mod topo;
}

pub use graph::DiGraph;
pub use ids::{EdgeId, NodeId};
