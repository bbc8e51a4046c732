//! The communication-sensitive data-flow graph (CSDFG).

use ccs_graph::algo::topo::{topo_sort_filtered, CycleError};
use ccs_graph::{DiGraph, EdgeId, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Node payload of a CSDFG: a computational task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Human-readable name (unique within a graph).
    pub name: String,
    /// Computation time `t(v)` in clock cycles, `>= 1`.
    pub time: u32,
}

/// Edge payload of a CSDFG: a data dependency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dep {
    /// Loop-carried delay count `d(e)` (0 = intra-iteration dependency).
    pub delay: u32,
    /// Data volume `c(e)` transmitted when producer and consumer run on
    /// different processors, `>= 1`.
    pub volume: u32,
}

/// Errors raised while building or mutating a CSDFG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A task with this name already exists.
    DuplicateTask(String),
    /// Computation times must be strictly positive.
    ZeroTime(String),
    /// Communication volumes must be strictly positive.
    ZeroVolume,
    /// The graph has a cycle whose total delay is zero (illegal DFG).
    ZeroDelayCycle(NodeId),
    /// An unknown task name was referenced.
    UnknownTask(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateTask(n) => write!(f, "duplicate task name {n:?}"),
            ModelError::ZeroTime(n) => write!(f, "task {n:?} has zero computation time"),
            ModelError::ZeroVolume => write!(f, "edge has zero data volume"),
            ModelError::ZeroDelayCycle(n) => {
                write!(f, "zero-delay cycle through node {n} (illegal DFG)")
            }
            ModelError::UnknownTask(n) => write!(f, "unknown task name {n:?}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A communication-sensitive data-flow graph `G = (V, E, d, t, c)`
/// (paper, Definition in §2).
///
/// * nodes are [`Task`]s with computation times `t(v) >= 1`;
/// * edges are [`Dep`]s with delay counts `d(e) >= 0` and communication
///   volumes `c(e) >= 1`;
/// * a *legal* CSDFG has strictly positive total delay around every
///   directed cycle, equivalently: the sub-graph of zero-delay edges is
///   acyclic (see [`Csdfg::check_legal`]).
///
/// ```
/// use ccs_model::Csdfg;
///
/// let mut g = Csdfg::new();
/// let a = g.add_task("A", 1).unwrap();
/// let b = g.add_task("B", 2).unwrap();
/// g.add_dep(a, b, 0, 1).unwrap(); // same-iteration dependency
/// g.add_dep(b, a, 1, 2).unwrap(); // loop-carried, one delay
/// assert!(g.check_legal().is_ok());
/// assert_eq!(g.time(a), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Csdfg {
    graph: DiGraph<Task, Dep>,
    // ORDERED: name -> id lookup index on the add_task/task_by_name
    // path; never iterated, so its order cannot reach any output.
    by_name: HashMap<String, NodeId>,
}

impl Default for Csdfg {
    fn default() -> Self {
        Self::new()
    }
}

impl Csdfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Csdfg {
            graph: DiGraph::new(),
            by_name: HashMap::new(), // ORDERED: see field note
        }
    }

    /// Adds a task with the given `name` and computation time `time`.
    pub fn add_task(&mut self, name: impl Into<String>, time: u32) -> Result<NodeId, ModelError> {
        let name = name.into();
        if time == 0 {
            return Err(ModelError::ZeroTime(name));
        }
        if self.by_name.contains_key(&name) {
            return Err(ModelError::DuplicateTask(name));
        }
        let id = self.graph.add_node(Task {
            name: name.clone(),
            time,
        });
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Adds a dependency edge `src -> dst` with `delay` loop-carried
    /// delays and communication `volume`.
    pub fn add_dep(
        &mut self,
        src: NodeId,
        dst: NodeId,
        delay: u32,
        volume: u32,
    ) -> Result<EdgeId, ModelError> {
        if volume == 0 {
            return Err(ModelError::ZeroVolume);
        }
        Ok(self.graph.add_edge(src, dst, Dep { delay, volume }))
    }

    /// Looks a task up by name.
    pub fn task_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Borrow the underlying graph (read-only).
    pub fn graph(&self) -> &DiGraph<Task, Dep> {
        &self.graph
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of dependency edges.
    pub fn dep_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Iterator over task node ids.
    pub fn tasks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids()
    }

    /// Iterator over dependency edge ids.
    pub fn deps(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.graph.edge_ids()
    }

    /// Name of task `v`.
    pub fn name(&self, v: NodeId) -> &str {
        &self.graph[v].name
    }

    /// Computation time `t(v)`.
    pub fn time(&self, v: NodeId) -> u32 {
        self.graph[v].time
    }

    /// Delay count `d(e)`.
    pub fn delay(&self, e: EdgeId) -> u32 {
        self.graph[e].delay
    }

    /// Communication volume `c(e)`.
    pub fn volume(&self, e: EdgeId) -> u32 {
        self.graph[e].volume
    }

    /// Overwrites the delay count of edge `e` (used by retiming).
    pub fn set_delay(&mut self, e: EdgeId, delay: u32) {
        self.graph[e].delay = delay;
    }

    /// Endpoints `(src, dst)` of a dependency edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.graph.edge_endpoints(e)
    }

    /// In-edges of `v`.
    pub fn in_deps(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.graph.in_edges(v)
    }

    /// Out-edges of `v`.
    pub fn out_deps(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.graph.out_edges(v)
    }

    /// Predecessor tasks of `v` (with edge multiplicity).
    pub fn preds(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.predecessors(v)
    }

    /// Successor tasks of `v` (with edge multiplicity).
    pub fn succs(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.successors(v)
    }

    /// Sum of all delays in the graph (a retiming invariant on cycles,
    /// but *not* globally — useful in tests).
    pub fn total_delay(&self) -> u64 {
        self.deps().map(|e| u64::from(self.delay(e))).sum()
    }

    /// Sum of all computation times.
    pub fn total_time(&self) -> u64 {
        self.tasks().map(|v| u64::from(self.time(v))).sum()
    }

    /// Checks the paper's legality condition: every directed cycle has a
    /// strictly positive total delay.  Because delays are non-negative
    /// this is equivalent to the zero-delay edge sub-graph being acyclic.
    pub fn check_legal(&self) -> Result<(), ModelError> {
        match self.zero_delay_topo() {
            Ok(_) => Ok(()),
            Err(c) => Err(ModelError::ZeroDelayCycle(c.witness)),
        }
    }

    /// Topological order of the zero-delay (intra-iteration) DAG view.
    pub fn zero_delay_topo(&self) -> Result<Vec<NodeId>, CycleError> {
        topo_sort_filtered(&self.graph, |e| self.graph[e].delay == 0)
    }

    /// The zero-delay in-edges of `v` — its same-iteration dependencies.
    pub fn intra_iter_in_deps(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_deps(v).filter(|&e| self.delay(e) == 0)
    }

    /// The zero-delay out-edges of `v`.
    pub fn intra_iter_out_deps(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_deps(v).filter(|&e| self.delay(e) == 0)
    }
}

impl fmt::Display for Csdfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CSDFG: {} tasks, {} deps",
            self.task_count(),
            self.dep_count()
        )?;
        for v in self.tasks() {
            writeln!(f, "  node {} t={}", self.name(v), self.time(v))?;
        }
        for e in self.deps() {
            let (u, v) = self.endpoints(e);
            writeln!(
                f,
                "  edge {} -> {} d={} c={}",
                self.name(u),
                self.name(v),
                self.delay(e),
                self.volume(e)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_loop() -> (Csdfg, NodeId, NodeId) {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 3).unwrap();
        (g, a, b)
    }

    #[test]
    fn accessors() {
        let (g, a, b) = two_node_loop();
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.dep_count(), 2);
        assert_eq!(g.name(a), "A");
        assert_eq!(g.time(b), 2);
        assert_eq!(g.task_by_name("B"), Some(b));
        assert_eq!(g.task_by_name("Z"), None);
        assert_eq!(g.total_delay(), 2);
        assert_eq!(g.total_time(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = Csdfg::new();
        g.add_task("A", 1).unwrap();
        assert_eq!(
            g.add_task("A", 1),
            Err(ModelError::DuplicateTask("A".into()))
        );
    }

    #[test]
    fn zero_time_and_zero_volume_rejected() {
        let mut g = Csdfg::new();
        assert_eq!(g.add_task("A", 0), Err(ModelError::ZeroTime("A".into())));
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        assert_eq!(g.add_dep(a, b, 0, 0), Err(ModelError::ZeroVolume));
    }

    #[test]
    fn legality_depends_on_cycle_delays() {
        let (g, _, _) = two_node_loop();
        assert!(g.check_legal().is_ok());

        let mut bad = Csdfg::new();
        let a = bad.add_task("A", 1).unwrap();
        let b = bad.add_task("B", 1).unwrap();
        bad.add_dep(a, b, 0, 1).unwrap();
        bad.add_dep(b, a, 0, 1).unwrap();
        assert!(matches!(
            bad.check_legal(),
            Err(ModelError::ZeroDelayCycle(_))
        ));
    }

    #[test]
    fn zero_delay_topo_ignores_delayed_edges() {
        let (g, a, b) = two_node_loop();
        assert_eq!(g.zero_delay_topo().unwrap(), vec![a, b]);
    }

    #[test]
    fn intra_iteration_edge_filters() {
        let (g, a, b) = two_node_loop();
        assert_eq!(g.intra_iter_in_deps(b).count(), 1);
        assert_eq!(g.intra_iter_in_deps(a).count(), 0);
        assert_eq!(g.intra_iter_out_deps(a).count(), 1);
    }

    #[test]
    fn set_delay_mutates() {
        let (mut g, a, _) = two_node_loop();
        let e = g.out_deps(a).next().unwrap();
        g.set_delay(e, 5);
        assert_eq!(g.delay(e), 5);
    }

    #[test]
    fn display_lists_everything() {
        let (g, _, _) = two_node_loop();
        let s = g.to_string();
        assert!(s.contains("node A t=1"));
        assert!(s.contains("edge B -> A d=2 c=3"));
    }

    #[test]
    fn paper_fig1_graph_is_legal() {
        // Figure 1(b) of the paper.
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
        assert!(g.check_legal().is_ok());
        assert_eq!(g.total_delay(), 4);
    }
}
