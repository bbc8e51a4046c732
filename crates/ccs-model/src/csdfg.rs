//! The communication-sensitive data-flow graph (CSDFG).

use crate::cycle_ratio::{self, Ratio};
use ccs_graph::algo::topo::{topo_sort_filtered, CycleError};
use ccs_graph::{DiGraph, EdgeId, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

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
/// Two facts derived from the graph are computed by their first reader
/// and kept, the way a `Machine` keeps its hop rows: the zero-delay
/// topological order, which is also the legality proof
/// ([`Csdfg::zero_delay_topo`], [`Csdfg::check_legal`]), and the
/// iteration bound ([`Csdfg::iteration_bound`]).  A clone keeps them;
/// [`Csdfg::add_task`], [`Csdfg::add_dep`] and [`Csdfg::set_delay`]
/// drop them, so a read after an edit computes them afresh.
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
    derived: Derived,
}

/// The facts a [`Csdfg`] derives from its tasks, edges and delays, each
/// in a cell its first reader fills.  Cells rather than fields, so a
/// `&Csdfg` can fill them and rayon workers can share one graph.
#[derive(Debug, Default)]
struct Derived {
    /// The zero-delay topological order, or the zero-delay cycle that
    /// refutes legality.
    topo: OnceLock<Result<Box<[NodeId]>, CycleError>>,
    /// The iteration bound, `None` for an acyclic graph.
    bound: OnceLock<Option<Ratio>>,
    /// How many times each cell has been filled, read by
    /// [`Csdfg::fills`].
    topo_fills: AtomicU32,
    bound_fills: AtomicU32,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        let count = |c: &AtomicU32| AtomicU32::new(c.load(Ordering::Relaxed));
        Derived {
            topo: self.topo.clone(),
            bound: self.bound.clone(),
            topo_fills: count(&self.topo_fills),
            bound_fills: count(&self.bound_fills),
        }
    }
}

/// How many times a [`Csdfg`] has computed each derived fact: the
/// count a test reads to see that readers share one computation.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fills {
    /// Zero-delay topological sorts.
    pub topo: u32,
    /// Iteration-bound computations.
    pub bound: u32,
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
            derived: Derived::default(),
        }
    }

    /// Drops the derived facts: called by every edit.
    fn edited(&mut self) {
        self.derived.topo.take();
        self.derived.bound.take();
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
        self.edited();
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
        self.edited();
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

    /// Overwrites the delay count of edge `e` (used by retiming), and
    /// drops the derived facts.
    pub fn set_delay(&mut self, e: EdgeId, delay: u32) {
        self.edited();
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
    /// this is equivalent to the zero-delay edge sub-graph being acyclic,
    /// so the proof is the kept [`Csdfg::zero_delay_topo`].
    pub fn check_legal(&self) -> Result<(), ModelError> {
        match self.zero_delay_topo() {
            Ok(_) => Ok(()),
            Err(c) => Err(ModelError::ZeroDelayCycle(c.witness)),
        }
    }

    /// Topological order of the zero-delay (intra-iteration) DAG view,
    /// ties broken by node id.  Sorted by the first call and kept until
    /// an edit.
    pub fn zero_delay_topo(&self) -> Result<&[NodeId], CycleError> {
        let topo = self.derived.topo.get_or_init(|| {
            self.derived.topo_fills.fetch_add(1, Ordering::Relaxed);
            topo_sort_filtered(&self.graph, |e| self.graph[e].delay == 0).map(Vec::into_boxed_slice)
        });
        topo.as_deref().map_err(Clone::clone)
    }

    /// The iteration bound `B = max_C T(C)/D(C)` over the directed
    /// cycles `C` (total computation time over total delay), `None`
    /// for an acyclic graph.  No schedule of any retiming of the graph
    /// has a shorter initiation interval, whatever the machine.
    /// Computed by the first call and kept until an edit.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a zero-delay cycle (illegal CSDFG — the
    /// bound would be infinite).
    pub fn iteration_bound(&self) -> Option<Ratio> {
        assert!(
            self.check_legal().is_ok(),
            "iteration bound undefined: graph has a zero-delay cycle"
        );
        *self.derived.bound.get_or_init(|| {
            self.derived.bound_fills.fetch_add(1, Ordering::Relaxed);
            cycle_ratio::compute(self)
        })
    }

    /// How many times this graph (and the graph it was cloned from)
    /// has sorted its zero-delay view and computed its iteration
    /// bound.
    #[doc(hidden)]
    pub fn fills(&self) -> Fills {
        Fills {
            topo: self.derived.topo_fills.load(Ordering::Relaxed),
            bound: self.derived.bound_fills.load(Ordering::Relaxed),
        }
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
    fn derived_facts_are_computed_once_and_kept_by_clones() {
        let (g, a, b) = two_node_loop();
        assert_eq!(g.fills(), Fills { topo: 0, bound: 0 });
        assert_eq!(g.zero_delay_topo().unwrap(), &[a, b]);
        assert!(g.check_legal().is_ok());
        assert_eq!(g.fills(), Fills { topo: 1, bound: 0 });
        assert_eq!(g.iteration_bound(), Some(Ratio::new(3, 2)));
        assert_eq!(g.iteration_bound(), Some(Ratio::new(3, 2)));
        assert_eq!(g.fills(), Fills { topo: 1, bound: 1 });
        // A clone keeps both cells: its reads compute nothing.
        let c = g.clone();
        assert_eq!(c.zero_delay_topo().unwrap(), &[a, b]);
        assert_eq!(c.iteration_bound(), Some(Ratio::new(3, 2)));
        assert_eq!(c.fills(), Fills { topo: 1, bound: 1 });
    }

    #[test]
    fn every_edit_drops_the_derived_facts() {
        let read = |g: &Csdfg| {
            (
                g.zero_delay_topo().map(<[NodeId]>::to_vec),
                g.iteration_bound(),
            )
        };
        type Edit = fn(&mut Csdfg);
        let edits: [(&str, Edit); 3] = [
            ("add_task", |g| {
                g.add_task("C", 4).unwrap();
            }),
            ("add_dep", |g| {
                let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
                g.add_dep(b, a, 1, 1).unwrap();
            }),
            ("set_delay", |g| g.set_delay(EdgeId::from_index(1), 1)),
        ];
        for (name, edit) in edits {
            let (mut g, _, _) = two_node_loop();
            let _ = read(&g);
            edit(&mut g);
            let fresh = crate::spec::CsdfgSpec::from(&g).build().unwrap();
            assert_eq!(read(&g), read(&fresh), "{name}");
            assert_eq!(g.fills(), Fills { topo: 2, bound: 2 }, "{name}");
        }
        // A refused edit changes nothing and keeps them.
        let (mut g, _, _) = two_node_loop();
        let _ = read(&g);
        assert!(g.add_task("A", 1).is_err());
        let _ = read(&g);
        assert_eq!(g.fills(), Fills { topo: 1, bound: 1 });
    }

    #[test]
    fn an_illegal_graph_keeps_its_refutation() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        let back = g.add_dep(b, a, 0, 1).unwrap();
        assert!(g.check_legal().is_err());
        assert!(g.zero_delay_topo().is_err());
        assert_eq!(g.fills().topo, 1);
        g.set_delay(back, 1);
        assert!(g.check_legal().is_ok());
        assert_eq!(g.iteration_bound(), Some(Ratio::new(2, 1)));
    }

    #[test]
    #[should_panic(expected = "zero-delay cycle")]
    fn the_bound_of_an_illegal_graph_panics() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        g.add_dep(a, a, 0, 1).unwrap();
        let _ = g.iteration_bound();
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
