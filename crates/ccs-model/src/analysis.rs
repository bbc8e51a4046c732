//! Structural statistics of a CSDFG, used by the experiment harness
//! and handy when characterizing new workloads.

use crate::csdfg::Csdfg;
use ccs_graph::algo::scc::tarjan_scc;
use ccs_graph::NodeId;

/// Summary statistics of a CSDFG.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of dependency edges.
    pub deps: usize,
    /// Edges with `d(e) == 0` (intra-iteration).
    pub zero_delay_deps: usize,
    /// Total delay tokens in the graph.
    pub total_delay: u64,
    /// Total computation time.
    pub total_time: u64,
    /// Maximum task time.
    pub max_time: u32,
    /// Maximum in-degree over tasks.
    pub max_in_degree: usize,
    /// Maximum out-degree over tasks.
    pub max_out_degree: usize,
    /// Total data volume over all edges.
    pub total_volume: u64,
    /// Number of non-trivial strongly connected components (size > 1
    /// or self-loop) — the graph's independent recurrences.
    pub recurrences: usize,
    /// Size of the largest strongly connected component.
    pub largest_scc: usize,
}

/// Computes [`GraphStats`] for `g`.
pub fn stats(g: &Csdfg) -> GraphStats {
    let sccs = tarjan_scc(g.graph());
    let non_trivial =
        |c: &Vec<NodeId>| c.len() > 1 || c.first().is_some_and(|&v| g.succs(v).any(|s| s == v));
    GraphStats {
        tasks: g.task_count(),
        deps: g.dep_count(),
        zero_delay_deps: g.deps().filter(|&e| g.delay(e) == 0).count(),
        total_delay: g.total_delay(),
        total_time: g.total_time(),
        max_time: g.tasks().map(|v| g.time(v)).max().unwrap_or(0),
        max_in_degree: g.tasks().map(|v| g.in_deps(v).count()).max().unwrap_or(0),
        max_out_degree: g.tasks().map(|v| g.out_deps(v).count()).max().unwrap_or(0),
        total_volume: g.deps().map(|e| u64::from(g.volume(e))).sum(),
        recurrences: sccs.iter().filter(|c| non_trivial(c)).count(),
        largest_scc: sccs.iter().map(Vec::len).max().unwrap_or(0),
    }
}

/// Number of weakly connected components of `g` (0 for an empty
/// graph): tasks joined by an edge in either direction share one, and a
/// self-loop joins nothing.
pub fn weak_components(g: &Csdfg) -> usize {
    let mut parent: Vec<usize> = (0..g.task_count()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        let (ru, rv) = (find(&mut parent, u.index()), find(&mut parent, v.index()));
        if ru != rv {
            parent[ru.max(rv)] = ru.min(rv);
        }
    }
    g.tasks()
        .filter(|&v| find(&mut parent, v.index()) == v.index())
        .count()
}

/// A fluent builder for small graphs, mostly for examples and tests:
///
/// ```
/// use ccs_model::analysis::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .task("A", 1)
///     .task("B", 2)
///     .dep("A", "B", 0, 1)
///     .dep("B", "A", 1, 2)
///     .build()
///     .unwrap();
/// assert_eq!(g.task_count(), 2);
/// assert!(g.check_legal().is_ok());
/// ```
#[derive(Default)]
pub struct GraphBuilder {
    tasks: Vec<(String, u32)>,
    deps: Vec<(String, String, u32, u32)>,
}

impl GraphBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a task.
    pub fn task(mut self, name: impl Into<String>, time: u32) -> Self {
        self.tasks.push((name.into(), time));
        self
    }

    /// Declares a dependency by task names (tasks referenced before
    /// declaration are created with `t = 1`).
    pub fn dep(
        mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        delay: u32,
        volume: u32,
    ) -> Self {
        self.deps.push((src.into(), dst.into(), delay, volume));
        self
    }

    /// Builds the graph, validating legality.
    pub fn build(self) -> Result<Csdfg, crate::csdfg::ModelError> {
        let mut g = Csdfg::new();
        for (name, time) in self.tasks {
            g.add_task(name, time)?;
        }
        for (src, dst, delay, volume) in self.deps {
            let s = match g.task_by_name(&src) {
                Some(s) => s,
                None => g.add_task(src, 1)?,
            };
            let d = match g.task_by_name(&dst) {
                Some(d) => d,
                None => g.add_task(dst, 1)?,
            };
            g.add_dep(s, d, delay, volume)?;
        }
        g.check_legal()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_a_two_recurrence_graph() {
        let g = GraphBuilder::new()
            .task("A", 1)
            .task("B", 2)
            .task("C", 3)
            .dep("A", "B", 0, 2)
            .dep("B", "A", 1, 1)
            .dep("C", "C", 2, 1)
            .dep("A", "C", 0, 1)
            .build()
            .unwrap();
        let s = stats(&g);
        assert_eq!(s.tasks, 3);
        assert_eq!(s.deps, 4);
        assert_eq!(s.zero_delay_deps, 2);
        assert_eq!(s.total_delay, 3);
        assert_eq!(s.total_time, 6);
        assert_eq!(s.max_time, 3);
        assert_eq!(s.total_volume, 5);
        assert_eq!(s.recurrences, 2); // {A,B} and the C self-loop
        assert_eq!(s.largest_scc, 2);
        assert_eq!(s.max_out_degree, 2); // A
    }

    #[test]
    fn builder_rejects_illegal_graphs() {
        let r = GraphBuilder::new()
            .dep("A", "B", 0, 1)
            .dep("B", "A", 0, 1)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn builder_auto_creates_tasks() {
        let g = GraphBuilder::new().dep("X", "Y", 1, 1).build().unwrap();
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.time(g.task_by_name("X").unwrap()), 1);
    }

    #[test]
    fn empty_graph_stats() {
        let s = stats(&Csdfg::new());
        assert_eq!(s.tasks, 0);
        assert_eq!(s.recurrences, 0);
        assert_eq!(s.max_time, 0);
    }

    #[test]
    fn acyclic_graph_has_no_recurrences() {
        let g = GraphBuilder::new()
            .dep("A", "B", 0, 1)
            .dep("B", "C", 2, 1)
            .build()
            .unwrap();
        assert_eq!(stats(&g).recurrences, 0);
    }

    fn graph(tasks: usize, deps: &[(usize, usize)]) -> Csdfg {
        let mut g = Csdfg::new();
        let ids: Vec<NodeId> = (0..tasks)
            .map(|i| g.add_task(format!("v{i}"), 1).unwrap())
            .collect();
        for &(a, b) in deps {
            g.add_dep(ids[a], ids[b], 1, 1).unwrap();
        }
        g
    }

    #[test]
    fn weak_components_of_empty_and_isolated_tasks() {
        assert_eq!(weak_components(&Csdfg::new()), 0);
        assert_eq!(weak_components(&graph(1, &[])), 1);
        assert_eq!(weak_components(&graph(4, &[])), 4);
    }

    #[test]
    fn weak_components_self_loop_joins_nothing() {
        assert_eq!(weak_components(&graph(1, &[(0, 0)])), 1);
        assert_eq!(weak_components(&graph(3, &[(1, 1), (0, 0)])), 3);
    }

    #[test]
    fn weak_components_ignore_direction() {
        // 0 -> 1 -> 2 -> 0, 3 -> 4, 5 isolated.
        let g = graph(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        assert_eq!(weak_components(&g), 3);
        // Edges pointing into a shared sink, or out of a shared source,
        // still join their endpoints.
        assert_eq!(weak_components(&graph(3, &[(0, 2), (1, 2)])), 1);
        assert_eq!(weak_components(&graph(3, &[(2, 0), (2, 1)])), 1);
        // The highest-numbered task joining the lowest merges the lot.
        assert_eq!(weak_components(&graph(3, &[(1, 0), (2, 1)])), 1);
    }

    #[test]
    fn weak_components_parallel_edges_count_once() {
        let g = graph(3, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(weak_components(&g), 2);
    }
}
