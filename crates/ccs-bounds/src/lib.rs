//! # ccs-bounds
//!
//! Static iteration-period lower bounds over `(CsdfGraph, Machine)`
//! pairs, and the schedule optimality certifier built on top of them.
//!
//! Every bound here is *sound against the whole scheduler*: cyclo
//! compaction validates its best schedule against some rotation
//! (retiming) of the input graph, so each bound is proven for **every
//! legal retiming** of the input, not just the graph as given.  The
//! catalogue (see `DESIGN.md` §11):
//!
//! * [`BoundKind::CycleRatio`] — `ceil(max_C T(C)/D(C))`, the integer
//!   iteration bound.  Retiming-invariant by the cycle delay-sum
//!   invariant.  Witness: a critical cycle.
//! * [`BoundKind::Resource`] — `ceil(W / min(P, N))` plus the
//!   heaviest-task floor and the pigeonhole pair refinement (with more
//!   tasks than PEs, two of the `P+1` heaviest share a PE).  Witness:
//!   the binding term.
//! * [`BoundKind::CriticalPath`] — the Leiserson–Saxe minimum clock
//!   period: the shortest zero-delay computation chain achievable by
//!   *any* legal retiming.  Witness: the binding chain at the optimum.
//! * [`BoundKind::Communication`] — a communication-aware floor: a
//!   schedule either keeps the whole (weakly connected) graph on few
//!   PEs and pays the serialization term `ceil(W/p)`, or splits a
//!   component and pays the cheapest possible crossing edge its
//!   minimum `hops · volume` cost.  Per-edge delays are replaced by
//!   the maximum delay any legal retiming can place on the edge, so
//!   the floor survives rotation.  Witness: the binding PE count,
//!   crossing edge, and hop-optimal route.
//!
//! [`certify`] compares a schedule's achieved period against
//! `max(bounds)` and returns an [`OptimalityReport`] whose verdict is
//! rendered by `ccs-analyze` as `CCS04x` diagnostics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ccs_graph::algo::scc::tarjan_scc;
use ccs_model::analysis::weak_components;
use ccs_model::{Csdfg, EdgeId, NodeId};
use ccs_retiming::clock_period::{critical_chain, min_clock_period_above};
use ccs_retiming::{critical_cycle, iteration_bound, Ratio};
use ccs_schedule::Schedule;
use ccs_topology::{Machine, Pe};
use serde::{Serialize, Value};

/// Which member of the bound family a certificate proves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BoundKind {
    /// Max cycle ratio `ceil(max_C T(C)/D(C))` (delay cycles only).
    CycleRatio,
    /// Compute-capacity bound `ceil(W / min(P, N))` with refinements.
    Resource,
    /// Minimum zero-delay critical path over all legal retimings.
    CriticalPath,
    /// Communication-aware serialization/crossing floor.
    Communication,
}

impl BoundKind {
    /// Stable machine-readable name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            BoundKind::CycleRatio => "cycle_ratio",
            BoundKind::Resource => "resource",
            BoundKind::CriticalPath => "critical_path",
            BoundKind::Communication => "communication",
        }
    }
}

impl std::fmt::Display for BoundKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The proof object attached to a certificate: the structure that
/// *attains* (binds) the bound.
#[derive(Clone, Debug, PartialEq)]
pub enum Witness {
    /// A delay cycle attaining the maximum cycle ratio.
    Cycle {
        /// Cycle node names in traversal order (`[a, b]` = `a -> b -> a`).
        nodes: Vec<String>,
        /// Exact cycle ratio `T(C)/D(C)`.
        ratio: Ratio,
    },
    /// The binding term of the resource bound.
    Resource {
        /// Total computation time `W` of the graph.
        total_compute: u64,
        /// Effective PE count `min(P, N)` the compute is divided over.
        usable_pes: usize,
        /// Name of the heaviest task (the `max_v t(v)` floor).
        heaviest: String,
        /// With more tasks than PEs: the pigeonhole pair forced to
        /// share a PE (two smallest of the `P+1` heaviest tasks).
        shared_pair: Option<(String, String)>,
    },
    /// The zero-delay chain left after the optimal retiming.
    Chain {
        /// Chain node names in execution order.
        nodes: Vec<String>,
        /// Sum of the chain's computation times (= the bound).
        total_time: u64,
    },
    /// The binding split of the communication bound.
    Cut {
        /// The PE count minimizing `max(serialization, crossing)`.
        pes_used: usize,
        /// Serialization term `ceil(W / pes_used)` at that count.
        compute_floor: u64,
        /// Crossing term charged when a component must split.
        comm_floor: u64,
        /// The cheapest crossing edge `(producer, consumer)`, when the
        /// crossing term participates.
        edge: Option<(String, String)>,
        /// A hop-optimal route realizing the minimum hop distance
        /// (PE indices, 0-based), when the crossing term participates.
        route: Vec<u32>,
    },
}

impl Serialize for Witness {
    fn to_value(&self) -> Value {
        let s = |x: &str| Value::String(x.to_string());
        match self {
            Witness::Cycle { nodes, ratio } => Value::Object(vec![
                ("type".into(), s("cycle")),
                (
                    "nodes".into(),
                    Value::Array(nodes.iter().map(|n| s(n)).collect()),
                ),
                ("ratio".into(), s(&ratio.to_string())),
            ]),
            Witness::Resource {
                total_compute,
                usable_pes,
                heaviest,
                shared_pair,
            } => {
                let mut obj = vec![
                    ("type".into(), s("resource")),
                    ("total_compute".into(), Value::UInt(*total_compute)),
                    ("usable_pes".into(), Value::UInt(*usable_pes as u64)),
                    ("heaviest".into(), s(heaviest)),
                ];
                if let Some((a, b)) = shared_pair {
                    obj.push(("shared_pair".into(), Value::Array(vec![s(a), s(b)])));
                }
                Value::Object(obj)
            }
            Witness::Chain { nodes, total_time } => Value::Object(vec![
                ("type".into(), s("chain")),
                (
                    "nodes".into(),
                    Value::Array(nodes.iter().map(|n| s(n)).collect()),
                ),
                ("total_time".into(), Value::UInt(*total_time)),
            ]),
            Witness::Cut {
                pes_used,
                compute_floor,
                comm_floor,
                edge,
                route,
            } => {
                let mut obj = vec![
                    ("type".into(), s("cut")),
                    ("pes_used".into(), Value::UInt(*pes_used as u64)),
                    ("compute_floor".into(), Value::UInt(*compute_floor)),
                    ("comm_floor".into(), Value::UInt(*comm_floor)),
                ];
                if let Some((a, b)) = edge {
                    obj.push(("edge".into(), Value::Array(vec![s(a), s(b)])));
                }
                if !route.is_empty() {
                    obj.push((
                        "route".into(),
                        Value::Array(route.iter().map(|&p| Value::UInt(u64::from(p))).collect()),
                    ));
                }
                Value::Object(obj)
            }
        }
    }
}

/// One proven lower bound on the iteration period, with its witness.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// Which bound family proved it.
    pub kind: BoundKind,
    /// The proven lower bound, in control steps.
    pub value: u64,
    /// The structure attaining the bound.
    pub witness: Witness,
}

impl Serialize for Certificate {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::String(self.kind.name().into())),
            ("value".into(), Value::UInt(self.value)),
            ("witness".into(), self.witness.to_value()),
        ])
    }
}

/// The full bound family computed for one `(graph, machine)` pair.
///
/// Certificates are stored in fixed [`BoundKind`] order; bounds that
/// do not apply (the cycle-ratio bound of an acyclic graph, any bound
/// of an empty graph) are simply absent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoundSet {
    certs: Vec<Certificate>,
}

impl BoundSet {
    /// Every computed certificate, in fixed [`BoundKind`] order.
    pub fn certificates(&self) -> &[Certificate] {
        &self.certs
    }

    /// The strongest certificate: maximum bound value, earlier kind on
    /// ties.  `None` only for an empty graph.
    pub fn best(&self) -> Option<&Certificate> {
        let mut best: Option<&Certificate> = None;
        for c in &self.certs {
            if best.map(|b| c.value > b.value).unwrap_or(true) {
                best = Some(c);
            }
        }
        best
    }

    /// The strongest proven bound value (0 for an empty graph).
    pub fn best_value(&self) -> u64 {
        self.best().map(|c| c.value).unwrap_or(0)
    }

    /// Looks up one bound family's certificate.
    pub fn get(&self, kind: BoundKind) -> Option<&Certificate> {
        self.certs.iter().find(|c| c.kind == kind)
    }
}

impl Serialize for BoundSet {
    fn to_value(&self) -> Value {
        Value::Array(self.certs.iter().map(Serialize::to_value).collect())
    }
}

/// `ceil(a / b)` for `b >= 1`.
fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Bound (a): the integer iteration bound with its critical cycle,
/// from `critical_cycle(g)`.
fn cycle_ratio_bound(g: &Csdfg, critical: Option<(Ratio, Vec<NodeId>)>) -> Option<Certificate> {
    let (ratio, cycle) = critical?;
    Some(Certificate {
        kind: BoundKind::CycleRatio,
        value: ratio.ceil(),
        witness: Witness::Cycle {
            nodes: cycle.iter().map(|&v| g.name(v).to_string()).collect(),
            ratio,
        },
    })
}

/// The tasks with their times, heaviest first; ties by node id for a
/// deterministic witness.
fn heaviest_first(g: &Csdfg) -> Vec<(u32, NodeId)> {
    let mut times: Vec<(u32, NodeId)> = g.tasks().map(|v| (g.time(v), v)).collect();
    times.sort_by_key(|&(t, v)| (std::cmp::Reverse(t), v));
    times
}

/// The value of bound (b) for total compute `w` on `p >= 1` PEs, over
/// the non-empty `times` in [`heaviest_first`] order.
fn resource_value(w: u64, p: usize, times: &[(u32, NodeId)]) -> u64 {
    let usable = p.min(times.len());
    let value = div_ceil(w, usable as u64).max(u64::from(times[0].0));
    // Pigeonhole: with more tasks than PEs, two of the P+1 heaviest
    // tasks share a PE, so the period holds both of them.
    if times.len() > p {
        value.max(u64::from(times[p - 1].0) + u64::from(times[p].0))
    } else {
        value
    }
}

/// Bound (b): compute capacity with per-PE refinements.
fn resource_bound(g: &Csdfg, m: &Machine) -> Option<Certificate> {
    let n = g.task_count();
    if n == 0 {
        return None;
    }
    let w: u64 = g.total_time();
    let p = m.num_pes().max(1);
    let times = heaviest_first(g);
    let shared_pair = (n > p).then(|| {
        (
            g.name(times[p - 1].1).to_string(),
            g.name(times[p].1).to_string(),
        )
    });
    Some(Certificate {
        kind: BoundKind::Resource,
        value: resource_value(w, p, &times),
        witness: Witness::Resource {
            total_compute: w,
            usable_pes: p.min(n),
            heaviest: g.name(times[0].1).to_string(),
            shared_pair,
        },
    })
}

/// The floor cheap enough to check inside the compaction loop: the
/// larger of the cycle-ratio bound `ceil(B)` and the resource bound,
/// as bare values with no witness, or 0 for a graph with no tasks.
///
/// Both values are the ones [`compute_bounds`] certifies for those two
/// kinds, computed by the same code.  A schedule of this length is
/// optimal over every legal retiming of `g`, which is why
/// `cyclo_compact` stops there.  The critical-path and communication
/// bounds are left out: the first costs a minimum-period search, and
/// the second is cheap (an SCC-pruned crossing-edge search) but binds
/// in none of the 50 catalogue cells of `CERTIFY_expected.json`.
///
/// # Panics
///
/// Panics if `g` is illegal (zero-delay cycle), like [`compute_bounds`].
pub fn cheap_floor(g: &Csdfg, m: &Machine) -> u64 {
    let cycle_ratio = iteration_bound(g).map_or(0, Ratio::ceil);
    if g.task_count() == 0 {
        return cycle_ratio;
    }
    let resource = resource_value(g.total_time(), m.num_pes().max(1), &heaviest_first(g));
    cycle_ratio.max(resource)
}

/// Bound (c): the minimum clock period over all legal retimings, with
/// the chain that remains at the optimum.  `ratio` is the iteration
/// bound of `g`, the floor the period search starts from.
fn critical_path_bound(g: &Csdfg, ratio: Option<Ratio>) -> Option<Certificate> {
    if g.task_count() == 0 {
        return None;
    }
    let (period, r) = min_clock_period_above(g, ratio);
    let retimed = r.apply(g);
    let chain = critical_chain(&retimed);
    Some(Certificate {
        kind: BoundKind::CriticalPath,
        value: u64::from(period),
        witness: Witness::Chain {
            nodes: chain.iter().map(|&v| retimed.name(v).to_string()).collect(),
            total_time: chain.iter().map(|&v| u64::from(retimed.time(v))).sum(),
        },
    })
}

/// The cheapest crossing floor at hop distance `hop`: the minimum over
/// the non-self edges `e = u -> v` of `ceil(span / (k_max + 1)).max(1)`,
/// with `span = hop · c(e) + t(u) + t(v)`, and the first such edge in
/// `deps()` order on ties.  `None` when every edge is a self edge.
///
/// `k_max(e) = d(e) + dist(v -> u)` is the most delays any *legal*
/// retiming can place on `e`.  Legality (`d_r(e) >= 0` everywhere) is a
/// difference-constraint system whose optimum is the shortest path under
/// delay weights; for an edge on a cycle this is exactly the minimum
/// cycle delay through it, which the retiming invariant caps.  An edge
/// whose endpoints lie in different SCCs is on no cycle, so retiming can
/// pipeline it arbitrarily deep: its floor is 1 and it needs no search.
///
/// The other edges are visited in `(lower bound, deps index)` order, and
/// the scan stops at the first one that cannot beat the incumbent.  A
/// shortest path `v -> u` is simple, so it uses no edge into `v` (`e`
/// included) and every other edge of the SCC at most once: `k_max(e)` is
/// at most the SCC's total delay, which bounds the floor from below.
/// The exact `k_max` comes from one Dijkstra per consumer `v`, confined
/// to `v`'s SCC and stopped once the producers of all of `v`'s pending
/// in-edges are settled; it settles all of those edges at once.  No
/// node is searched from twice, and one distance row is reused, so
/// memory stays O(n + m).
fn cheapest_crossing(g: &Csdfg, hop: u64) -> Option<(u64, EdgeId)> {
    let graph = g.graph();
    let n = graph.node_count();
    let mut comp = vec![0usize; n];
    let sccs = tarjan_scc(graph);
    for (c, members) in sccs.iter().enumerate() {
        for v in members {
            comp[v.index()] = c;
        }
    }
    let mut scc_delay = vec![0u64; sccs.len()];
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        if comp[u.index()] == comp[v.index()] {
            let d = &mut scc_delay[comp[u.index()]];
            *d = d.saturating_add(u64::from(g.delay(e)));
        }
    }
    let span = |e: EdgeId| {
        let (u, v) = g.endpoints(e);
        hop * u64::from(g.volume(e)) + u64::from(g.time(u)) + u64::from(g.time(v))
    };
    // ceil(span / (k_max + 1)); unbounded pipelining still leaves at
    // least one control step.
    let floor = |e: EdgeId, k_max: u64| div_ceil(span(e), k_max.saturating_add(1)).max(1);
    let lower_bound = |e: EdgeId| floor(e, scc_delay[comp[g.endpoints(e).1.index()]]);

    // The incumbent `(floor, deps index)`, seeded by the first edge on
    // no cycle (`usize::MAX`: none yet), and the edges inside an SCC in
    // visiting order.
    let mut best = (u64::MAX, usize::MAX);
    let mut candidates: Vec<(u64, usize)> = Vec::new();
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        if u == v {
            continue; // a self edge can never cross PEs
        }
        if comp[u.index()] != comp[v.index()] {
            best = best.min((1, e.index()));
        } else {
            candidates.push((lower_bound(e), e.index()));
        }
    }
    candidates.sort_unstable();

    let mut searched = vec![false; n];
    let mut dist = vec![u64::MAX; n];
    let mut wanted = vec![false; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut pending: Vec<EdgeId> = Vec::new();
    let mut heap = std::collections::BinaryHeap::new();
    for &(lb, ix) in &candidates {
        if (lb, ix) >= best {
            break; // sorted: no later candidate can beat it either
        }
        let (_, v) = g.endpoints(EdgeId::from_index(ix));
        if searched[v.index()] {
            continue; // settled with the rest of `v`'s in-edges
        }
        searched[v.index()] = true;
        let c = comp[v.index()];
        pending.clear();
        let mut targets = 0usize;
        for e in g.in_deps(v) {
            let u = g.endpoints(e).0;
            if u != v && comp[u.index()] == c && (lower_bound(e), e.index()) < best {
                pending.push(e);
                if !wanted[u.index()] {
                    wanted[u.index()] = true;
                    targets += 1;
                }
            }
        }
        // Every producer is in `v`'s SCC, so the search settles them all.
        dist[v.index()] = 0;
        touched.push(v);
        heap.push(std::cmp::Reverse((0u64, v)));
        while let Some(std::cmp::Reverse((dx, x))) = heap.pop() {
            if dx > dist[x.index()] {
                continue;
            }
            if wanted[x.index()] {
                wanted[x.index()] = false;
                targets -= 1;
                if targets == 0 {
                    break;
                }
            }
            for e in graph.out_edges(x) {
                let y = graph.edge_target(e);
                let cand = dx.saturating_add(u64::from(g.delay(e)));
                if comp[y.index()] == c && cand < dist[y.index()] {
                    if dist[y.index()] == u64::MAX {
                        touched.push(y);
                    }
                    dist[y.index()] = cand;
                    heap.push(std::cmp::Reverse((cand, y)));
                }
            }
        }
        for &e in &pending {
            let u = g.endpoints(e).0;
            let k_max = u64::from(g.delay(e)).saturating_add(dist[u.index()]);
            best = best.min((floor(e, k_max), e.index()));
        }
        for x in touched.drain(..) {
            dist[x.index()] = u64::MAX;
        }
        heap.clear();
    }
    (best.1 != usize::MAX).then(|| (best.0, EdgeId::from_index(best.1)))
}

/// Bound (d): the communication-aware serialization/crossing floor.
///
/// A schedule occupies some number `p` of PEs.  For each feasible `p`
/// it must pay `ceil(W/p)` (compute packing), and as soon as `p`
/// exceeds the graph's weak component count some component is split,
/// so some edge crosses PEs and its producer/consumer chain plus the
/// minimum possible `hops · volume` transfer must fit — diluted by the
/// most delays any retiming can place on that edge.  The bound is the
/// minimum over `p` of the worst of the two terms, so it can prove
/// "parallelism cannot pay for its communication" without ever
/// overcharging a serial schedule.  `crossing` finds the cheapest
/// crossing edge ([`cheapest_crossing`]; tests pass the all-pairs
/// oracle).
fn communication_bound(
    g: &Csdfg,
    m: &Machine,
    crossing: fn(&Csdfg, u64) -> Option<(u64, EdgeId)>,
) -> Option<Certificate> {
    let n = g.task_count();
    if n == 0 {
        return None;
    }
    let w = g.total_time();
    let p_max = m.num_pes().min(n).max(1);
    let components = weak_components(g);

    // Cheapest possible hop distance between two *distinct* PEs that
    // can talk at all; `None` when no such pair exists, on a machine
    // without links (then any crossing is illegal and every split is
    // infeasible).
    let min_hop: Option<u64> = (!m.links().is_empty()).then(|| u64::from(m.min_hop()));

    // Cheapest crossing floor over all non-self edges, with each
    // edge's delay maximized over legal retimings.
    let cross = min_hop.and_then(|hop| crossing(g, hop));

    let mut best: Option<(u64, usize, u64, u64, Option<EdgeId>)> = None;
    for p in 1..=p_max {
        let compute = div_ceil(w, p as u64);
        let (value, comm, edge) = if p <= components {
            (compute, 0, None)
        } else {
            match cross {
                // Splitting a component is impossible (no reachable PE
                // pair, or no candidate edge): the branch is infeasible.
                None => continue,
                Some((floor, e)) => (compute.max(floor), floor, Some(e)),
            }
        };
        if best.map(|(b, ..)| value < b).unwrap_or(true) {
            best = Some((value, p, compute, comm, edge));
        }
    }
    let (value, pes_used, compute_floor, comm_floor, edge) = best?;
    let edge_names = edge.map(|e| {
        let (u, v) = g.endpoints(e);
        (g.name(u).to_string(), g.name(v).to_string())
    });
    let route = match (edge, min_hop) {
        (Some(_), Some(hop)) => {
            // A hop-optimal route witnessing `min_hop`: the first pair
            // in row-major order at that distance, on the machine's own
            // route, the one the traffic ledger charges.  The search
            // stops at the first PE with such a partner.
            let at_min = |a: Pe, b: Pe| a != b && m.try_distance(a, b).map(u64::from) == Some(hop);
            m.pes()
                .find_map(|a| m.pes().find(|&b| at_min(a, b)).map(|b| (a, b)))
                .map(|(a, b)| m.route(a, b).iter().map(|p| p.0).collect())
                .unwrap_or_default()
        }
        _ => Vec::new(),
    };
    Some(Certificate {
        kind: BoundKind::Communication,
        value,
        witness: Witness::Cut {
            pes_used,
            compute_floor,
            comm_floor,
            edge: edge_names,
            route,
        },
    })
}

/// Computes the full bound family for `(g, m)`.
///
/// # Panics
///
/// Panics if `g` is illegal (zero-delay cycle) — run `ccs-analyze`
/// first; bounds of an illegal graph are undefined.
pub fn compute_bounds(g: &Csdfg, m: &Machine) -> BoundSet {
    assert!(
        g.check_legal().is_ok(),
        "bounds undefined: graph has a zero-delay cycle"
    );
    // One policy iteration serves both the cycle-ratio bound and the
    // critical-path search's floor.
    let critical = critical_cycle(g);
    let ratio = critical.as_ref().map(|&(ratio, _)| ratio);
    let mut certs = Vec::with_capacity(4);
    certs.extend(cycle_ratio_bound(g, critical));
    certs.extend(resource_bound(g, m));
    certs.extend(critical_path_bound(g, ratio));
    certs.extend(communication_bound(g, m, cheapest_crossing));
    BoundSet { certs }
}

/// The certifier's verdict on one schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Achieved period equals the strongest proven bound.
    Optimal,
    /// Achieved period exceeds the strongest bound by the stored gap.
    Gap,
    /// Achieved period is *below* a proven bound: either the bound
    /// proof or the schedule validator is wrong.  Always a bug.
    BoundExceeded,
}

impl Verdict {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Optimal => "optimal",
            Verdict::Gap => "gap",
            Verdict::BoundExceeded => "bound_exceeded",
        }
    }
}

/// The result of comparing an achieved period against the bound family.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimalityReport {
    /// The schedule's achieved iteration period (its length).
    pub period: u32,
    /// Every bound computed for the pair.
    pub bounds: BoundSet,
    /// The comparison verdict.
    pub verdict: Verdict,
    /// `period - best_bound` (0 when optimal or exceeded).
    pub gap: u64,
    /// `gap / best_bound` as a percentage (0 when no bound applies).
    pub gap_pct: f64,
}

impl OptimalityReport {
    /// The strongest certificate the period was compared against.
    pub fn best(&self) -> Option<&Certificate> {
        self.bounds.best()
    }

    /// Human rendering: one line per bound, then the verdict.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "optimality certificate (period {}):", self.period);
        for c in self.bounds.certificates() {
            let bind = if self.bounds.best().map(|b| std::ptr::eq(b, c)) == Some(true) {
                "  <- binding"
            } else {
                ""
            };
            let _ = writeln!(out, "  {:>14}: >= {}{}", c.kind.name(), c.value, bind);
            let detail = match &c.witness {
                Witness::Cycle { nodes, ratio } => {
                    format!("cycle {} (T/D = {ratio})", nodes.join(" -> "))
                }
                Witness::Resource {
                    total_compute,
                    usable_pes,
                    shared_pair,
                    ..
                } => match shared_pair {
                    Some((a, b)) => {
                        format!("W = {total_compute} over {usable_pes} PEs; {a}+{b} share a PE")
                    }
                    None => format!("W = {total_compute} over {usable_pes} PEs"),
                },
                Witness::Chain { nodes, .. } => {
                    format!("chain {} (after optimal retiming)", nodes.join(" -> "))
                }
                Witness::Cut {
                    pes_used,
                    compute_floor,
                    comm_floor,
                    edge,
                    ..
                } => match edge {
                    Some((a, b)) => format!(
                        "best split uses {pes_used} PEs: compute {compute_floor}, \
                         crossing {a} -> {b} costs {comm_floor}"
                    ),
                    None => format!("best split uses {pes_used} PEs: compute {compute_floor}"),
                },
            };
            let _ = writeln!(out, "                  {detail}");
        }
        match self.verdict {
            Verdict::Optimal => {
                let _ = writeln!(out, "  verdict: PROVABLY OPTIMAL (gap 0)");
            }
            Verdict::Gap => {
                let _ = writeln!(
                    out,
                    "  verdict: within {} steps of the strongest bound (gap {:.1}%)",
                    self.gap, self.gap_pct
                );
            }
            Verdict::BoundExceeded => {
                let _ = writeln!(
                    out,
                    "  verdict: INTERNAL BUG — period {} beats a proven bound {}",
                    self.period,
                    self.bounds.best_value()
                );
            }
        }
        out
    }

    /// Pretty-printed deterministic JSON export.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_else(|_| "{}".to_string())
    }
}

impl Serialize for OptimalityReport {
    fn to_value(&self) -> Value {
        let best = self.bounds.best();
        Value::Object(vec![
            ("period".into(), Value::UInt(u64::from(self.period))),
            ("best_bound".into(), Value::UInt(self.bounds.best_value())),
            (
                "best_kind".into(),
                match best {
                    Some(c) => Value::String(c.kind.name().into()),
                    None => Value::Null,
                },
            ),
            ("verdict".into(), Value::String(self.verdict.name().into())),
            ("gap".into(), Value::UInt(self.gap)),
            ("gap_pct".into(), Value::Float(self.gap_pct)),
            ("bounds".into(), self.bounds.to_value()),
        ])
    }
}

/// Certifies an achieved period against the bound family of `(g, m)`.
///
/// `g` must be the *input* graph handed to the scheduler (bounds are
/// proven over all of its legal retimings, so any rotation the
/// scheduler performed is covered).
pub fn certify_period(g: &Csdfg, m: &Machine, period: u32) -> OptimalityReport {
    grade(compute_bounds(g, m), period)
}

/// Grades an achieved period against an already computed bound family,
/// so two schedules of one `(graph, machine)` pair share one
/// [`compute_bounds`].
pub fn grade(bounds: BoundSet, period: u32) -> OptimalityReport {
    let best = bounds.best_value();
    let achieved = u64::from(period);
    let (verdict, gap) = if achieved < best {
        (Verdict::BoundExceeded, 0)
    } else if achieved == best {
        (Verdict::Optimal, 0)
    } else {
        (Verdict::Gap, achieved - best)
    };
    let gap_pct = if best > 0 {
        gap as f64 * 100.0 / best as f64
    } else {
        0.0
    };
    OptimalityReport {
        period,
        bounds,
        verdict,
        gap,
        gap_pct,
    }
}

/// Certifies a schedule: its achieved period is its length.
pub fn certify(g: &Csdfg, m: &Machine, s: &Schedule) -> OptimalityReport {
    certify_period(g, m, s.length())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The all-pairs oracle for [`cheapest_crossing`]: a full n×n
    /// min-delay matrix with one Dijkstra per node, then every non-self
    /// edge in `deps()` order, keeping the first strict minimum.
    fn all_pairs_crossing(g: &Csdfg, hop: u64) -> Option<(u64, EdgeId)> {
        let graph = g.graph();
        let n = graph.node_count();
        let mut dist = vec![vec![u64::MAX; n]; n];
        for src in g.tasks() {
            let d = &mut dist[src.index()];
            d[src.index()] = 0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(std::cmp::Reverse((0u64, src)));
            while let Some(std::cmp::Reverse((du, u))) = heap.pop() {
                if du > d[u.index()] {
                    continue;
                }
                for e in graph.out_edges(u) {
                    let v = graph.edge_target(e);
                    let cand = du.saturating_add(u64::from(g.delay(e)));
                    if cand < d[v.index()] {
                        d[v.index()] = cand;
                        heap.push(std::cmp::Reverse((cand, v)));
                    }
                }
            }
        }
        let mut cross: Option<(u64, EdgeId)> = None;
        for e in g.deps() {
            let (u, v) = g.endpoints(e);
            if u == v {
                continue;
            }
            let span = hop * u64::from(g.volume(e)) + u64::from(g.time(u)) + u64::from(g.time(v));
            let back = dist[v.index()][u.index()];
            let floor = if back == u64::MAX {
                1
            } else {
                div_ceil(span, u64::from(g.delay(e)) + back + 1).max(1)
            };
            if cross.map(|(c, _)| floor < c).unwrap_or(true) {
                cross = Some((floor, e));
            }
        }
        cross
    }

    /// Random legal graphs in blocks: edges that run backward stay
    /// inside their block and carry a delay, so each block holds its own
    /// SCCs, blocks join by forward edges, and zero-delay edges only run
    /// forward.  A third of the graphs get no ring, a third a ring per
    /// block (several SCCs), a third one ring through every task (one
    /// SCC); the rings come first in `deps()` order, so their edges are
    /// searched before a later edge between SCCs can end the scan.
    /// Self edges, and `u32::MAX` delays and volumes, occur.
    fn arb_graph() -> impl Strategy<Value = Csdfg> {
        (2usize..14, 2usize..6, 0usize..3).prop_flat_map(|(n, block, rings)| {
            let times = proptest::collection::vec(1u32..4, n);
            let delay = (0u32..3, 0u32..8).prop_map(|(d, r)| if r == 0 { u32::MAX } else { d });
            let volume = (1u32..30, 0u32..8).prop_map(|(c, r)| if r == 0 { u32::MAX } else { c });
            let edges = proptest::collection::vec((0..n, 0..n, delay, volume), 0..n * 3);
            (times, edges).prop_map(move |(times, edges)| {
                let mut g = Csdfg::new();
                let ids: Vec<_> = times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| g.add_task(format!("v{i}"), t).unwrap())
                    .collect();
                let span = [0, block, n][rings];
                if span > 1 {
                    for ring in ids.chunks(span) {
                        for w in ring.windows(2) {
                            g.add_dep(w[0], w[1], 0, 2).unwrap();
                        }
                        if ring.len() > 1 {
                            g.add_dep(ring[ring.len() - 1], ring[0], 1, 2).unwrap();
                        }
                    }
                }
                for (a, b, d, c) in edges {
                    let (a, b) = if a > b && a / block != b / block {
                        (b, a)
                    } else {
                        (a, b)
                    };
                    let delay = if a < b { d } else { d.max(1) };
                    g.add_dep(ids[a], ids[b], delay, c).unwrap();
                }
                g
            })
        })
    }

    fn arb_machine() -> impl Strategy<Value = Machine> {
        prop_oneof![
            (2usize..6).prop_map(Machine::linear_array),
            (3usize..7).prop_map(Machine::ring),
            (2usize..5).prop_map(Machine::complete),
            Just(Machine::mesh(2, 2)),
            // Every pair 0 hops apart: the crossing floor has no
            // volume term.
            (2usize..5).prop_map(Machine::ideal),
            // One PE, no link: no split, so no crossing term.
            Just(Machine::linear_array(1)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pruned_crossing_search_matches_the_all_pairs_oracle(
            g in arb_graph(),
            m in arb_machine(),
        ) {
            prop_assert_eq!(
                communication_bound(&g, &m, cheapest_crossing),
                communication_bound(&g, &m, all_pairs_crossing)
            );
            for hop in [0, 1, 2, u64::from(u32::MAX)] {
                prop_assert_eq!(cheapest_crossing(&g, hop), all_pairs_crossing(&g, hop));
            }
        }
    }

    #[test]
    fn pruned_crossing_search_matches_the_oracle_on_kernels_and_chains() {
        let mut graphs: Vec<(String, Csdfg)> = ccs_workloads::all_workloads()
            .iter()
            .map(|w| (w.name.to_string(), w.build()))
            .collect();
        for seed in 0..3 {
            graphs.push((
                format!("scc_chain seed {seed}"),
                ccs_workloads::scc_chain(300, seed),
            ));
        }
        for (name, g) in &graphs {
            for hop in [0, 1] {
                assert_eq!(
                    cheapest_crossing(g, hop),
                    all_pairs_crossing(g, hop),
                    "{name} at hop {hop}"
                );
            }
        }
    }

    /// The paper's running example (Figure 1(b) shape): A(1) -> B(2)
    /// -> A with one delay on the back edge.
    fn two_node_loop() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        g
    }

    #[test]
    fn cycle_ratio_certificate_on_loop() {
        let g = two_node_loop();
        let m = Machine::linear_array(2);
        let set = compute_bounds(&g, &m);
        let c = set.get(BoundKind::CycleRatio).unwrap();
        assert_eq!(c.value, 3);
        match &c.witness {
            Witness::Cycle { nodes, ratio } => {
                assert_eq!(nodes.len(), 2);
                assert_eq!(*ratio, Ratio::new(3, 1));
            }
            w => panic!("wrong witness {w:?}"),
        }
    }

    #[test]
    fn resource_bound_counts_usable_pes() {
        // Three independent unit tasks on 8 PEs: only 3 PEs usable.
        let mut g = Csdfg::new();
        for (i, t) in [4u32, 2, 2].iter().enumerate() {
            g.add_task(format!("T{i}"), *t).unwrap();
        }
        let m = Machine::complete(8);
        let c = compute_bounds(&g, &m);
        let r = c.get(BoundKind::Resource).unwrap();
        // ceil(8/3) = 3, but the heaviest task forces 4.
        assert_eq!(r.value, 4);
        match &r.witness {
            Witness::Resource {
                usable_pes,
                heaviest,
                ..
            } => {
                assert_eq!(*usable_pes, 3);
                assert_eq!(heaviest, "T0");
            }
            w => panic!("wrong witness {w:?}"),
        }
    }

    #[test]
    fn resource_pigeonhole_pair_binds() {
        // Three tasks of weight 4 on 2 PEs: two must share -> 8.
        let mut g = Csdfg::new();
        for i in 0..3 {
            g.add_task(format!("T{i}"), 4).unwrap();
        }
        let m = Machine::linear_array(2);
        let r = compute_bounds(&g, &m);
        let c = r.get(BoundKind::Resource).unwrap();
        assert_eq!(c.value, 8);
        match &c.witness {
            Witness::Resource { shared_pair, .. } => {
                assert_eq!(
                    shared_pair.clone().unwrap(),
                    ("T1".to_string(), "T2".to_string())
                );
            }
            w => panic!("wrong witness {w:?}"),
        }
    }

    #[test]
    fn critical_path_bound_is_retiming_aware() {
        // Zero-delay chain A(1)->B(1)->C(1), no cycle: retiming can
        // fully pipeline it, so the bound is 1, not 3.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        let m = Machine::linear_array(4);
        let set = compute_bounds(&g, &m);
        assert_eq!(set.get(BoundKind::CriticalPath).unwrap().value, 1);
    }

    #[test]
    fn communication_bound_never_exceeds_serialization() {
        // Heavy traffic: the comm bound must fall back to the serial
        // schedule's W, never above it (a 1-PE schedule avoids all
        // communication).
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 9).unwrap();
        g.add_dep(b, a, 1, 9).unwrap();
        let m = Machine::linear_array(4);
        let set = compute_bounds(&g, &m);
        let c = set.get(BoundKind::Communication).unwrap();
        assert!(c.value <= g.total_time(), "comm bound {} > W", c.value);
        // Here crossing costs ceil((9+4)/k+1) on every edge, far above
        // ceil(W/2)=2, so serialization wins: bound = W = 4.
        assert_eq!(c.value, 4);
        match &c.witness {
            Witness::Cut { pes_used, .. } => assert_eq!(*pes_used, 1),
            w => panic!("wrong witness {w:?}"),
        }
    }

    /// Four weight-2 tasks in a zero-delay diamond with volume-5 edges.
    fn diamond() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 2).unwrap();
        let d = g.add_task("D", 2).unwrap();
        for (u, v) in [(a, b), (a, c), (b, d), (c, d)] {
            g.add_dep(u, v, 0, 5).unwrap();
        }
        g
    }

    #[test]
    fn communication_bound_charges_forced_crossing() {
        // The diamond on 2 PEs: W=8, so 1 PE costs 8; 2 PEs cost
        // max(ceil(8/2), crossing).  All edges are acyclic (retiming
        // can pipeline them), so the crossing floor collapses to 1 and
        // the compute term 4 wins the p=2 branch.
        let g = diamond();
        let m = Machine::linear_array(2);
        let set = compute_bounds(&g, &m);
        let cut = set.get(BoundKind::Communication).unwrap();
        assert_eq!(cut.value, 4);
    }

    #[test]
    fn communication_witness_routes_the_first_closest_pair() {
        let g = diamond();
        let route = |m: &Machine| match &compute_bounds(&g, m)
            .get(BoundKind::Communication)
            .unwrap()
            .witness
        {
            Witness::Cut { route, .. } => route.clone(),
            w => panic!("wrong witness {w:?}"),
        };
        assert_eq!(route(&Machine::mesh(2, 2)), vec![0, 1]);
        // Every pair is 0 hops apart on the ideal machine.
        assert_eq!(route(&Machine::ideal(3)), vec![0, 1]);
        // pe1 has no links, so the first linked pair is (pe2, pe3); the
        // route needs only that pair's partition to be connected.
        let islands = Machine::from_links("islands", 6, &[(3, 4), (4, 5), (1, 2)]);
        assert_eq!(route(&islands), vec![1, 2]);
    }

    #[test]
    fn certificates_on_complete_and_ideal_machines_list_no_links() {
        // Any two PEs of these machines are linked, so the witness
        // route is the pair itself and the O(PEs²) neighbour lists are
        // never built.
        let g = diamond();
        for m in [Machine::complete(1024), Machine::ideal(64)] {
            let report = certify_period(&g, &m, 4);
            match &report.bounds.get(BoundKind::Communication).unwrap().witness {
                Witness::Cut { route, .. } => assert_eq!(route, &vec![0, 1]),
                w => panic!("wrong witness {w:?}"),
            }
            assert!(!m.has_adjacency(), "{} listed its links", m.name());
        }
    }

    #[test]
    fn communication_bound_respects_retimed_delays() {
        // 2-node cycle with big volume: the crossing floor uses the
        // max retimable delay (1 around the cycle), so each edge
        // floors at ceil((1*6 + 3)/2) = 5 > ceil(W/2) = 2, and the
        // serial branch W = 3 wins.  Bound must be 3, not 5.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 6).unwrap();
        g.add_dep(b, a, 1, 6).unwrap();
        let m = Machine::linear_array(2);
        let set = compute_bounds(&g, &m);
        let c = set.get(BoundKind::Communication).unwrap();
        assert_eq!(c.value, 3);
    }

    #[test]
    fn acyclic_graph_has_no_cycle_certificate() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        let set = compute_bounds(&g, &Machine::linear_array(2));
        assert!(set.get(BoundKind::CycleRatio).is_none());
        assert!(set.get(BoundKind::Resource).is_some());
    }

    #[test]
    fn certify_verdicts() {
        let g = two_node_loop();
        let m = Machine::linear_array(2);
        // Bound family max here is 3 (cycle ratio == W == 3).
        let opt = certify_period(&g, &m, 3);
        assert_eq!(opt.verdict, Verdict::Optimal);
        assert_eq!(opt.gap, 0);
        let gap = certify_period(&g, &m, 4);
        assert_eq!(gap.verdict, Verdict::Gap);
        assert_eq!(gap.gap, 1);
        assert!((gap.gap_pct - 100.0 / 3.0).abs() < 1e-9);
        let bug = certify_period(&g, &m, 2);
        assert_eq!(bug.verdict, Verdict::BoundExceeded);
    }

    #[test]
    fn report_serialization_shape() {
        let g = two_node_loop();
        let m = Machine::linear_array(2);
        let rep = certify_period(&g, &m, 3);
        let v = serde_json::to_value(&rep).unwrap();
        assert_eq!(v["period"].as_u64(), Some(3));
        assert_eq!(v["best_bound"].as_u64(), Some(3));
        assert_eq!(v["verdict"].as_str(), Some("optimal"));
        let bounds = v["bounds"].as_array().unwrap();
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0]["kind"].as_str(), Some("cycle_ratio"));
        // Byte-stable rendering.
        let a = serde_json::to_string_pretty(&rep).unwrap();
        let b = serde_json::to_string_pretty(&certify_period(&g, &m, 3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn human_rendering_names_the_binding_bound() {
        let g = two_node_loop();
        let m = Machine::linear_array(2);
        let rep = certify_period(&g, &m, 3);
        let h = rep.render_human();
        assert!(h.contains("PROVABLY OPTIMAL"), "{h}");
        assert!(h.contains("<- binding"), "{h}");
    }

    #[test]
    fn cheap_floor_is_the_larger_of_cycle_ratio_and_resource() {
        let mut machines = Machine::paper_suite();
        machines.extend([
            Machine::mesh(2, 2),
            Machine::complete(64),
            Machine::hypercube(6),
        ]);
        for w in ccs_workloads::all_workloads() {
            let g = w.build();
            for m in &machines {
                let set = compute_bounds(&g, m);
                let value = |k| set.get(k).map_or(0, |c| c.value);
                let floor = cheap_floor(&g, m);
                assert_eq!(
                    floor,
                    value(BoundKind::CycleRatio).max(value(BoundKind::Resource)),
                    "{} on {}",
                    w.name,
                    m.name()
                );
                assert!(floor <= set.best_value());
            }
        }
        // Acyclic: the resource bound alone, here its pigeonhole pair
        // 3 + 3 over ceil(10 / 2) and the heaviest task 4; no tasks:
        // nothing.
        let mut g = Csdfg::new();
        for (i, t) in [4u32, 3, 3].iter().enumerate() {
            g.add_task(format!("T{i}"), *t).unwrap();
        }
        assert_eq!(cheap_floor(&g, &Machine::linear_array(2)), 6);
        assert_eq!(cheap_floor(&Csdfg::new(), &Machine::linear_array(2)), 0);
    }

    #[test]
    fn empty_graph_is_trivially_optimal() {
        let g = Csdfg::new();
        let m = Machine::linear_array(2);
        let rep = certify_period(&g, &m, 0);
        assert_eq!(rep.verdict, Verdict::Optimal);
        assert!(rep.bounds.certificates().is_empty());
    }
}
