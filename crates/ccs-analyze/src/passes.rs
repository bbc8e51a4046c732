//! Pass A: static analysis of the scheduling *inputs* — CSDFG
//! well-formedness, machine sanity, and graph × machine cross checks —
//! plus the schedule-validity wrapper used by Pass B (the `paranoid`
//! oracle in `ccs-core`) and the `ccsc-check` CLI.

use crate::diag::{codes, Diagnostic, Report, Subject};
use ccs_model::analysis::weak_components;
use ccs_model::spec::CsdfgSpec;
use ccs_model::{Csdfg, ModelError, NodeId};
use ccs_retiming::iteration_bound;
use ccs_schedule::{validate, Schedule, Violation};
use ccs_topology::spec::MAX_TABLE_CELLS;
use ccs_topology::{HopScan, Machine, Pe};
use std::collections::BTreeMap;

/// Runs every Pass A check: [`analyze_graph`], [`analyze_machine`],
/// and [`analyze_cross`], in that order.
pub fn analyze(g: &Csdfg, m: &Machine) -> Report {
    let mut r = analyze_graph(g);
    r.merge(analyze_machine(m));
    r.merge(analyze_cross(g, m));
    r
}

/// CSDFG well-formedness (paper §2): no tasks at all, zero-delay
/// cycles, degenerate times/volumes, zero-delay self-edges, isolated
/// nodes, fragmented graphs, redundant parallel edges.
pub fn analyze_graph(g: &Csdfg) -> Report {
    let mut r = Report::new();
    if g.task_count() == 0 {
        r.push(
            Diagnostic::error(
                codes::EMPTY_GRAPH,
                Subject::Graph,
                "the graph has no tasks: there is no loop body to schedule",
            )
            .with_suggestion("declare at least one task with a `node NAME t=N` line"),
        );
    }

    // Errors first. Zero-delay self-edges are the smallest zero-delay
    // cycles; report them individually before the generic cycle check.
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        if u == v && g.delay(e) == 0 {
            r.push(
                Diagnostic::error(
                    codes::ZERO_DELAY_SELF_EDGE,
                    edge_subject(g, e),
                    "self-edge with d = 0: the task would need its own same-iteration result",
                )
                .with_suggestion("give the self-edge at least one delay (d >= 1)"),
            );
        }
    }
    if let Err(ModelError::ZeroDelayCycle(witness)) = g.check_legal() {
        r.push(
            Diagnostic::error(
                codes::ZERO_DELAY_CYCLE,
                Subject::Node(g.name(witness).to_string()),
                "a directed cycle through this node carries zero total delay: \
                 no iteration can ever start (paper §2 legality)",
            )
            .with_suggestion(
                "every directed cycle needs >= 1 delay; retime or add a loop-carried edge",
            ),
        );
    }
    // t(v) >= 1 and c(e) >= 1 are enforced by the `Csdfg` constructors;
    // re-verified here as defense in depth for graphs that arrive
    // through other channels (deserialization, FFI, future builders).
    for v in g.tasks() {
        if g.time(v) < 1 {
            r.push(Diagnostic::error(
                codes::ZERO_TIME,
                Subject::Node(g.name(v).to_string()),
                "computation time t(v) < 1",
            ));
        }
    }
    for e in g.deps() {
        if g.volume(e) < 1 {
            r.push(Diagnostic::error(
                codes::ZERO_VOLUME,
                edge_subject(g, e),
                "communication volume c(e) < 1",
            ));
        }
    }
    let work = g.total_time();
    if work >= u64::from(u32::MAX) {
        r.push(
            Diagnostic::error(
                codes::TIME_OVERFLOW,
                Subject::Graph,
                format!(
                    "total computation time {work} is not below {}: \
                     control steps would overflow u32",
                    u32::MAX
                ),
            )
            .with_suggestion("scale the task times down by a common factor"),
        );
    }

    // Warnings.
    for v in g.tasks() {
        if g.in_deps(v).next().is_none() && g.out_deps(v).next().is_none() {
            r.push(
                Diagnostic::warning(
                    codes::W_ISOLATED_NODE,
                    Subject::Node(g.name(v).to_string()),
                    "task has no dependencies at all",
                )
                .with_suggestion(
                    "isolated tasks trivially fill idle slots; confirm it is intended",
                ),
            );
        }
    }
    let components = weak_components(g);
    if components > 1 {
        r.push(Diagnostic::warning(
            codes::W_FRAGMENTED_GRAPH,
            Subject::Graph,
            format!("graph splits into {components} weakly-connected components"),
        ));
    }
    // Redundant parallel edges: same endpoints, same delay — only the
    // largest volume can ever be the binding constraint.
    let mut seen: BTreeMap<(NodeId, NodeId, u32), usize> = BTreeMap::new();
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        *seen.entry((u, v, g.delay(e))).or_insert(0) += 1;
    }
    let mut dups: Vec<_> = seen
        .into_iter()
        .filter(|&(_, count)| count > 1)
        .map(|((u, v, d), count)| (g.name(u).to_string(), g.name(v).to_string(), d, count))
        .collect();
    dups.sort();
    for (src, dst, d, count) in dups {
        r.push(
            Diagnostic::warning(
                codes::W_REDUNDANT_EDGE,
                Subject::Edge {
                    src: src.clone(),
                    dst: dst.clone(),
                },
                format!("{count} parallel edges with identical endpoints and delay d = {d}"),
            )
            .with_suggestion("merge them, keeping the largest volume"),
        );
    }
    r
}

/// Side of the square blocks the hop checks compare: a 32×32 block of
/// `u32` hops and its mirror across the diagonal take 8 KiB, so both
/// stay in L1 while the block is scanned when the hops are read from
/// rows.
const HOP_BLOCK: usize = 32;

/// Machine sanity (Definition 3.5): connected topology, well-formed
/// hop tables, non-degenerate parallelism.
pub fn analyze_machine(m: &Machine) -> Report {
    let mut r = Report::new();
    // Connectivity is cached at construction, so a connected machine
    // has no unreachable pair to list.
    if !m.is_connected() {
        for (a, b) in m.unreachable_pairs() {
            r.push(
                Diagnostic::error(
                    codes::MACHINE_DISCONNECTED,
                    Subject::PePair(a.0, b.0),
                    "no path between these PEs: the communication cost M(p_i, p_j) is undefined",
                )
                .with_suggestion("add links until the topology is connected"),
            );
        }
    }
    // Degenerate hops (impossible for the built-in machines; checked
    // as defense in depth), reported row by row.  Every pair goes
    // through the machine's distance function, which fills no hop row.
    for (a, b) in m.scan_hops(DegenerateHops) {
        let (subject, message) = if a == b {
            (Subject::Pe(a.0), "hops(p, p) != 0")
        } else {
            (Subject::PePair(a.0, b.0), "asymmetric hop table")
        };
        r.push(Diagnostic::error(
            codes::HOP_TABLE_DEGENERATE,
            subject,
            message,
        ));
    }
    if m.num_pes() == 1 {
        r.push(Diagnostic::warning(
            codes::W_SINGLE_PE,
            Subject::Machine,
            "single-PE machine: scheduling degenerates to serialization",
        ));
    } else if m.is_connected() && m.diameter() == 0 {
        r.push(Diagnostic::warning(
            codes::W_FREE_COMM,
            Subject::Machine,
            "all hop distances are zero (ideal machine): \
             communication-sensitivity cannot influence the schedule",
        ));
    }
    r
}

/// [`degenerate_hops`] over a machine's distance function.
struct DegenerateHops;

impl HopScan for DegenerateHops {
    type Output = Vec<(Pe, Pe)>;

    fn scan(self, n: usize, hop: impl Fn(usize, usize) -> u32) -> Vec<(Pe, Pe)> {
        degenerate_hops(n, hop)
    }
}

/// The pairs of `n` PEs whose hops `hop(a, b)` break `hops(p, p) = 0`
/// (reported as `(p, p)`) or `hops(a, b) = hops(b, a)` (reported as
/// `(a, b)`, `a < b`), sorted, i.e. in row-by-row order.  The upper
/// triangle is compared against its mirror in [`HOP_BLOCK`]-sized
/// square blocks, so a table's column-stride side of each comparison
/// stays in cache.
fn degenerate_hops(n: usize, hop: impl Fn(usize, usize) -> u32) -> Vec<(Pe, Pe)> {
    let mut bad = Vec::new();
    for a0 in (0..n).step_by(HOP_BLOCK) {
        let a_end = (a0 + HOP_BLOCK).min(n);
        for b0 in (a0..n).step_by(HOP_BLOCK) {
            let b_end = (b0 + HOP_BLOCK).min(n);
            for a in a0..a_end {
                if b0 == a0 && hop(a, a) != 0 {
                    bad.push((Pe::from_index(a), Pe::from_index(a)));
                }
                // Count first: the clean case, every pair of every
                // machine we build, stays a branch-free loop.
                let asymmetric = |&b: &usize| hop(a, b) != hop(b, a);
                let span = b0.max(a + 1)..b_end;
                if span.clone().filter(asymmetric).count() > 0 {
                    let pairs = span.filter(asymmetric);
                    bad.extend(pairs.map(|b| (Pe::from_index(a), Pe::from_index(b))));
                }
            }
        }
    }
    bad.sort_unstable();
    bad
}

/// Graph × machine cross checks: the schedule-table and
/// communication-cost budgets, PSL/iteration-bound lower bounds
/// against single-PE serialization, machine sizing.
pub fn analyze_cross(g: &Csdfg, m: &Machine) -> Report {
    let mut r = Report::new();
    let serial = g.total_time();
    let cells = serial.saturating_mul(u64::try_from(m.num_pes()).unwrap_or(u64::MAX));
    if cells > MAX_TABLE_CELLS {
        r.push(
            Diagnostic::error(
                codes::TABLE_TOO_LARGE,
                Subject::Machine,
                format!(
                    "a schedule table of {serial} steps (Σ t(v)) × {} PEs = {cells} cells \
                     exceeds the budget of {MAX_TABLE_CELLS} cells",
                    m.num_pes()
                ),
            )
            .with_suggestion("scale the task times down by a common factor, or use fewer PEs"),
        );
    }
    // The scheduler and the validator compute every hop × volume cost,
    // each node's per-PE traffic column (the sum of its non-self edges'
    // costs) and end steps plus a cost in u32.  A cost is at most
    // `diameter × c(e)`, and `c(e)` at most the traffic of either
    // endpoint, so below this budget no cost or column overflows, and
    // neither does an end step within `Σ t(v)` plus a cost.
    let heaviest = g
        .tasks()
        .map(|v| (node_traffic(g, v), std::cmp::Reverse(v)))
        .max();
    if let Some((traffic, std::cmp::Reverse(v))) = heaviest {
        let budget = serial + u64::from(m.diameter()) * traffic;
        if budget >= u64::from(u32::MAX) {
            r.push(
                Diagnostic::error(
                    codes::COMM_OVERFLOW,
                    Subject::Node(g.name(v).to_string()),
                    format!(
                        "Σ t(v) ({serial}) + diameter ({}) × the volume of this task's edges ({traffic}) \
                         = {budget} is not below {}: communication costs would overflow u32",
                        m.diameter(),
                        u32::MAX
                    ),
                )
                .with_suggestion(
                    "scale the volumes down by a common factor, or use a machine with a smaller diameter",
                ),
            );
        }
    }
    let tasks = g.task_count();
    if tasks > 0 && m.num_pes() > tasks {
        r.push(Diagnostic::warning(
            codes::W_MORE_PES_THAN_TASKS,
            Subject::Machine,
            format!(
                "{} PEs for {} tasks: at least {} PEs can never be used",
                m.num_pes(),
                tasks,
                m.num_pes() - tasks
            ),
        ));
    }
    // Lower bounds need a legal graph (the iteration bound is undefined
    // — infinite — on zero-delay cycles, which analyze_graph reports).
    if g.task_count() == 0 || g.check_legal().is_err() {
        return r;
    }
    if let Some(bound) = iteration_bound(g) {
        // Any static schedule satisfies L >= ceil(B) (the PSL bound of
        // the critical cycle, Lemma 4.3 with zero communication); a
        // single PE achieves L = total_time.  When the former meets the
        // latter, compaction cannot help.
        if bound.ceil() >= serial && serial > 0 {
            r.push(
                Diagnostic::warning(
                    codes::W_COMPACTION_CANNOT_HELP,
                    Subject::Graph,
                    format!(
                        "iteration bound {bound} already >= single-PE serialization ({serial}): \
                         no multi-PE schedule can be shorter"
                    ),
                )
                .with_suggestion("schedule on one PE, or unfold the loop to expose parallelism"),
            );
        }
    }
    if m.num_pes() > 1 && m.diameter() >= 1 {
        if let Some(e) = g.deps().max_by_key(|&e| g.volume(e)) {
            let heaviest = u64::from(g.volume(e));
            if heaviest >= serial && serial > 0 {
                r.push(
                    Diagnostic::warning(
                        codes::W_COMM_DOMINATES,
                        edge_subject(g, e),
                        format!(
                            "heaviest edge volume ({heaviest}) >= single-PE serialization \
                             ({serial}): moving it even one hop costs more than running \
                             everything on one PE"
                        ),
                    )
                    .with_suggestion("keep this edge's endpoints co-located, or reduce its volume"),
                );
            }
        }
    }
    r
}

/// The summed volume of `v`'s non-self edges, in and out.
fn node_traffic(g: &Csdfg, v: NodeId) -> u64 {
    g.in_deps(v)
        .chain(g.out_deps(v))
        .filter(|&e| {
            let (a, b) = g.endpoints(e);
            a != b
        })
        .map(|e| u64::from(g.volume(e)))
        .sum()
}

/// Spec-level well-formedness: the checks that `CsdfgSpec::build`
/// enforces by erroring out, reported as structured diagnostics
/// instead (so one run reports *all* problems).  When the spec builds
/// cleanly, the graph-level checks of [`analyze_graph`] run too.
pub fn analyze_spec(spec: &CsdfgSpec) -> Report {
    let mut r = Report::new();
    if spec.nodes.is_empty() {
        r.push(Diagnostic::error(
            codes::EMPTY_GRAPH,
            Subject::Graph,
            "the spec has no tasks: there is no loop body to schedule",
        ));
    }
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    for n in &spec.nodes {
        *names.entry(n.name.as_str()).or_insert(0) += 1;
        if n.time < 1 {
            r.push(
                Diagnostic::error(
                    codes::ZERO_TIME,
                    Subject::Node(n.name.clone()),
                    format!("computation time t(v) = {} < 1", n.time),
                )
                .with_suggestion("every task needs at least one control step"),
            );
        }
    }
    for (name, count) in names.iter() {
        if *count > 1 {
            r.push(Diagnostic::error(
                codes::DUPLICATE_TASK,
                Subject::Node((*name).to_string()),
                format!("{count} tasks share this name"),
            ));
        }
    }
    for e in &spec.edges {
        if e.volume < 1 {
            r.push(Diagnostic::error(
                codes::ZERO_VOLUME,
                Subject::Edge {
                    src: e.src.clone(),
                    dst: e.dst.clone(),
                },
                format!("communication volume c(e) = {} < 1", e.volume),
            ));
        }
        for end in [&e.src, &e.dst] {
            if !names.contains_key(end.as_str()) {
                r.push(Diagnostic::error(
                    codes::UNKNOWN_TASK,
                    Subject::Edge {
                        src: e.src.clone(),
                        dst: e.dst.clone(),
                    },
                    format!("edge references unknown task {end:?}"),
                ));
            }
        }
        if e.src == e.dst && e.delay == 0 {
            r.push(Diagnostic::error(
                codes::ZERO_DELAY_SELF_EDGE,
                Subject::Edge {
                    src: e.src.clone(),
                    dst: e.dst.clone(),
                },
                "self-edge with d = 0",
            ));
        }
    }
    if !r.has_errors() {
        match spec.build() {
            Ok(g) => r.merge(analyze_graph(&g)),
            Err(err) => r.push(Diagnostic::error(
                codes::PARSE,
                Subject::Graph,
                format!("spec does not build: {err}"),
            )),
        }
    }
    r
}

/// Pass B entry point: re-validates a schedule through the extended
/// `ccs-schedule` checker and reports each [`Violation`] as a
/// structured diagnostic carrying its stable `CCS02x` code.
pub fn check_schedule(g: &Csdfg, m: &Machine, s: &Schedule) -> Report {
    let mut r = Report::new();
    if let Err(violations) = validate(g, m, s) {
        for v in violations {
            r.push(violation_to_diag(g, &v));
        }
    }
    r
}

/// Maps one checker violation to a diagnostic.
fn violation_to_diag(g: &Csdfg, v: &Violation) -> Diagnostic {
    let subject = match v {
        Violation::Unplaced(n)
        | Violation::BadPe { node: n, .. }
        | Violation::DuplicatePlacement { node: n } => Subject::Node(g.name(*n).to_string()),
        Violation::Precedence { edge, .. }
        | Violation::LengthTooShort { edge, .. }
        | Violation::UnreachablePes { edge, .. } => edge_subject(g, *edge),
        Violation::Overlap { .. } => Subject::Schedule,
    };
    let full = v.to_string();
    // Display prefixes the code in brackets; the structured form
    // carries it separately.
    let message = full
        .strip_prefix(&format!("[{}] ", v.code()))
        .unwrap_or(&full)
        .to_string();
    Diagnostic::error(v.code(), subject, message)
}

/// Subject naming an edge through its endpoint task names.
fn edge_subject(g: &Csdfg, e: ccs_model::EdgeId) -> Subject {
    let (u, v) = g.endpoints(e);
    Subject::Edge {
        src: g.name(u).to_string(),
        dst: g.name(v).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use ccs_model::spec::{EdgeSpec, NodeSpec};
    use ccs_topology::Pe;

    fn two_node_loop() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        g
    }

    #[test]
    fn clean_graph_clean_machine() {
        // Two delays on the back edge: bound = 3/2, strictly below the
        // single-PE serialization of 3, so no futility warning fires.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        let m = Machine::mesh(2, 1);
        let r = analyze(&g, &m);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn a_graph_with_no_tasks_is_ccs009() {
        let r = analyze_graph(&Csdfg::new());
        let codes_seen: Vec<_> = r.errors().map(|d| d.code).collect();
        assert_eq!(codes_seen, [codes::EMPTY_GRAPH]);
        let r = analyze_spec(&CsdfgSpec::default());
        let codes_seen: Vec<_> = r.errors().map(|d| d.code).collect();
        assert_eq!(codes_seen, [codes::EMPTY_GRAPH]);
        // One task is enough.
        let mut g = Csdfg::new();
        g.add_task("A", 1).unwrap();
        assert!(!analyze_graph(&g).has_errors());
    }

    #[test]
    fn zero_delay_cycle_is_ccs001() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        let r = analyze_graph(&g);
        assert!(r.has_errors());
        assert_eq!(r.errors().next().unwrap().code, codes::ZERO_DELAY_CYCLE);
    }

    #[test]
    fn zero_delay_self_edge_is_ccs004() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        g.add_dep(a, a, 0, 1).unwrap();
        let r = analyze_graph(&g);
        let codes_seen: Vec<_> = r.errors().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::ZERO_DELAY_SELF_EDGE));
        assert!(codes_seen.contains(&codes::ZERO_DELAY_CYCLE));
    }

    #[test]
    fn isolated_and_fragmented_warned() {
        let mut g = two_node_loop();
        g.add_task("Lonely", 1).unwrap();
        let r = analyze_graph(&g);
        assert!(!r.has_errors());
        let w: Vec<_> = r.warnings().map(|d| d.code).collect();
        assert!(w.contains(&codes::W_ISOLATED_NODE));
        assert!(w.contains(&codes::W_FRAGMENTED_GRAPH));
    }

    #[test]
    fn redundant_parallel_edges_warned() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(a, b, 0, 3).unwrap(); // same endpoints + delay
        g.add_dep(b, a, 1, 1).unwrap();
        let r = analyze_graph(&g);
        assert!(r.warnings().any(|d| d.code == codes::W_REDUNDANT_EDGE));
    }

    #[test]
    fn disconnected_machine_is_ccs010() {
        let m = Machine::from_links("islands", 4, &[(0, 1), (2, 3)]);
        let r = analyze_machine(&m);
        assert_eq!(r.errors().count(), 4); // 4 unreachable pairs
        assert!(r.errors().all(|d| d.code == codes::MACHINE_DISCONNECTED));
    }

    #[test]
    fn blocked_hop_checks_report_row_by_row() {
        // 70 PEs span three blocks per side; corrupt entries on the
        // diagonal, inside a block and across block boundaries, on
        // both sides of the diagonal.
        let n: usize = 70;
        let mut table: Vec<Vec<u32>> = (0..n)
            .map(|a| (0..n).map(|b| a.abs_diff(b) as u32).collect())
            .collect();
        for (a, b) in [
            (5, 5),
            (3, 40),
            (69, 2),
            (33, 33),
            (31, 32),
            (64, 65),
            (40, 3),
        ] {
            table[a][b] += 7;
        }
        table[2][3] = u32::MAX;
        // The unblocked row-by-row scan `analyze_machine` replaced.
        let want: Vec<(Pe, Pe)> = (0..n)
            .flat_map(|a| (a..n).map(move |b| (a, b)))
            .filter(|&(a, b)| {
                if a == b {
                    table[a][a] != 0
                } else {
                    table[a][b] != table[b][a]
                }
            })
            .map(|(a, b)| (Pe::from_index(a), Pe::from_index(b)))
            .collect();
        assert_eq!(want.len(), 6); // (3, 40) and (40, 3) cancel out
        assert_eq!(degenerate_hops(n, |a, b| table[a][b]), want);
        let m = Machine::mesh(8, 9);
        let hop = |a, b| m.distance(Pe::from_index(a), Pe::from_index(b));
        assert!(degenerate_hops(m.num_pes(), hop).is_empty());
        assert!(analyze_machine(&m).diagnostics().is_empty());
        assert!(m.filled_rows().is_empty(), "CCS011 filled a hop row");
    }

    #[test]
    fn ideal_and_single_pe_machines_warned() {
        let r = analyze_machine(&Machine::ideal(4));
        assert!(!r.has_errors());
        assert!(r.warnings().any(|d| d.code == codes::W_FREE_COMM));
        let r = analyze_machine(&Machine::complete(1));
        assert!(r.warnings().any(|d| d.code == codes::W_SINGLE_PE));
    }

    #[test]
    fn oversized_machine_warned() {
        let g = two_node_loop();
        let r = analyze_cross(&g, &Machine::complete(5));
        assert!(r.warnings().any(|d| d.code == codes::W_MORE_PES_THAN_TASKS));
    }

    #[test]
    fn schedule_tables_past_the_cell_budget_are_ccs008() {
        let pair = |ta: u32, tb: u32| {
            let mut g = Csdfg::new();
            let a = g.add_task("A", ta).unwrap();
            let b = g.add_task("B", tb).unwrap();
            g.add_dep(a, b, 0, 1).unwrap();
            g.add_dep(b, a, 2, 1).unwrap();
            g
        };
        let too_large = |g: &Csdfg, spec: &str| {
            let m = ccs_topology::parse_spec(spec).unwrap();
            analyze_cross(g, &m)
                .errors()
                .any(|d| d.code == codes::TABLE_TOO_LARGE)
        };
        // Below CCS007's u32 limit, yet 32 GB of table on four PEs.
        assert!(too_large(&pair(4_000_000_000, 1), "ring:4"));
        assert!(too_large(&pair(1_000_000, 1_000_000), "mesh:8x8"));
        // The budget itself is admitted, one step past it is not.
        let at = u32::try_from(MAX_TABLE_CELLS / 64).unwrap();
        assert!(!too_large(&pair(at - 1, 1), "mesh:8x8"));
        assert!(too_large(&pair(at, 1), "mesh:8x8"));
        // Every catalogue kernel on the paper machines and the largest
        // observed ones, and the benchmark's biggest random shapes.
        let mut machines = Machine::paper_suite();
        for spec in ["mesh:4x4", "complete:64", "hypercube:6", "mesh:32x32"] {
            machines.push(ccs_topology::parse_spec(spec).unwrap());
        }
        for w in ccs_workloads::all_workloads() {
            let g = w.build();
            for m in &machines {
                let r = analyze_cross(&g, m);
                assert!(!r.has_errors(), "{} on {}", w.name, m.name());
            }
        }
        for (nodes, spec) in [(96, "mesh:32x32"), (218, "mesh:8x8"), (218, "complete:64")] {
            let config = ccs_workloads::random::RandomGraphConfig {
                nodes,
                back_edges: nodes / 3,
                ..Default::default()
            };
            let g = ccs_workloads::random::random_csdfg(config, 1);
            assert!(!too_large(&g, spec), "{nodes} nodes on {spec}");
        }
    }

    #[test]
    fn communication_costs_past_u32_are_ccs012() {
        // A feeds B, C, D and E over edges of volume `c`, which feed F,
        // which feeds A back over one delay.
        let fan = |c: u32| {
            let mut g = Csdfg::new();
            let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
                .iter()
                .map(|n| g.add_task(*n, 1).unwrap())
                .collect();
            for &mid in &ids[1..5] {
                g.add_dep(ids[0], mid, 0, c).unwrap();
                g.add_dep(mid, ids[5], 0, 1).unwrap();
            }
            g.add_dep(ids[5], ids[0], 1, 1).unwrap();
            g
        };
        let overflows = |g: &Csdfg, spec: &str| {
            let m = ccs_topology::parse_spec(spec).unwrap();
            let r = analyze_cross(g, &m);
            let hits: Vec<_> = r
                .errors()
                .filter(|d| d.code == codes::COMM_OVERFLOW)
                .collect();
            assert!(hits.len() <= 1, "{spec}: {hits:?}");
            hits.first()
                .map(|d| assert_eq!(d.subject, Subject::Node("A".into()), "{spec}"))
                .is_some()
        };
        // Two hops × 2^31 wraps to 0 in a release build, which placed
        // B, D and E two hops from A for free.
        assert!(overflows(&fan(1 << 31), "mesh:4x4"));
        assert!(overflows(&fan((1 << 31) - 1), "mesh:4x4"));
        // No PE pair is a hop apart on one PE.
        assert!(!overflows(&fan(1 << 31), "complete:1"));
        // One edge of volume u32::MAX one hop long.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, u32::MAX).unwrap();
        assert!(overflows(&g, "linear:2"));
        assert!(!overflows(&g, "linear:1"));
        // The budget itself: Σ t = 2 plus one hop × (u32::MAX - 3)
        // sums to u32::MAX - 1, which is admitted; one more unit of
        // volume at A reaches u32::MAX.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, u32::MAX - 3).unwrap();
        assert!(!overflows(&g, "linear:2"));
        g.add_dep(b, a, 1, 1).unwrap();
        assert!(overflows(&g, "linear:2"));
        // Self edges cost nothing wherever they land.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        g.add_dep(a, a, 1, u32::MAX).unwrap();
        assert!(!overflows(&g, "linear:2"));
    }

    #[test]
    fn compaction_cannot_help_when_bound_meets_serialization() {
        // One cycle A->B->A with 1 delay: B = (1+2)/1 = 3 = total time.
        let g = two_node_loop();
        let r = analyze_cross(&g, &Machine::mesh(2, 1));
        assert!(r
            .warnings()
            .any(|d| d.code == codes::W_COMPACTION_CANNOT_HELP));
    }

    #[test]
    fn heavy_edge_dominating_serialization_warned() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 50).unwrap(); // volume 50 >> serial 2
        g.add_dep(b, a, 5, 1).unwrap(); // big delay: bound stays small
        let r = analyze_cross(&g, &Machine::linear_array(4));
        assert!(r.warnings().any(|d| d.code == codes::W_COMM_DOMINATES));
    }

    #[test]
    fn spec_level_reports_everything_at_once() {
        let spec = CsdfgSpec {
            nodes: vec![
                NodeSpec {
                    name: "A".into(),
                    time: 0,
                },
                NodeSpec {
                    name: "A".into(),
                    time: 1,
                },
            ],
            edges: vec![
                EdgeSpec {
                    src: "A".into(),
                    dst: "Z".into(),
                    delay: 0,
                    volume: 0,
                },
                EdgeSpec {
                    src: "A".into(),
                    dst: "A".into(),
                    delay: 0,
                    volume: 1,
                },
            ],
        };
        let r = analyze_spec(&spec);
        let seen: Vec<_> = r.errors().map(|d| d.code).collect();
        for expected in [
            codes::ZERO_TIME,
            codes::DUPLICATE_TASK,
            codes::ZERO_VOLUME,
            codes::UNKNOWN_TASK,
            codes::ZERO_DELAY_SELF_EDGE,
        ] {
            assert!(seen.contains(&expected), "missing {expected}: {seen:?}");
        }
    }

    #[test]
    fn clean_spec_falls_through_to_graph_checks() {
        let spec = CsdfgSpec {
            nodes: vec![
                NodeSpec {
                    name: "A".into(),
                    time: 1,
                },
                NodeSpec {
                    name: "B".into(),
                    time: 1,
                },
            ],
            edges: vec![
                EdgeSpec {
                    src: "A".into(),
                    dst: "B".into(),
                    delay: 0,
                    volume: 1,
                },
                EdgeSpec {
                    src: "B".into(),
                    dst: "A".into(),
                    delay: 0,
                    volume: 1,
                },
            ],
        };
        let r = analyze_spec(&spec);
        assert!(r.errors().any(|d| d.code == codes::ZERO_DELAY_CYCLE));
    }

    #[test]
    fn schedule_diagnostics_carry_checker_codes() {
        let g = two_node_loop();
        let m = Machine::linear_array(2);
        let mut s = Schedule::new(4);
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(3), 2, 2).unwrap(); // nonexistent PE on this machine
        let r = check_schedule(&g, &m, &s);
        assert!(r.has_errors());
        let d = r.errors().next().unwrap();
        assert_eq!(d.code, "CCS024");
        assert_eq!(d.severity, Severity::Error);
        assert!(matches!(&d.subject, Subject::Node(n) if n == "B"));
        assert!(!d.message.starts_with('['), "code stripped from message");
    }

    #[test]
    fn valid_schedule_clean() {
        let g = two_node_loop();
        let m = Machine::linear_array(2);
        let mut s = Schedule::new(2);
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(0), 2, 2).unwrap();
        assert!(check_schedule(&g, &m, &s).is_clean());
    }
}
