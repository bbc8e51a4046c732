//! An exact scheduler for small instances (extension).
//!
//! Exhaustive branch-and-bound over `(processor, control step)`
//! assignments: for a candidate static length `L` (searched upward
//! from the iteration-bound/work/weight lower bounds), tasks are
//! placed in zero-delay topological order subject to the same
//! precedence, communication, and `PSL` rules the heuristic uses.  The
//! first feasible `L` is optimal *for this constraint system*, which
//! lets the experiments measure how far cyclo-compaction is from the
//! true optimum on graphs small enough to enumerate.
//!
//! Intended for graphs of ≲ 8 tasks on machines of ≲ 4 PEs; the
//! `max_states` budget cuts the search off deterministically.

use ccs_model::{timing, Csdfg, NodeId};
use ccs_retiming::iteration_bound;
use ccs_schedule::{required_length, validate, Schedule};
use ccs_topology::Machine;

/// Outcome of [`optimal_schedule`].
#[derive(Clone, Debug)]
pub enum OptimalOutcome {
    /// Search completed: this is a provably minimum-length schedule
    /// (under the library's timing rules, without retiming).
    Proven(Schedule),
    /// The state budget ran out first.  The search runs upward from
    /// the lower bounds and stops at the first feasible length, so it
    /// holds no schedule then — only `floor`, the smallest length not
    /// yet refuted: every shorter one was proven infeasible.
    BudgetExhausted {
        /// Smallest length not yet refuted; the optimum is at least this.
        floor: u32,
    },
}

impl OptimalOutcome {
    /// The proven-optimal schedule; `None` when the budget ran out.
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            OptimalOutcome::Proven(s) => Some(s),
            OptimalOutcome::BudgetExhausted { .. } => None,
        }
    }

    /// `true` when the result is proven optimal.
    pub fn is_proven(&self) -> bool {
        matches!(self, OptimalOutcome::Proven(_))
    }
}

/// Finds a minimum-length static schedule of `g` on `machine` by
/// exhaustive search (no retiming: the graph is scheduled as given,
/// like the start-up scheduler but optimally).
///
/// `max_states` bounds the number of placement attempts across the
/// whole search.
///
/// # Panics
///
/// Panics if `g` is illegal.
pub fn optimal_schedule(g: &Csdfg, machine: &Machine, max_states: u64) -> OptimalOutcome {
    // INVARIANT: documented contract — this function panics on illegal
    // graphs (see the doc comment above).
    g.check_legal().expect("legal CSDFG");
    // INVARIANT: check_legal above proved the zero-delay view acyclic.
    let order = g.zero_delay_topo().expect("legal graph");
    let total: u64 = g.total_time();
    let pes = machine.num_pes() as u64;
    // INVARIANT: timing analysis only fails on zero-delay cycles,
    // excluded by check_legal above.
    let t = timing::analyze(g).expect("legal graph");
    let lb_work = total.div_ceil(pes);
    let lb_bound = iteration_bound(g).map(|b| b.ceil()).unwrap_or(0);
    let lb_node = g.tasks().map(|v| u64::from(g.time(v))).max().unwrap_or(1);
    let mut lower = lb_work.max(lb_bound).max(lb_node).max(1) as u32;
    // A safe upper limit: the critical path plus the serialized rest
    // always admits a one-PE schedule.
    // Saturate instead of panicking on absurd totals; a u32::MAX upper
    // bound just means the search runs until the state budget is spent.
    let upper = u32::try_from(total)
        .unwrap_or(u32::MAX)
        .saturating_add(t.critical_path);

    let mut budget = max_states;
    while lower <= upper {
        let mut table = Schedule::new(machine.num_pes());
        match place(g, machine, order, 0, lower, &mut table, &mut budget) {
            SearchResult::Found => {
                table.pad_to(lower);
                debug_assert!(validate(g, machine, &table).is_ok());
                return OptimalOutcome::Proven(table);
            }
            SearchResult::Infeasible => lower += 1,
            SearchResult::OutOfBudget => break,
        }
    }
    OptimalOutcome::BudgetExhausted { floor: lower }
}

enum SearchResult {
    Found,
    Infeasible,
    OutOfBudget,
}

fn place(
    g: &Csdfg,
    machine: &Machine,
    order: &[NodeId],
    depth: usize,
    target: u32,
    table: &mut Schedule,
    budget: &mut u64,
) -> SearchResult {
    if depth == order.len() {
        // All placed: the PSL requirements must fit in `target`.
        return if required_length(g, machine, table) <= target {
            SearchResult::Found
        } else {
            SearchResult::Infeasible
        };
    }
    let v = order[depth];
    let duration = g.time(v);
    for pe in machine.pes() {
        // Earliest start from placed predecessors (zero-delay edges are
        // strict; delayed edges lower-bound via PSL <= target).
        let mut lb: i64 = 1;
        let mut dead = false;
        for e in g.in_deps(v) {
            let (u, _) = g.endpoints(e);
            if u == v {
                continue;
            }
            let (Some(ce_u), Some(pu)) = (table.ce(u), table.pe(u)) else {
                continue;
            };
            let m = i64::from(machine.comm_cost(pu, pe, g.volume(e)));
            let k = i64::from(g.delay(e));
            lb = lb.max(m + i64::from(ce_u) + 1 - k * i64::from(target));
        }
        // Upper bound on CE from placed successors' PSL constraints.
        let mut ub: i64 = i64::from(target);
        for e in g.out_deps(v) {
            let (_, w) = g.endpoints(e);
            if w == v {
                continue;
            }
            let (Some(cb_w), Some(pw)) = (table.cb(w), table.pe(w)) else {
                continue;
            };
            let m = i64::from(machine.comm_cost(pe, pw, g.volume(e)));
            let k = i64::from(g.delay(e));
            ub = ub.min(k * i64::from(target) + i64::from(cb_w) - m - 1);
        }
        if lb > ub {
            dead = true;
        }
        if dead {
            continue;
        }
        // INVARIANT: lb <= ub <= target here (checked above), and
        // target is a u32, so the clamped value always fits.
        let mut cs = u32::try_from(lb.max(1)).expect("positive");
        loop {
            cs = table.earliest_free(pe, cs, duration);
            if i64::from(cs) + i64::from(duration) - 1 > ub {
                break;
            }
            if *budget == 0 {
                return SearchResult::OutOfBudget;
            }
            *budget -= 1;
            table
                .place(v, pe, cs, duration)
                // INVARIANT: cs came from earliest_free(pe, ..) just
                // above, so the interval is free by construction.
                .expect("slot free by construction");
            match place(g, machine, order, depth + 1, target, table, budget) {
                SearchResult::Found => return SearchResult::Found,
                SearchResult::OutOfBudget => {
                    table.remove(v);
                    return SearchResult::OutOfBudget;
                }
                SearchResult::Infeasible => {
                    table.remove(v);
                }
            }
            cs += 1;
        }
    }
    SearchResult::Infeasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{cyclo_compact, CompactConfig};

    fn tiny_loop() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 2, 1).unwrap();
        g
    }

    #[test]
    fn finds_the_obvious_optimum() {
        // Chain of total work 4 on one PE: optimal length is 4.
        let g = tiny_loop();
        let m = Machine::complete(1);
        let out = optimal_schedule(&g, &m, 1_000_000);
        assert!(out.is_proven());
        assert_eq!(out.schedule().unwrap().length(), 4);
    }

    #[test]
    fn budget_exhaustion_reports_the_unrefuted_floor() {
        // fig1 on a 2x2 mesh needs far more than three placement
        // attempts: the cut-off holds no schedule, only a floor at
        // least the iteration-bound/work floor the search starts from.
        let (g, _, m) = crate::startup::tests::fig1();
        let out = optimal_schedule(&g, &m, 3);
        let OptimalOutcome::BudgetExhausted { floor } = out else {
            panic!("a 3-state budget cannot finish fig1: {out:?}");
        };
        assert!(out.schedule().is_none() && !out.is_proven());
        let work = g.total_time().div_ceil(m.num_pes() as u64);
        let bound = iteration_bound(&g).map(|b| b.ceil()).unwrap_or(0);
        assert!(u64::from(floor) >= work.max(bound), "floor {floor}");
        // With room to finish, the proven optimum is at least that floor.
        let proven = optimal_schedule(&g, &m, 5_000_000);
        assert!(proven.schedule().expect("proven").length() >= floor);
    }

    #[test]
    fn parallel_pes_cannot_beat_the_chain() {
        // The zero-delay chain A->B->C fixes length >= 4 even with many
        // PEs (communication only hurts).
        let g = tiny_loop();
        let m = Machine::complete(3);
        let out = optimal_schedule(&g, &m, 5_000_000);
        assert!(out.is_proven());
        assert_eq!(out.schedule().unwrap().length(), 4);
    }

    #[test]
    fn independent_tasks_spread() {
        let mut g = Csdfg::new();
        for i in 0..3 {
            let v = g.add_task(format!("T{i}"), 2).unwrap();
            g.add_dep(v, v, 1, 1).unwrap();
        }
        let m = Machine::complete(3);
        let out = optimal_schedule(&g, &m, 1_000_000);
        assert!(out.is_proven());
        assert_eq!(out.schedule().unwrap().length(), 2);
    }

    #[test]
    fn optimal_never_beaten_by_heuristic_without_retiming() {
        // The heuristic *with* retiming may beat the no-retiming
        // optimum, but the start-up schedule alone may not.
        use crate::startup::{startup_schedule, StartupConfig};
        let g = tiny_loop();
        for m in [Machine::linear_array(2), Machine::mesh(2, 2)] {
            let out = optimal_schedule(&g, &m, 5_000_000);
            let opt_len = out.schedule().unwrap().length();
            let heur = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
            assert!(heur.length() >= opt_len, "{}", m.name());
        }
    }

    #[test]
    fn retiming_can_beat_the_no_retiming_optimum() {
        // Cyclo-compaction pipelines across iterations, so its best
        // length may undercut the per-iteration optimum — demonstrate
        // on the tiny loop (bound 4/2 = 2).
        let g = tiny_loop();
        let m = Machine::complete(2);
        let out = optimal_schedule(&g, &m, 5_000_000);
        let opt = out.schedule().unwrap().length();
        let comp = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        assert!(comp.best_length <= opt);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = tiny_loop();
        let m = Machine::complete(3);
        let out = optimal_schedule(&g, &m, 1);
        assert!(!out.is_proven());
        assert!(out.schedule().is_none());
    }

    #[test]
    fn communication_forces_longer_optima_on_sparse_machines() {
        // Producer with two heavy consumers: on a 1-link machine the
        // comm cost makes spreading pointless; optimum equals the
        // serial length. On an ideal machine the optimum drops.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 3).unwrap();
        let c = g.add_task("C", 3).unwrap();
        g.add_dep(a, b, 0, 4).unwrap();
        g.add_dep(a, c, 0, 4).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        let lin = optimal_schedule(&g, &Machine::linear_array(2), 5_000_000);
        let ideal = optimal_schedule(&g, &Machine::ideal(2), 5_000_000);
        let l_lin = lin.schedule().unwrap().length();
        let l_ideal = ideal.schedule().unwrap().length();
        assert!(l_ideal < l_lin, "ideal {l_ideal} !< linear {l_lin}");
        // Ideal: A at cs1, B and C in parallel over cs2-4 => 4 steps
        // (the B->A loop's PSL is exactly 4).
        assert_eq!(l_ideal, 4);
    }
}
