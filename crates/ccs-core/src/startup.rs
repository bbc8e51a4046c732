//! The start-up scheduling algorithm (paper §3.1).
//!
//! A list scheduler over the zero-delay DAG view of the CSDFG that
//! accounts for communication delays when picking both the control step
//! and the processor of each task: a node may begin at control step
//! `cs` on processor `p_j` only if, for every already-scheduled
//! predecessor `u_i`,
//! `CE(u_i) + M(PE(u_i), p_j) < cs`
//! — the paper's `cm < cs` test.  Loop-carried (delayed) edges are
//! ignored during placement and honoured afterwards by padding the
//! table to the projected schedule length.

use crate::priority::{evaluate, Priority};
use crate::remap::nid;
use crate::rings::{RingSearch, Rings};
use ccs_model::{timing, Csdfg, ModelError, NodeId};
use ccs_schedule::{required_length, Schedule};
use ccs_topology::{Machine, Pe};
use ccs_trace::{Event, Off, Probe, StartupPlace, Tls};

/// Start-up scheduler options.
#[derive(Clone, Copy, Debug, Default)]
pub struct StartupConfig {
    /// Ready-list ordering policy (the paper's `PF` by default).
    pub priority: Priority,
    /// When `true`, processor selection pretends all communication is
    /// free (`M = 0`) — the communication-oblivious ablation baseline.
    /// The *returned* schedule is still made valid for the real machine
    /// by delaying starts and padding as needed.
    pub ignore_communication: bool,
}

/// Runs start-up scheduling of `g` onto `machine`.
///
/// Returns a schedule that satisfies every intra-iteration precedence
/// (with communication) and whose length covers every loop-carried
/// edge's projected schedule length.
///
/// # Errors
///
/// Returns an error if `g` is illegal (zero-delay cycle).
pub fn startup_schedule(
    g: &Csdfg,
    machine: &Machine,
    config: StartupConfig,
) -> Result<Schedule, ModelError> {
    // One dispatch per call: the `Off` probe compiles every
    // instrumentation site below away.
    if ccs_trace::installed() {
        startup_probed(g, machine, config, &mut Tls)
    } else {
        startup_probed(g, machine, config, &mut Off)
    }
}

/// [`startup_schedule`] instrumented against probe `P`.
pub(crate) fn startup_probed<P: Probe>(
    g: &Csdfg,
    machine: &Machine,
    config: StartupConfig,
    probe: &mut P,
) -> Result<Schedule, ModelError> {
    g.check_legal()?;
    // Connectivity is a construction-time property (cached, O(1)) that
    // `CCS010` checks before scheduling; the slot search walks links.
    debug_assert!(
        machine.is_connected(),
        "cannot schedule on disconnected machine {}",
        machine.name()
    );
    // INVARIANT: check_legal above proved the zero-delay view acyclic,
    // the only failure mode of the timing analysis.
    let timing = timing::analyze(g).expect("legal graph has acyclic zero-delay view");
    let mut sched = Schedule::new(machine.num_pes());
    let mut rings = Rings::default();
    if P::ACTIVE {
        probe.emit(Event::StartupBegin {
            tasks: u32::try_from(g.task_count()).unwrap_or(u32::MAX),
            pes: u32::try_from(machine.num_pes()).unwrap_or(u32::MAX),
        });
    }

    let bound = g.task_count();
    // Remaining zero-delay in-degree per node.
    let mut pending = vec![0usize; bound];
    for v in g.tasks() {
        pending[v.index()] = g.intra_iter_in_deps(v).count();
    }
    let mut ready: Vec<NodeId> = g.tasks().filter(|v| pending[v.index()] == 0).collect();
    let mut unscheduled = g.task_count();
    let mut cs: u32 = 1;

    while unscheduled > 0 {
        // Arrange(list): sort by descending priority, ties by node id
        // (FIFO keeps insertion order, which for a Vec sorted stably by
        // a constant key is the same thing).
        ready.sort_by_key(|&v| {
            (
                -evaluate(config.priority, g, &timing, &sched, v, cs),
                v.index(),
            )
        });
        if P::ACTIVE {
            // Re-evaluate the priorities only on the traced path; the
            // sort key above is not retained.
            for (rank, &v) in ready.iter().enumerate() {
                probe.emit(Event::ReadyPick {
                    cs,
                    rank: u32::try_from(rank).unwrap_or(u32::MAX),
                    node: nid(v),
                    priority: evaluate(config.priority, g, &timing, &sched, v, cs),
                });
            }
        }

        let mut deferred: Vec<NodeId> = Vec::new();
        let mut newly_ready: Vec<NodeId> = Vec::new();
        for &node in &ready {
            let ignore = config.ignore_communication;
            match best_slot_at(g, machine, &sched, &mut rings, node, cs, ignore) {
                Some(pe) => {
                    sched
                        .place(node, pe, cs, g.time(node))
                        // INVARIANT: best_slot_at only returns PEs it
                        // verified free at `cs` for the full duration.
                        .expect("best_slot_at returned a free processor");
                    if P::ACTIVE {
                        probe.emit(Event::StartupPlace(StartupPlace {
                            node: nid(node),
                            pe: pe.0,
                            cs,
                            duration: g.time(node),
                        }));
                    }
                    unscheduled -= 1;
                    for e in g.intra_iter_out_deps(node) {
                        let (_, w) = g.endpoints(e);
                        pending[w.index()] -= 1;
                        if pending[w.index()] == 0 {
                            newly_ready.push(w);
                        }
                    }
                }
                None => {
                    if P::ACTIVE {
                        probe.emit(Event::StartupDefer {
                            node: nid(node),
                            cs,
                        });
                    }
                    deferred.push(node);
                }
            }
        }
        ready = deferred;
        ready.extend(newly_ready);
        cs += 1;
    }

    if config.ignore_communication {
        // The placement decisions ignored communication; repair the
        // start times for the real machine before padding.
        sched = legalize(g, machine, &sched);
    }
    let required = required_length(g, machine, &sched);
    if P::ACTIVE && required > sched.length() {
        probe.emit(Event::SlackRepair {
            required,
            occupied: sched.length(),
        });
    }
    sched.pad_to(required);
    // Initial traffic picture: one attribution event per edge under the
    // start-up placement (compiled away for the `Off` probe).
    crate::traffic::emit_edge_traffic(g, machine, &sched, probe);
    if P::ACTIVE {
        probe.emit(Event::StartupEnd {
            length: sched.length(),
        });
    }
    Ok(sched)
}

/// The processor (if any) on which `node` can legally begin at `cs`:
/// free for the node's whole duration and satisfying `cm < cs` for all
/// scheduled predecessors.  Among feasible PEs the one with the
/// smallest `cm` wins, ties to the lowest index (the paper's example
/// picks PE2 over PE4 this way).
///
/// The predecessors' PEs are ranked first, then every other PE ring by
/// ring around them ([`Rings::search`]).
fn best_slot_at(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    rings: &mut Rings,
    node: NodeId,
    cs: u32,
    ignore_comm: bool,
) -> Option<Pe> {
    // Resolve the scheduled predecessors once, outside the PE loop: an
    // unscheduled predecessor defers the node on *every* processor, and
    // `base_cm` (the communication-free part of `cm`) lower-bounds the
    // per-PE value.
    let mut base_cm: u32 = 0;
    let mut preds: Vec<(u32, Pe, &[u32], u32)> = Vec::new();
    for e in g.intra_iter_in_deps(node) {
        let (u, _) = g.endpoints(e);
        let ce_u = sched.ce(u)?; // predecessor not scheduled yet
        base_cm = base_cm.max(ce_u);
        if !ignore_comm {
            // INVARIANT: ce(u) succeeded just above, so u is placed
            // and has a processor.
            let pu = sched.pe(u).expect("placed");
            preds.push((ce_u, pu, machine.dist_row(pu), g.volume(e)));
        }
    }
    if base_cm >= cs {
        return None;
    }
    let mut search = SlotSearch {
        sched,
        duration: g.time(node),
        cs,
        base_cm,
        preds: &preds,
        best: None,
    };
    let sources = preds.iter().map(|&(_, pu, _, _)| pu);
    rings.search(machine, sched, sources, &mut search);
    search.best.map(|(_, pe)| pe)
}

/// Start-up's [`RingSearch`]: `cm` per PE, and its floor by hops.
struct SlotSearch<'a> {
    sched: &'a Schedule,
    duration: u32,
    cs: u32,
    base_cm: u32,
    /// `(CE(u), PE(u), PE(u)'s hop row, c(e))` per scheduled predecessor.
    preds: &'a [(u32, Pe, &'a [u32], u32)],
    /// The smallest `(cm, pe)` so far.
    best: Option<(u32, Pe)>,
}

impl RingSearch for SlotSearch<'_> {
    fn rank(&mut self, pes: &[u32]) {
        for &p in pes {
            let pe = Pe(p);
            if !self.sched.is_free(pe, self.cs, self.duration) {
                continue;
            }
            let cm = self
                .preds
                .iter()
                .map(|&(ce_u, _, row, vol)| ce_u + row[p as usize] * vol)
                .fold(self.base_cm, u32::max);
            if cm < self.cs && self.best.is_none_or(|(bcm, bpe)| (cm, p) < (bcm, bpe.0)) {
                self.best = Some((cm, pe));
            }
        }
    }

    /// At least `hops` hops from every predecessor's PE, a PE's `cm` is
    /// at least `max(base_cm, max_u(CE(u) + hops · c(e)))`, and exactly
    /// that far an empty PE, free at every step, reaches it.  At that
    /// floor no PE left can take the node once it reaches `cs`, and
    /// none can win once it exceeds the best `cm`.
    fn beaten(&self, hops: u32) -> bool {
        let floor = self
            .preds
            .iter()
            .map(|&(ce_u, _, _, vol)| u64::from(ce_u) + u64::from(hops) * u64::from(vol))
            .fold(u64::from(self.base_cm), u64::max);
        floor >= u64::from(self.cs) || self.best.is_some_and(|(bcm, _)| floor > u64::from(bcm))
    }
}

/// Rebuilds start times for the real machine while keeping each task's
/// processor and the per-processor execution order: tasks are replayed
/// in `(CB, PE)` order and started at the earliest step satisfying
/// their communication-aware precedences and processor availability.
pub fn legalize(g: &Csdfg, machine: &Machine, sched: &Schedule) -> Schedule {
    let mut order: Vec<NodeId> = g.tasks().filter(|&v| sched.is_placed(v)).collect();
    // INVARIANT: `order` was filtered to placed nodes one line above.
    order.sort_by_key(|&v| (sched.cb(v).expect("placed"), sched.pe(v).expect("placed")));
    let mut out = Schedule::new(sched.num_pes());
    // Replay in topological-compatible order (original CBs respect the
    // zero-delay DAG, so sorting by CB is a valid replay order).
    for v in order {
        // INVARIANT: `order` only contains placed nodes (see filter).
        let pe = sched.pe(v).expect("placed");
        let mut earliest = 1;
        for e in g.intra_iter_in_deps(v) {
            let (u, _) = g.endpoints(e);
            if let (Some(ce_u), Some(pu)) = (out.ce(u), out.pe(u)) {
                earliest = earliest.max(ce_u + machine.comm_cost(pu, pe, g.volume(e)) + 1);
            }
        }
        let start = out.earliest_free(pe, earliest, g.time(v));
        out.place(v, pe, start, g.time(v))
            // INVARIANT: start came from earliest_free on this PE.
            .expect("searched free slot");
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ccs_schedule::validate;
    use proptest::prelude::*;

    /// The sweep [`best_slot_at`] refines, kept as its oracle: every
    /// free PE in index order, no floor and no early exit.
    fn best_slot_at_by_sweep(
        g: &Csdfg,
        machine: &Machine,
        sched: &Schedule,
        node: NodeId,
        cs: u32,
        ignore_comm: bool,
    ) -> Option<Pe> {
        let duration = g.time(node);
        let mut base_cm: u32 = 0;
        let mut preds: Vec<(u32, Pe, u32)> = Vec::new();
        for e in g.intra_iter_in_deps(node) {
            let (u, _) = g.endpoints(e);
            let ce_u = sched.ce(u)?;
            base_cm = base_cm.max(ce_u);
            if !ignore_comm {
                preds.push((ce_u, sched.pe(u).expect("placed"), g.volume(e)));
            }
        }
        if base_cm >= cs {
            return None;
        }
        let mut best: Option<(u32, Pe)> = None;
        for pe in machine.pes() {
            if !sched.is_free(pe, cs, duration) {
                continue;
            }
            let mut cm: u32 = base_cm;
            for &(ce_u, pu, vol) in &preds {
                cm = cm.max(ce_u + machine.dist_row(pu)[pe.index()] * vol);
            }
            if cm >= cs {
                continue;
            }
            if best.is_none_or(|(bcm, _)| cm < bcm) {
                best = Some((cm, pe));
            }
        }
        best.map(|(_, pe)| pe)
    }

    /// Machines of every hop model and of up to 64 PEs, `min_hop` 0
    /// included: the ideal machine and one PE.
    pub(crate) fn arb_machine() -> impl Strategy<Value = Machine> {
        prop_oneof![
            (1usize..6).prop_map(Machine::ideal),
            (1usize..10).prop_map(Machine::complete),
            (2usize..12).prop_map(Machine::linear_array),
            (3usize..12).prop_map(Machine::ring),
            ((1usize..9), (1usize..9)).prop_map(|(r, c)| Machine::mesh(r, c)),
            ((1usize..6), (1usize..6)).prop_map(|(r, c)| Machine::torus(r, c)),
            (0u32..7).prop_map(Machine::hypercube),
            (2usize..33).prop_map(Machine::star),
            (2usize..32).prop_map(Machine::binary_tree),
            ((2usize..41), (0u32..4))
                .prop_map(|(n, s)| ccs_topology::random_machine(n, u64::from(s))),
        ]
    }

    /// A graph of 2-9 tasks whose edges from lower to higher ids carry
    /// no delay (the others one), and a table holding some of its tasks
    /// anywhere, each at its PE's first free window from a random step:
    /// on all but the smallest machines most PEs stay empty.
    #[allow(clippy::type_complexity)]
    fn arb_state(
    ) -> impl Strategy<Value = (Vec<u32>, Vec<(usize, usize, u32)>, Vec<(bool, usize, u32)>)> {
        (2usize..10).prop_flat_map(|n| {
            (
                proptest::collection::vec(1u32..4, n),
                proptest::collection::vec((0..n, 0..n, 1u32..6), 1..n * 3),
                proptest::collection::vec((0u32..3, 0usize..64, 1u32..9), n).prop_map(|v| {
                    v.into_iter()
                        .map(|(p, pe, from)| (p > 0, pe, from))
                        .collect()
                }),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The ring search changes no answer: at every step up to past
        /// the table's end, with and without communication, every task
        /// gets the plain sweep's PE or `None`.
        #[test]
        fn ring_slot_search_matches_the_plain_sweep(
            (times, edges, placed) in arb_state(),
            m in arb_machine(),
        ) {
            let mut g = Csdfg::new();
            let ids: Vec<NodeId> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| g.add_task(format!("v{i}"), t).unwrap())
                .collect();
            for &(a, b, vol) in &edges {
                g.add_dep(ids[a], ids[b], u32::from(a >= b), vol).unwrap();
            }
            let mut sched = Schedule::new(m.num_pes());
            for (&v, &(keep, pe, from)) in ids.iter().zip(&placed) {
                if keep {
                    let pe = Pe::from_index(pe % m.num_pes());
                    let cs = sched.earliest_free(pe, from, g.time(v));
                    sched.place(v, pe, cs, g.time(v)).unwrap();
                }
            }
            let mut rings = Rings::default();
            for &v in &ids {
                for cs in 1..=sched.length() + 3 {
                    for ignore in [false, true] {
                        prop_assert_eq!(
                            best_slot_at(&g, &m, &sched, &mut rings, v, cs, ignore),
                            best_slot_at_by_sweep(&g, &m, &sched, v, cs, ignore),
                            "{} at cs {} on {} (ignore_comm {})",
                            g.name(v), cs, m.name(), ignore
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_search_looks_past_a_floor_that_ties_the_best() {
        // On a 9-PE line, v's predecessors end at step 4 on pe7 and at
        // step 1 on pe3 (one unit of volume each), and pe6 and pe7 are
        // busy at step 7.  Ring 1 leaves pe8 best at cm 6, which ties
        // the floor of ring 2; ring 2 holds pe5, 2 hops from both
        // predecessors, also at cm 6, and its lower index wins.
        let mut g = Csdfg::new();
        let a = g.add_task("a", 1).unwrap();
        let b = g.add_task("b", 1).unwrap();
        let v = g.add_task("v", 1).unwrap();
        let busy: Vec<NodeId> = (0..2)
            .map(|i| g.add_task(format!("x{i}"), 1).unwrap())
            .collect();
        g.add_dep(a, v, 0, 1).unwrap();
        g.add_dep(b, v, 0, 1).unwrap();
        let m = Machine::linear_array(9);
        let mut sched = Schedule::new(m.num_pes());
        sched.place(a, Pe(6), 4, 1).unwrap();
        sched.place(b, Pe(2), 1, 1).unwrap();
        sched.place(busy[0], Pe(5), 7, 1).unwrap();
        sched.place(busy[1], Pe(6), 7, 1).unwrap();
        let mut rings = Rings::default();
        let want = best_slot_at_by_sweep(&g, &m, &sched, v, 7, false);
        assert_eq!(want, Some(Pe(4)));
        assert_eq!(best_slot_at(&g, &m, &sched, &mut rings, v, 7, false), want);
    }

    #[test]
    fn ring_search_tells_apart_the_empty_pes_short_of_the_diameter() {
        // On a 4-PE line, v's predecessor ends at step 1 on pe4, and
        // pe3 and pe4 are busy at step 10.  Ring 1 (pe3) cannot take v;
        // ring 2 (pe2, cm 3) beats pe1 (cm 4), the lowest-indexed empty
        // PE, which only the diameter makes equivalent to the others.
        let mut g = Csdfg::new();
        let u = g.add_task("u", 1).unwrap();
        let v = g.add_task("v", 1).unwrap();
        let busy: Vec<NodeId> = (0..2)
            .map(|i| g.add_task(format!("x{i}"), 1).unwrap())
            .collect();
        g.add_dep(u, v, 0, 1).unwrap();
        let m = Machine::linear_array(4);
        let mut sched = Schedule::new(m.num_pes());
        sched.place(u, Pe(3), 1, 1).unwrap();
        sched.place(busy[0], Pe(2), 10, 1).unwrap();
        sched.place(busy[1], Pe(3), 10, 1).unwrap();
        let mut rings = Rings::default();
        let want = best_slot_at_by_sweep(&g, &m, &sched, v, 10, false);
        assert_eq!(want, Some(Pe(1)));
        assert_eq!(best_slot_at(&g, &m, &sched, &mut rings, v, 10, false), want);
    }

    /// The paper's running example: Figure 1(b) graph, 2x2 mesh.
    pub fn fig1() -> (Csdfg, Vec<NodeId>, Machine) {
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
        (g, ids, Machine::mesh(2, 2))
    }

    #[test]
    fn reproduces_figure_2a() {
        // The start-up schedule of the paper's Figure 2(a)/6(b):
        // pe1: A, B B, D, E E, F; pe2: C at cs3; length 7.
        let (g, n, m) = fig1();
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        assert_eq!(s.length(), 7);
        assert_eq!(
            s.slot(n[0]).unwrap(),
            ccs_schedule::Slot {
                pe: Pe(0),
                start: 1,
                duration: 1
            }
        );
        assert_eq!(s.cb(n[1]), Some(2)); // B on pe1
        assert_eq!(s.pe(n[1]), Some(Pe(0)));
        assert_eq!(s.cb(n[2]), Some(3)); // C deferred to cs3 on pe2
        assert_eq!(s.pe(n[2]), Some(Pe(1)));
        assert_eq!(s.cb(n[3]), Some(4)); // D
        assert_eq!(s.cb(n[4]), Some(5)); // E
        assert_eq!(s.cb(n[5]), Some(7)); // F
        assert!(validate(&g, &m, &s).is_ok());
    }

    #[test]
    fn schedule_is_valid_on_every_paper_machine() {
        let (g, _, _) = fig1();
        for m in Machine::paper_suite() {
            let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
            assert!(validate(&g, &m, &s).is_ok(), "invalid on {}", m.name());
        }
    }

    #[test]
    fn complete_machine_never_longer_than_linear() {
        let (g, _, _) = fig1();
        let lin = startup_schedule(&g, &Machine::linear_array(4), StartupConfig::default())
            .unwrap()
            .length();
        let com = startup_schedule(&g, &Machine::complete(4), StartupConfig::default())
            .unwrap()
            .length();
        assert!(com <= lin);
    }

    #[test]
    fn single_pe_serializes_everything() {
        let (g, _, _) = fig1();
        let m = Machine::complete(1);
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        // All tasks on one PE: length >= total computation time.
        assert!(u64::from(s.length()) >= g.total_time());
        assert!(validate(&g, &m, &s).is_ok());
    }

    #[test]
    fn oblivious_placement_still_yields_valid_schedule() {
        let (g, _, _) = fig1();
        let m = Machine::linear_array(4);
        let cfg = StartupConfig {
            ignore_communication: true,
            ..Default::default()
        };
        let s = startup_schedule(&g, &m, cfg).unwrap();
        assert!(validate(&g, &m, &s).is_ok());
        // Ignoring communication while placing can only hurt (or tie)
        // once legalized on a machine with real distances.
        let aware = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        assert!(s.length() >= aware.length());
    }

    #[test]
    fn all_priorities_produce_valid_schedules() {
        let (g, _, m) = fig1();
        for p in [
            Priority::CommunicationSensitive,
            Priority::MobilityOnly,
            Priority::Fifo,
        ] {
            let cfg = StartupConfig {
                priority: p,
                ..Default::default()
            };
            let s = startup_schedule(&g, &m, cfg).unwrap();
            assert!(validate(&g, &m, &s).is_ok(), "{p:?}");
        }
    }

    #[test]
    fn illegal_graph_rejected() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        let m = Machine::complete(2);
        assert!(startup_schedule(&g, &m, StartupConfig::default()).is_err());
    }

    #[test]
    fn legalize_preserves_pe_assignment() {
        let (g, n, m) = fig1();
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let l = legalize(&g, &m, &s);
        for &v in &n {
            assert_eq!(l.pe(v), s.pe(v));
        }
        assert!(validate(&g, &m, &l).is_ok() || l.length() >= s.length());
    }
}
