//! Per-edge traffic attribution.
//!
//! The paper's cost model charges every dependence edge `e = (u, v)`
//! a communication cost `M(PE(u), PE(v)) = hops · c(e)`.  The trace
//! layer makes that charge *observable* as [`Event::EdgeTraffic`]
//! rows, each recording where one edge's communication lands on the
//! machine under the current placement:
//!
//! * [`emit_edge_traffic`] writes a full snapshot, one row per edge in
//!   `g.deps()` order, after start-up placement (the initial traffic
//!   picture) and once for the final best schedule (the authoritative
//!   ledger the `ccs-profile` crate folds into a `CommProfile`),
//!   followed by [`emit_pe_loads`] per-PE load summaries;
//! * [`emit_moved_edge_traffic`] writes the delta of an **accepted**
//!   rotate-remap pass: only the edges whose `(src PE, dst PE)` pair
//!   the pass changed.  A pass remaps only its rotation set `J`, so
//!   only edges incident to `J` can move; most passes move few edges
//!   or none.
//!
//! Consumers upsert every row into one running ledger
//! (`ccs_trace::TrafficLedger`), which then holds the full ledger of
//! each phase.  The helpers gate all work on `P::ACTIVE`, so the `Off`
//! probe compiles them away entirely — the uninstrumented hot path
//! never iterates edges for tracing.

use crate::remap::nid;
use ccs_model::{Csdfg, EdgeId, NodeId};
use ccs_schedule::{Schedule, Slot};
use ccs_topology::{Machine, Pe};
use ccs_trace::{EdgeTraffic, Event, PeLoad, Probe};

/// The row of edge `e` with its endpoints on `src_pe` and `dst_pe`.
///
/// `hops` is the machine distance between the hosting PEs
/// (`u32::MAX` when the machine is disconnected between them — the
/// validator rejects such placements, so this is a sentinel, not a
/// cost).
fn edge_row(g: &Csdfg, machine: &Machine, e: EdgeId, src_pe: Pe, dst_pe: Pe) -> EdgeTraffic {
    let (u, v) = g.endpoints(e);
    EdgeTraffic {
        edge: u32::try_from(e.index()).unwrap_or(u32::MAX),
        src: nid(u),
        dst: nid(v),
        src_pe: src_pe.0,
        dst_pe: dst_pe.0,
        hops: machine.try_distance(src_pe, dst_pe).unwrap_or(u32::MAX),
        volume: g.volume(e),
    }
}

/// Emits one [`Event::EdgeTraffic`] per dependence edge of `g` whose
/// endpoints are both placed in `sched`, in `g.deps()` order.
pub(crate) fn emit_edge_traffic<P: Probe>(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    probe: &mut P,
) {
    if P::ACTIVE {
        for e in g.deps() {
            let (u, v) = g.endpoints(e);
            let (Some(pu), Some(pv)) = (sched.pe(u), sched.pe(v)) else {
                continue;
            };
            probe.emit(Event::EdgeTraffic(edge_row(g, machine, e, pu, pv)));
        }
    }
}

/// Emits the [`Event::EdgeTraffic`] delta of an accepted pass: one row
/// per edge whose endpoint PE pair in `sched` differs from its pair
/// before the pass, in `g.deps()` order.
///
/// `saved` holds the slots the rotated nodes had before the pass; every
/// other node kept its PE (the pass only shifted it in time), so only
/// edges incident to a saved node are examined.
pub(crate) fn emit_moved_edge_traffic<P: Probe>(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    saved: &[(NodeId, Slot)],
    probe: &mut P,
) {
    if P::ACTIVE {
        let mut before: Vec<(NodeId, Pe)> = saved.iter().map(|&(v, s)| (v, s.pe)).collect();
        before.sort_unstable_by_key(|&(v, _)| v);
        let mut edges: Vec<EdgeId> = before
            .iter()
            .flat_map(|&(v, _)| g.in_deps(v).chain(g.out_deps(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let pe_before = |v: NodeId| match before.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => Some(before[i].1),
            Err(_) => sched.pe(v),
        };
        for e in edges {
            let (u, v) = g.endpoints(e);
            let (Some(pu), Some(pv)) = (sched.pe(u), sched.pe(v)) else {
                continue;
            };
            if (pe_before(u), pe_before(v)) != (Some(pu), Some(pv)) {
                probe.emit(Event::EdgeTraffic(edge_row(g, machine, e, pu, pv)));
            }
        }
    }
}

/// Emits one [`Event::PeLoad`] per processor of `sched`, in PE order,
/// summarizing how many tasks it hosts and how many control-step cells
/// they occupy.
pub(crate) fn emit_pe_loads<P: Probe>(sched: &Schedule, probe: &mut P) {
    if P::ACTIVE {
        let n = sched.num_pes();
        let mut tasks = vec![0u32; n];
        let mut busy = vec![0u32; n];
        for (_, slot) in sched.placements() {
            let p = slot.pe.index();
            tasks[p] = tasks[p].saturating_add(1);
            busy[p] = busy[p].saturating_add(slot.duration);
        }
        for p in 0..n {
            probe.emit(Event::PeLoad(PeLoad {
                pe: u32::try_from(p).unwrap_or(u32::MAX),
                tasks: tasks[p],
                busy: busy[p],
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{startup_schedule, StartupConfig};
    use ccs_trace::{Recorder, Sink};

    /// A probe that forwards to an owned recorder (test-only).
    struct Rec<'a>(&'a mut Recorder);

    impl Probe for Rec<'_> {
        const ACTIVE: bool = true;
        fn emit(&mut self, ev: Event) {
            self.0.event(ev);
        }
    }

    fn fig1() -> Csdfg {
        // Small cyclic graph: a -> b -> c with a loop-carried edge back.
        let mut g = Csdfg::new();
        let a = g.add_task("a", 1).unwrap();
        let b = g.add_task("b", 2).unwrap();
        let c = g.add_task("c", 1).unwrap();
        g.add_dep(a, b, 0, 2).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 1, 3).unwrap();
        g
    }

    #[test]
    fn edge_traffic_covers_every_edge_and_costs_match_distance() {
        let g = fig1();
        let m = Machine::linear_array(3);
        let sched = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let mut rec = Recorder::new();
        emit_edge_traffic(&g, &m, &sched, &mut Rec(&mut rec));
        assert_eq!(rec.events.len(), g.deps().count());
        for te in &rec.events {
            let Event::EdgeTraffic(EdgeTraffic {
                src_pe,
                dst_pe,
                hops,
                ..
            }) = te.event
            else {
                panic!("unexpected event kind");
            };
            let expect = m.distance(
                ccs_topology::Pe::from_index(src_pe as usize),
                ccs_topology::Pe::from_index(dst_pe as usize),
            );
            assert_eq!(hops, expect);
            assert_eq!((hops == 0), (src_pe == dst_pe));
        }
    }

    #[test]
    fn pe_loads_sum_to_task_count_and_busy_cells() {
        let g = fig1();
        let m = Machine::mesh(2, 2);
        let sched = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let mut rec = Recorder::new();
        emit_pe_loads(&sched, &mut Rec(&mut rec));
        assert_eq!(rec.events.len(), m.num_pes());
        let (mut tasks, mut busy) = (0u32, 0u32);
        for te in &rec.events {
            let Event::PeLoad(PeLoad {
                tasks: t, busy: b, ..
            }) = te.event
            else {
                panic!("unexpected event kind");
            };
            tasks += t;
            busy += b;
        }
        assert_eq!(tasks as usize, g.task_count());
        let total_dur: u32 = g.tasks().map(|v| g.time(v)).sum();
        assert_eq!(busy, total_dur);
    }
}
