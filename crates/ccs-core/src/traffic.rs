//! Per-edge traffic attribution snapshots.
//!
//! The paper's cost model charges every dependence edge `e = (u, v)`
//! a communication cost `M(PE(u), PE(v)) = hops · c(e)`.  The trace
//! layer makes that charge *observable*: [`emit_edge_traffic`] walks
//! the graph in deterministic edge order and emits one
//! [`Event::EdgeTraffic`] per edge whose endpoints are both placed,
//! recording where the edge's communication lands on the machine under
//! the current placement.  Snapshots are emitted
//!
//! * after start-up placement (the initial traffic picture),
//! * after every **accepted** rotate-remap pass (how remapping moved
//!   traffic), and
//! * once for the final best schedule (the authoritative ledger the
//!   `ccs-profile` crate folds into a `CommProfile`), followed by
//!   [`emit_pe_loads`] per-PE load summaries.
//!
//! Both helpers gate all work on `P::ACTIVE`, so the `Off` probe
//! compiles them away entirely — the uninstrumented hot path never
//! iterates edges for tracing.

use crate::remap::nid;
use ccs_model::Csdfg;
use ccs_schedule::Schedule;
use ccs_topology::Machine;
use ccs_trace::{EdgeTraffic, Event, PeLoad, Probe};

/// Emits one [`Event::EdgeTraffic`] per dependence edge of `g` whose
/// endpoints are both placed in `sched`, in `g.deps()` order.
///
/// `hops` is the machine distance between the hosting PEs
/// (`u32::MAX` when the machine is disconnected between them — the
/// validator rejects such placements, so this is a sentinel, not a
/// cost).
pub(crate) fn emit_edge_traffic<P: Probe>(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    probe: &mut P,
) {
    if P::ACTIVE {
        for e in g.deps() {
            let (u, v) = g.endpoints(e);
            let (Some(su), Some(sv)) = (sched.slot(u), sched.slot(v)) else {
                continue;
            };
            let hops = machine.try_distance(su.pe, sv.pe).unwrap_or(u32::MAX);
            probe.emit(Event::EdgeTraffic(EdgeTraffic {
                edge: u32::try_from(e.index()).unwrap_or(u32::MAX),
                src: nid(u),
                dst: nid(v),
                src_pe: su.pe.0,
                dst_pe: sv.pe.0,
                hops,
                volume: g.volume(e),
            }));
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
