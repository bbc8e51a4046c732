//! Contention-aware store-and-forward network execution (extension).
//!
//! The paper assumes "multiple channels so that there is no congestion"
//! (Definition 3.5): every message independently costs
//! `hops * volume`.  This module drops that assumption: each
//! *undirected physical link* carries one message at a time, a message
//! of volume `m` occupies each link on its (deterministic shortest)
//! route for `m` consecutive cycles, and messages are forwarded
//! store-and-forward hop by hop.  Running the same schedules under
//! contention quantifies how load-bearing the paper's assumption is —
//! the `exp_contention` experiment reports the inflation.
//!
//! Arbitration: when two messages want one link, the one whose source
//! task fires earlier in the expanded static order wins (deterministic
//! static-priority arbitration, not FCFS; see `DESIGN.md`).

use crate::report::SelfTimedReport;
use ccs_model::{Csdfg, NodeId};
use ccs_schedule::Schedule;
use ccs_topology::Machine;
use std::collections::BTreeMap;

/// Per-link statistics from a contended run.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Busy cycles per undirected link, keyed `(min, max)` PE indices.
    pub busy: BTreeMap<(usize, usize), u64>,
}

impl LinkStats {
    /// The busiest link and its busy-cycle count.
    pub fn hottest(&self) -> Option<((usize, usize), u64)> {
        self.busy
            .iter()
            .max_by_key(|&(link, &cycles)| (cycles, std::cmp::Reverse(*link)))
            .map(|(&l, &c)| (l, c))
    }

    /// Mean link utilization over `makespan` cycles (0 when there are
    /// no links or no time elapsed).
    pub fn mean_utilization(&self, makespan: u64, total_links: usize) -> f64 {
        if makespan == 0 || total_links == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy.values().sum();
        busy as f64 / (makespan as f64 * total_links as f64)
    }
}

/// Result of a contended self-timed execution.
#[derive(Clone, Debug)]
pub struct ContendedReport {
    /// The base self-timed measurements (makespan, II, messages, ...).
    pub base: SelfTimedReport,
    /// Per-link busy accounting.
    pub links: LinkStats,
}

/// Self-timed execution (per-PE static order, ASAP firing) with link
/// contention.  Compare against
/// [`run_self_timed`](crate::self_timed::run_self_timed), which uses
/// the paper's contention-free model.
///
/// # Panics
///
/// Panics if some task is unplaced, `iterations == 0`, or the machine
/// is disconnected.
pub fn run_contended(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    iterations: u32,
) -> ContendedReport {
    assert!(iterations > 0, "need at least one iteration");
    assert!(
        machine.is_connected(),
        "cannot route a disconnected machine"
    );
    let mut order: Vec<NodeId> = g.tasks().collect();
    order.sort_by_key(|&v| (sched.cb(v).expect("task placed"), v.index()));

    let mut finish: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    // Delivery time of edge e's data for consumer iteration i.
    let mut delivered: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    let mut pe_free = vec![0u64; machine.num_pes()];
    let mut link_free: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut links = LinkStats::default();
    let mut messages = 0u64;
    let mut traffic = 0u64;
    let mut makespan = 0u64;
    let mut first_iter_end = 0u64;

    for i in 0..iterations {
        for &v in &order {
            let pe = sched.pe(v).expect("placed");
            let mut ready_at = pe_free[pe.index()];
            for e in g.in_deps(v) {
                let k = g.delay(e);
                if k > i {
                    continue; // initial token
                }
                if let Some(&t) = delivered.get(&(e.index(), i)) {
                    ready_at = ready_at.max(t);
                }
            }
            let end = ready_at + u64::from(g.time(v));
            finish.insert((v.index(), i), end);
            pe_free[pe.index()] = end;
            makespan = makespan.max(end);

            // Send this instance's outputs toward their consumers.
            for e in g.out_deps(v) {
                let (_, w) = g.endpoints(e);
                let dst_iter = i + g.delay(e);
                if dst_iter >= iterations {
                    continue; // consumer never fires in this run
                }
                let pw = sched.pe(w).expect("placed");
                let volume = u64::from(g.volume(e));
                let mut at = end;
                let path = machine.route(pe, pw);
                if path.len() > 1 {
                    messages += 1;
                    traffic += volume * (path.len() - 1) as u64;
                    // Note: message arrivals do not extend the makespan
                    // (it measures task completion); they extend the
                    // *consumer's* start instead.
                    for hop in path.windows(2) {
                        let (a, b) = (hop[0].index(), hop[1].index());
                        let link = (a.min(b), a.max(b));
                        let slot = link_free.get(&link).copied().unwrap_or(0).max(at);
                        link_free.insert(link, slot + volume);
                        *links.busy.entry(link).or_insert(0) += volume;
                        at = slot + volume;
                    }
                }
                // Latest delivery wins if several edges feed (e, iter).
                let entry = delivered.entry((e.index(), dst_iter)).or_insert(0);
                *entry = (*entry).max(at);
            }
        }
        if i == 0 {
            first_iter_end = makespan;
        }
    }

    let initiation_interval = if iterations == 1 {
        makespan as f64
    } else {
        (makespan - first_iter_end) as f64 / f64::from(iterations - 1)
    };
    ContendedReport {
        base: SelfTimedReport {
            iterations,
            makespan,
            initiation_interval,
            messages,
            traffic,
        },
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::self_timed::run_self_timed;
    use ccs_topology::Pe;

    fn fan_graph() -> Csdfg {
        // One producer feeding two consumers on remote PEs: the two
        // messages share the producer's outgoing link.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 3).unwrap();
        g.add_dep(a, c, 0, 3).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        g.add_dep(c, a, 1, 1).unwrap();
        g
    }

    #[test]
    fn contention_serializes_shared_links() {
        // Star: pe1 is the hub; B and C sit on leaves. Both A->B and
        // A->C cross the hub's links; the hub-adjacent link of each
        // route differs, BUT A's own link (hub-leaf) is shared when A
        // is on a leaf.
        let g = fan_graph();
        let m = Machine::star(3); // pe1 hub, pe2/pe3 leaves
        let mut s = Schedule::new(3);
        let (a, b, c) = (
            g.task_by_name("A").unwrap(),
            g.task_by_name("B").unwrap(),
            g.task_by_name("C").unwrap(),
        );
        // A on leaf pe2; B on hub; C on the other leaf.
        s.place(a, Pe(1), 1, 1).unwrap();
        s.place(b, Pe(0), 5, 1).unwrap();
        s.place(c, Pe(2), 8, 1).unwrap();
        s.pad_to(12);
        let free = run_self_timed(&g, &m, &s, 1);
        let contended = run_contended(&g, &m, &s, 1);
        // Contention can only slow things down.
        assert!(contended.base.makespan >= free.makespan);
        // The shared leaf->hub link carries both messages: 6 busy cycles.
        assert_eq!(contended.links.busy[&(0, 1)], 6);
    }

    #[test]
    fn no_contention_matches_free_model() {
        // Single chain, messages never overlap: contended == free.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 2).unwrap();
        g.add_dep(b, a, 1, 2).unwrap();
        let m = Machine::linear_array(2);
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(1), 4, 1).unwrap();
        s.pad_to(8);
        let free = run_self_timed(&g, &m, &s, 20);
        let contended = run_contended(&g, &m, &s, 20);
        assert_eq!(contended.base.makespan, free.makespan);
        assert!((contended.base.initiation_interval - free.initiation_interval).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn rejects_disconnected_machines() {
        // Every task sits on one PE, so no message needs the missing link.
        let g = fan_graph();
        let m = Machine::from_links("broken", 4, &[(0, 1)]);
        let mut s = Schedule::new(4);
        for (i, name) in ["A", "B", "C"].iter().enumerate() {
            let v = g.task_by_name(name).unwrap();
            s.place(v, Pe(0), (i + 1) as u32 * 2 - 1, 1).unwrap();
        }
        let _ = run_contended(&g, &m, &s, 1);
    }

    #[test]
    fn same_pe_schedules_see_no_network() {
        let g = fan_graph();
        let m = Machine::ring(4);
        let mut s = Schedule::new(4);
        for (i, name) in ["A", "B", "C"].iter().enumerate() {
            let v = g.task_by_name(name).unwrap();
            s.place(v, Pe(0), (i + 1) as u32 * 2 - 1, 1).unwrap();
        }
        let r = run_contended(&g, &m, &s, 10);
        assert_eq!(r.base.messages, 0);
        assert!(r.links.busy.is_empty());
        assert_eq!(r.links.hottest(), None);
    }

    #[test]
    fn multi_hop_messages_occupy_every_link() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 2).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        let m = Machine::linear_array(4);
        let mut s = Schedule::new(4);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(3), 8, 1).unwrap();
        s.pad_to(12);
        let r = run_contended(&g, &m, &s, 1);
        // A->B volume 2 over 3 links: 2 busy cycles each; delivery at
        // 1 + 3*2 = 7 (cycle), B starts at max(7, ...) fine.
        for link in [(0, 1), (1, 2), (2, 3)] {
            assert_eq!(r.links.busy[&link], 2, "{link:?}");
        }
        assert_eq!(r.base.traffic, 6);
        // Store-and-forward: arrival at cycle 1+2+2+2 = 7, B runs [7,8).
        assert_eq!(r.base.makespan, 8);
    }

    #[test]
    fn utilization_accounting() {
        let mut stats = LinkStats::default();
        stats.busy.insert((0, 1), 10);
        stats.busy.insert((1, 2), 30);
        assert_eq!(stats.hottest(), Some(((1, 2), 30)));
        assert!((stats.mean_utilization(100, 4) - 0.1).abs() < 1e-12);
        assert_eq!(stats.mean_utilization(0, 4), 0.0);
    }

    #[test]
    fn contention_never_speeds_up_paper_workloads() {
        use ccs_core::{cyclo_compact, CompactConfig};
        let g = ccs_workloads::paper::fig7_example();
        for m in [
            Machine::linear_array(8),
            Machine::mesh(4, 2),
            Machine::ring(8),
        ] {
            let r = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
            let free = run_self_timed(&r.graph, &m, &r.schedule, 24);
            let contended = run_contended(&r.graph, &m, &r.schedule, 24);
            assert!(
                contended.base.initiation_interval >= free.initiation_interval - 1e-9,
                "{}",
                m.name()
            );
        }
    }
}
