//! Self-timed (as-soon-as-possible) execution of a placed CSDFG.
//!
//! Keeps each task's processor assignment and the per-processor
//! execution order of the static schedule, but starts every task
//! instance as soon as (a) its processor is free and (b) all its input
//! data has arrived.  This is the classic "static-order self-timed"
//! execution model: for a valid static schedule it can only run
//! *faster* than the rigid period-`L` replay, so the measured
//! initiation interval is a dynamic lower-ish view of the schedule's
//! quality, and it converges to the graph's communication-augmented
//! steady-state rate.

use crate::jitter::JitterConfig;
use crate::report::SelfTimedReport;
use ccs_model::{Csdfg, NodeId};
use ccs_schedule::Schedule;
use ccs_topology::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Executes `iterations` iterations of `g` self-timed, following the
/// processor assignment and per-PE order of `sched`.
///
/// # Panics
///
/// Panics if some task is unplaced or `iterations == 0`.
pub fn run_self_timed(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    iterations: u32,
) -> SelfTimedReport {
    execute(g, machine, sched, iterations, None)
}

/// The self-timed loop behind [`run_self_timed`] and
/// [`run_jittered`](crate::jitter::run_jittered).  With `jitter`, each
/// task instance draws its extra latency once, after its inputs are
/// resolved; a zero `max_jitter` draws nothing.
pub(crate) fn execute(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    iterations: u32,
    jitter: Option<JitterConfig>,
) -> SelfTimedReport {
    assert!(iterations > 0, "need at least one iteration");
    let mut rng = jitter
        .filter(|j| j.max_jitter > 0)
        .map(|j| (StdRng::seed_from_u64(j.seed), j.max_jitter));
    // Global firing order within an iteration: by static CB, ties by
    // node id.  A valid static schedule's CBs form a linear extension
    // of the zero-delay DAG, so same-iteration reads always see their
    // producers; it also fixes the per-PE execution order.
    let mut order: Vec<NodeId> = g.tasks().collect();
    order.sort_by_key(|&v| (sched.cb(v).expect("task placed"), v.index()));

    // finish[(node, iteration)] global cycle at which the instance ends.
    let mut finish: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    let mut pe_free = vec![0u64; machine.num_pes()];
    let mut messages = 0u64;
    let mut traffic = 0u64;
    let mut makespan = 0u64;
    let mut first_iter_end = 0u64;

    for i in 0..iterations {
        for &v in &order {
            let pe = sched.pe(v).expect("placed");
            let mut ready_at = pe_free[pe.index()];
            for e in g.in_deps(v) {
                let (u, _) = g.endpoints(e);
                let k = g.delay(e);
                if k > i {
                    continue; // initial token, available at cycle 0
                }
                let src_iter = i - k;
                let Some(&f) = finish.get(&(u.index(), src_iter)) else {
                    continue; // producer fires later in this round: only
                              // possible for k = 0 violations, which the
                              // static checker reports separately
                };
                let pu = sched.pe(u).expect("placed");
                let hops = machine.distance(pu, pe);
                let cost = u64::from(hops) * u64::from(g.volume(e));
                if hops > 0 {
                    messages += 1;
                    traffic += cost;
                }
                ready_at = ready_at.max(f + cost);
            }
            let extra = rng.as_mut().map_or(0, |(rng, max)| rng.gen_range(0..=*max));
            let end = ready_at + u64::from(g.time(v)) + u64::from(extra);
            finish.insert((v.index(), i), end);
            pe_free[pe.index()] = end;
            makespan = makespan.max(end);
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
    SelfTimedReport {
        iterations,
        makespan,
        initiation_interval,
        messages,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_topology::Pe;

    fn loop2() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        g
    }

    fn sched_same_pe(g: &Csdfg) -> Schedule {
        let mut s = Schedule::new(2);
        s.place(g.task_by_name("A").unwrap(), Pe(0), 1, 1).unwrap();
        s.place(g.task_by_name("B").unwrap(), Pe(0), 2, 2).unwrap();
        s.pad_to(3);
        s
    }

    #[test]
    fn single_iteration_makespan() {
        let g = loop2();
        let m = Machine::linear_array(2);
        let s = sched_same_pe(&g);
        let r = run_self_timed(&g, &m, &s, 1);
        assert_eq!(r.makespan, 3); // A [0,1), B [1,3)
        assert_eq!(r.initiation_interval, 3.0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn steady_state_matches_iteration_bound() {
        // Cycle A->B->A with one delay: T=3, D=1, bound 3. Self-timed II
        // must converge to 3 on one PE.
        let g = loop2();
        let m = Machine::linear_array(2);
        let s = sched_same_pe(&g);
        let r = run_self_timed(&g, &m, &s, 50);
        assert!(
            (r.initiation_interval - 3.0).abs() < 1e-9,
            "{}",
            r.initiation_interval
        );
    }

    #[test]
    fn self_timed_never_slower_than_static_period() {
        let g = loop2();
        let m = Machine::linear_array(2);
        let mut s = sched_same_pe(&g);
        s.pad_to(10); // deliberately over-padded static schedule
        let r = run_self_timed(&g, &m, &s, 40);
        assert!(r.initiation_interval <= 10.0);
        assert!(r.initiation_interval >= 3.0 - 1e-9);
    }

    #[test]
    fn cross_pe_messages_counted() {
        let g = loop2();
        let m = Machine::linear_array(2);
        let mut s = Schedule::new(2);
        s.place(g.task_by_name("A").unwrap(), Pe(0), 1, 1).unwrap();
        s.place(g.task_by_name("B").unwrap(), Pe(1), 3, 2).unwrap();
        s.pad_to(6);
        let r = run_self_timed(&g, &m, &s, 4);
        // A->B crosses every iteration (4), B->A for iterations 1..3 (3).
        assert_eq!(r.messages, 7);
        assert_eq!(r.traffic, 7);
        // Steady II includes the round trip: A(1) + hop(1) + B(2) + hop(1) = 5.
        assert!(
            (r.initiation_interval - 5.0).abs() < 1e-9,
            "{}",
            r.initiation_interval
        );
    }

    #[test]
    fn parallel_pes_overlap_independent_work() {
        // Two independent self-loops on two PEs run concurrently.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 4).unwrap();
        let b = g.add_task("B", 4).unwrap();
        g.add_dep(a, a, 1, 1).unwrap();
        g.add_dep(b, b, 1, 1).unwrap();
        let m = Machine::complete(2);
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 4).unwrap();
        s.place(b, Pe(1), 1, 4).unwrap();
        let r = run_self_timed(&g, &m, &s, 10);
        assert_eq!(r.makespan, 40); // not 80: they overlap
        assert!((r.initiation_interval - 4.0).abs() < 1e-9);
    }
}
