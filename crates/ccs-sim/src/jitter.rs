//! Timing-jitter robustness (extension): self-timed execution where
//! task latencies fluctuate around their nominal values.
//!
//! The paper's model is fully synchronous — every task takes exactly
//! `t(v)` control steps.  Real machines jitter (cache misses, DRAM
//! refresh, interrupts).  This module executes a placed CSDFG
//! self-timed while inflating each task instance's latency by a random
//! amount up to `max_jitter` cycles (seeded, reproducible), and
//! reports the achieved initiation interval.  Comparing the inflation
//! of a *compacted* schedule against the *start-up* schedule measures
//! whether cyclo-compaction's tighter packing makes execution more
//! fragile — one of the questions a deployment would ask.

use crate::report::SelfTimedReport;
use crate::self_timed::execute;
use ccs_model::Csdfg;
use ccs_schedule::Schedule;
use ccs_topology::Machine;

/// Jitter model: each task instance executes for
/// `t(v) + uniform(0..=max_jitter)` cycles.
#[derive(Clone, Copy, Debug)]
pub struct JitterConfig {
    /// Maximum extra cycles per task instance.
    pub max_jitter: u32,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

/// Self-timed execution with per-instance latency jitter, keeping the
/// schedule's processor assignment and per-PE order.
///
/// # Panics
///
/// Panics if some task is unplaced or `iterations == 0`.
pub fn run_jittered(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    iterations: u32,
    config: JitterConfig,
) -> SelfTimedReport {
    execute(g, machine, sched, iterations, Some(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::self_timed::run_self_timed;
    use ccs_topology::Pe;

    fn setup() -> (Csdfg, Machine, Schedule) {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        let m = Machine::linear_array(2);
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(0), 2, 2).unwrap();
        s.pad_to(3);
        (g, m, s)
    }

    #[test]
    fn zero_jitter_matches_self_timed() {
        let (g, m, s) = setup();
        let base = run_self_timed(&g, &m, &s, 25);
        let jit = run_jittered(
            &g,
            &m,
            &s,
            25,
            JitterConfig {
                max_jitter: 0,
                seed: 1,
            },
        );
        assert_eq!(jit.makespan, base.makespan);
        assert!((jit.initiation_interval - base.initiation_interval).abs() < 1e-9);
        assert_eq!(jit.messages, base.messages);
        assert_eq!(jit.traffic, base.traffic);
    }

    #[test]
    fn jitter_only_slows_down_and_is_bounded() {
        let (g, m, s) = setup();
        let base = run_self_timed(&g, &m, &s, 25);
        for j in [1u32, 3, 7] {
            let jit = run_jittered(
                &g,
                &m,
                &s,
                25,
                JitterConfig {
                    max_jitter: j,
                    seed: 9,
                },
            );
            assert!(jit.initiation_interval >= base.initiation_interval - 1e-9);
            // Worst case adds max_jitter per task per iteration.
            let ceiling = base.initiation_interval + f64::from(j) * g.task_count() as f64;
            assert!(jit.initiation_interval <= ceiling + 1e-9);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, m, s) = setup();
        let a = run_jittered(
            &g,
            &m,
            &s,
            30,
            JitterConfig {
                max_jitter: 4,
                seed: 42,
            },
        );
        let b = run_jittered(
            &g,
            &m,
            &s,
            30,
            JitterConfig {
                max_jitter: 4,
                seed: 42,
            },
        );
        assert_eq!(a.makespan, b.makespan);
        let c = run_jittered(
            &g,
            &m,
            &s,
            30,
            JitterConfig {
                max_jitter: 4,
                seed: 43,
            },
        );
        // Different seed, overwhelmingly likely different makespan.
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn compacted_schedules_degrade_gracefully() {
        use ccs_core::{cyclo_compact, CompactConfig};
        let g = ccs_workloads::paper::fig1_example();
        let m = Machine::mesh(2, 2);
        let r = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        let base = run_self_timed(&r.graph, &m, &r.schedule, 50);
        let jit = run_jittered(
            &r.graph,
            &m,
            &r.schedule,
            50,
            JitterConfig {
                max_jitter: 1,
                seed: 7,
            },
        );
        // Unit jitter on a 6-task graph: inflation stays within the
        // total-extra-work bound.
        assert!(jit.initiation_interval >= base.initiation_interval - 1e-9);
        assert!(jit.initiation_interval <= base.initiation_interval + 6.0 + 1e-9);
    }
}
