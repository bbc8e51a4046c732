//! # ccs-core
//!
//! The primary contribution of Tongsima, Passos & Sha (ICPP 1995):
//! **cyclo-compaction scheduling** — architecture-dependent loop
//! scheduling of cyclic, communication-sensitive data-flow graphs via
//! communication-sensitive remapping.
//!
//! Pipeline:
//!
//! 1. [`startup::startup_schedule`] — the modified list scheduler of
//!    §3: priority function [`priority::evaluate`] (`PF`,
//!    Definition 3.6), processor choice by the `cm < cs` rule;
//! 2. [`remap::rotate_remap`] — one pass of §4: rotate the first
//!    schedule row (implicit retiming), remap each rotated node using
//!    the anticipation function `AN` (Lemma 4.2), repair inter-
//!    iteration slack via the projected schedule length (Lemma 4.3);
//! 3. [`compact::cyclo_compact`] — the driver that iterates passes and
//!    keeps the best schedule (`Q`), with per-pass telemetry;
//! 4. [`baselines`] — the communication-oblivious comparators (classic
//!    list scheduling, Chao–LaPaugh–Sha rotation scheduling).
//!
//! ```
//! use ccs_core::compact::{cyclo_compact, CompactConfig};
//! use ccs_model::Csdfg;
//! use ccs_topology::Machine;
//!
//! let mut g = Csdfg::new();
//! let a = g.add_task("A", 1).unwrap();
//! let b = g.add_task("B", 2).unwrap();
//! g.add_dep(a, b, 0, 1).unwrap();
//! g.add_dep(b, a, 2, 1).unwrap();
//!
//! let machine = Machine::mesh(2, 2);
//! let result = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
//! assert!(result.best_length <= result.initial_length);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod compact;
pub mod optimal;
pub mod oracle;
pub mod priority;
pub mod refine;
pub mod remap;
pub mod startup;
mod traffic;

pub use compact::{cyclo_compact, CompactConfig, Compaction};
pub use priority::Priority;
pub use remap::{
    rotate_remap, rotate_remap_in_place, InPlaceOutcome, RemapConfig, RemapMode, ScanPolicy,
};
pub use startup::{startup_schedule, StartupConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use ccs_model::Csdfg;
    use ccs_schedule::validate;
    use ccs_topology::Machine;
    use proptest::prelude::*;

    fn arb_csdfg() -> impl Strategy<Value = Csdfg> {
        (2usize..9).prop_flat_map(|n| {
            let times = proptest::collection::vec(1u32..4, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0u32..3, 1u32..4), 1..n * 2);
            (times, edges).prop_map(move |(times, edges)| {
                let mut g = Csdfg::new();
                let ids: Vec<_> = times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| g.add_task(format!("v{i}"), t).unwrap())
                    .collect();
                for (a, b, d, c) in edges {
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
            (2usize..6).prop_map(Machine::complete),
            Just(Machine::mesh(2, 2)),
            Just(Machine::hypercube(2)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn startup_schedules_are_always_valid(g in arb_csdfg(), m in arb_machine()) {
            let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
            prop_assert!(validate(&g, &m, &s).is_ok());
            prop_assert_eq!(s.placed_count(), g.task_count());
        }

        #[test]
        fn compaction_output_is_valid_and_no_longer(g in arb_csdfg(), m in arb_machine()) {
            let cfg = CompactConfig { passes: 12, ..Default::default() };
            let r = cyclo_compact(&g, &m, cfg).unwrap();
            prop_assert!(validate(&r.graph, &m, &r.schedule).is_ok());
            prop_assert!(r.best_length <= r.initial_length);
        }

        #[test]
        fn theorem_4_4_without_relaxation_is_monotone(g in arb_csdfg(), m in arb_machine()) {
            let cfg = CompactConfig {
                passes: 12,
                remap: RemapConfig {
                    mode: RemapMode::WithoutRelaxation,
                    rows_per_pass: 1,
                    ..Default::default()
                },
                ..Default::default()
            };
            let r = cyclo_compact(&g, &m, cfg).unwrap();
            let mut prev = r.initial_length;
            for rec in &r.history {
                if !rec.reverted {
                    prop_assert!(rec.length <= prev);
                    prev = rec.length;
                }
            }
        }

        #[test]
        fn passes_without_relaxation_never_grow_on_the_paper_suite(
            g in arb_csdfg(),
            which in 0usize..6,
            rows_per_pass in 1u32..4,
        ) {
            // Every pass without relaxation that places its rotation set
            // is accepted (the remapper asserts it needs no more than
            // the previous length in debug builds), and each keeps the
            // length at or below the previous one.
            let mut machines = Machine::paper_suite();
            machines.push(Machine::ideal(4));
            let m = &machines[which];
            let cfg = CompactConfig {
                passes: 24,
                remap: RemapConfig {
                    mode: RemapMode::WithoutRelaxation,
                    rows_per_pass,
                    ..Default::default()
                },
                stop_on_revert: false,
                ..Default::default()
            };
            let r = compact::compact_probed(&g, m, cfg, Some(0), &mut ccs_trace::Off).unwrap();
            let mut prev = r.initial_length;
            for rec in &r.history {
                if rec.reverted {
                    prop_assert_eq!(rec.length, prev, "a reverted pass restores the length");
                } else {
                    prop_assert!(rec.length <= prev, "pass {} grew {} -> {}", rec.pass, prev, rec.length);
                    prev = rec.length;
                }
            }
            prop_assert!(validate(&r.graph, m, &r.schedule).is_ok());
        }

        #[test]
        fn best_length_never_beats_iteration_bound(g in arb_csdfg(), m in arb_machine()) {
            let r = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
            if let Some(b) = ccs_retiming::iteration_bound(&g) {
                prop_assert!(u64::from(r.best_length) >= b.ceil(),
                    "length {} below iteration bound {}", r.best_length, b);
            }
        }

        #[test]
        fn retiming_reconstructs_best_graph(g in arb_csdfg(), m in arb_machine()) {
            let r = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
            prop_assert!(r.retiming.is_legal(&g));
            let reapplied = r.retiming.apply(&g);
            for e in g.deps() {
                prop_assert_eq!(reapplied.delay(e), r.graph.delay(e));
            }
        }

        #[test]
        fn pruned_scan_matches_reference_scan(g in arb_csdfg(), m in arb_machine()) {
            // Pruning soundness: the pruned sweep (sequential and
            // forced-parallel) and a recorded run (the probed, unpruned
            // instantiation) must reproduce the unpruned reference
            // sweep bit-for-bit — schedules, lengths, and the entire
            // pass history.
            let run = |scan: ScanPolicy, parallel_pes: u32| {
                let cfg = CompactConfig {
                    passes: 8,
                    remap: RemapConfig { scan, parallel_pes, ..Default::default() },
                    ..Default::default()
                };
                cyclo_compact(&g, &m, cfg).unwrap()
            };
            let reference = run(ScanPolicy::Reference, u32::MAX);
            let engine = run(ScanPolicy::Engine, u32::MAX);
            let parallel = run(ScanPolicy::Engine, 1);
            let (recorded, _) = ccs_trace::record(|| run(ScanPolicy::Engine, 1));
            for (label, r) in [("engine", &engine), ("parallel", &parallel), ("recorded", &recorded)] {
                prop_assert_eq!(&r.schedule, &reference.schedule, "{} schedule diverged", label);
                prop_assert_eq!(r.best_length, reference.best_length, "{} best length", label);
                prop_assert_eq!(r.initial_length, reference.initial_length, "{} initial", label);
                prop_assert_eq!(r.history.len(), reference.history.len(), "{} passes", label);
                for (a, b) in r.history.iter().zip(&reference.history) {
                    prop_assert_eq!(a.length, b.length, "{} pass length", label);
                    prop_assert_eq!(a.reverted, b.reverted, "{} pass verdict", label);
                    prop_assert_eq!(&a.rotated, &b.rotated, "{} rotation set", label);
                }
            }
        }

        #[test]
        fn stopping_at_the_floor_changes_only_the_pass_count(
            g in arb_csdfg(),
            m in arb_machine(),
            mode in prop_oneof![Just(RemapMode::WithRelaxation), Just(RemapMode::WithoutRelaxation)],
            rows_per_pass in 1u32..3,
            stop_on_revert in 0u32..2,
        ) {
            // The stop against the same loop with the floor at 0, which
            // a graph with tasks never meets: same result, and a
            // history cut where the best first meets the floor.
            let config = CompactConfig {
                passes: 24,
                remap: RemapConfig { mode, rows_per_pass, ..Default::default() },
                stop_on_revert: stop_on_revert == 1,
                ..Default::default()
            };
            let full = compact::compact_probed(&g, &m, config, Some(0), &mut ccs_trace::Off).unwrap();
            let stop = cyclo_compact(&g, &m, config).unwrap();
            prop_assert_eq!(u64::from(stop.floor), ccs_bounds::cheap_floor(&g, &m));
            prop_assert_eq!(&stop.schedule, &full.schedule);
            prop_assert_eq!(&stop.retiming, &full.retiming);
            for e in g.deps() {
                prop_assert_eq!(stop.graph.delay(e), full.graph.delay(e));
            }
            prop_assert_eq!(&stop.initial, &full.initial);
            prop_assert_eq!(stop.initial_length, full.initial_length);
            prop_assert_eq!(stop.best_length, full.best_length);
            let mut best = full.initial_length;
            let cut = full
                .history
                .iter()
                .position(|rec| {
                    let met = best <= stop.floor;
                    if !rec.reverted {
                        best = best.min(rec.length);
                    }
                    met
                })
                .unwrap_or(full.history.len());
            prop_assert_eq!(stop.history.len(), cut);
            for (a, b) in stop.history.iter().zip(&full.history) {
                prop_assert_eq!(a.pass, b.pass);
                prop_assert_eq!(&a.rotated, &b.rotated);
                prop_assert_eq!(a.length, b.length);
                prop_assert_eq!(a.reverted, b.reverted);
            }
            // A recorded run stops at the same pass, and says so.
            let (recorded, events) = ccs_trace::record(|| cyclo_compact(&g, &m, config).unwrap());
            prop_assert_eq!(recorded.history.len(), stop.history.len());
            prop_assert_eq!(&recorded.schedule, &stop.schedule);
            let end = events.last().map(|t| t.event.clone());
            prop_assert_eq!(
                end,
                Some(ccs_trace::Event::CompactEnd {
                    initial: stop.initial_length,
                    best: stop.best_length,
                    passes: u32::try_from(stop.history.len()).unwrap(),
                    floor: stop.floor,
                })
            );
        }

        #[test]
        fn baselines_are_valid(g in arb_csdfg(), m in arb_machine()) {
            let bl = baselines::oblivious_list_scheduling(&g, &m).unwrap();
            prop_assert!(validate(&g, &m, &bl.schedule).is_ok());
            let (br, retimed) = baselines::oblivious_rotation_scheduling(&g, &m, 8).unwrap();
            prop_assert!(validate(&retimed, &m, &br.schedule).is_ok());
        }
    }
}
