//! # ccs-retiming
//!
//! The retiming substrate under the ICPP'95 cyclo-compaction scheduler.
//!
//! * [`Retiming`] — retiming vectors in the paper's sign convention
//!   (`r(v)` delays drawn from incoming edges and pushed to outgoing
//!   edges), with legality checking, application, normalization and the
//!   [`rotate`] operation of Definition 4.1;
//! * [`prologue`] / [`epilogue`] — the pre-/post-loop instruction
//!   multiplicities implied by a retiming (§2 of the paper);
//! * [`iteration_bound`](iteration_bound::iteration_bound) — the
//!   maximum cycle ratio `max_C T(C)/D(C)`, an architecture-independent
//!   lower bound on any schedule's initiation interval;
//! * [`clock_period`] — Leiserson–Saxe `FEAS`-based
//!   minimum clock-period retiming, the analytic optimum rotation-based
//!   compaction is measured against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock_period;
pub mod iteration_bound;
mod retiming;
#[cfg(test)]
mod wd;

pub use clock_period::{critical_chain, min_clock_period, min_clock_period_above};
pub use iteration_bound::{critical_cycle, iteration_bound, Ratio};
pub use retiming::{epilogue, prologue, rotate, rotate_in_place, unrotate_in_place, Retiming};

#[cfg(test)]
mod proptests {
    use super::*;
    use ccs_model::Csdfg;
    use proptest::prelude::*;

    /// Random legal CSDFG: forward edges may carry 0..3 delays, backward
    /// edges always >= 1.
    fn arb_csdfg() -> impl Strategy<Value = Csdfg> {
        (2usize..10).prop_flat_map(|n| {
            let times = proptest::collection::vec(1u32..5, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0u32..3, 1u32..3), 1..n * 2);
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

    proptest! {
        #[test]
        fn kept_facts_match_a_rebuilt_graph_after_rotations(
            g in arb_csdfg(),
            steps in proptest::collection::vec((0u32..1 << 10, 0u8..3), 1..12),
        ) {
            // Each step rotates the masked nodes with no zero-delay
            // in-edge, a legal rotation (op 0 or 1), or undoes the last
            // rotation (op 2), then reads the kept facts; the read
            // before the first step fills the cells every edit drops.
            let mut g = g;
            let _ = g.iteration_bound();
            let mut applied: Vec<Vec<ccs_model::NodeId>> = Vec::new();
            for (mask, op) in steps {
                if op == 2 {
                    if let Some(set) = applied.pop() {
                        unrotate_in_place(&mut g, &set);
                    }
                } else {
                    let set: Vec<_> = g
                        .tasks()
                        .filter(|&v| mask >> v.index() & 1 == 1 && g.intra_iter_in_deps(v).next().is_none())
                        .collect();
                    prop_assert!(rotate_in_place(&mut g, &set).is_ok());
                    applied.push(set);
                }
                let fresh = ccs_model::spec::CsdfgSpec::from(&g).build().unwrap();
                prop_assert_eq!(g.zero_delay_topo(), fresh.zero_delay_topo());
                prop_assert_eq!(g.check_legal(), fresh.check_legal());
                prop_assert_eq!(g.iteration_bound(), fresh.iteration_bound());
            }
        }

        #[test]
        fn legal_retimings_preserve_legality(g in arb_csdfg()) {
            let (_, r) = clock_period::min_clock_period(&g);
            prop_assert!(r.is_legal(&g));
            let retimed = r.apply(&g);
            prop_assert!(retimed.check_legal().is_ok());
        }

        #[test]
        fn min_period_never_exceeds_initial(g in arb_csdfg()) {
            let initial = clock_period::clock_period(&g);
            let (best, _) = clock_period::min_clock_period(&g);
            prop_assert!(best <= initial);
            let heaviest = g.tasks().map(|v| g.time(v)).max().unwrap();
            prop_assert!(best >= heaviest);
        }

        #[test]
        fn iteration_bound_invariant_under_min_period_retiming(g in arb_csdfg()) {
            let before = iteration_bound(&g);
            let (_, r) = clock_period::min_clock_period(&g);
            let after = iteration_bound(&r.apply(&g));
            prop_assert_eq!(before, after);
        }

        #[test]
        fn min_period_at_least_iteration_bound(g in arb_csdfg()) {
            if let Some(b) = iteration_bound(&g) {
                let (best, _) = clock_period::min_clock_period(&g);
                // Φ >= ceil(B) because a period below the bound would
                // sustain an initiation interval below it.
                prop_assert!(u64::from(best) >= b.ceil());
            }
        }

        #[test]
        fn rotation_of_delay_guarded_roots_is_legal(g in arb_csdfg()) {
            // Nodes whose incoming edges all carry delays can be rotated.
            let rotatable: Vec<_> = g
                .tasks()
                .filter(|&v| g.in_deps(v).all(|e| g.delay(e) >= 1))
                .collect();
            if !rotatable.is_empty() {
                let rotated = rotate(&g, &rotatable).unwrap();
                prop_assert!(rotated.check_legal().is_ok());
                prop_assert_eq!(iteration_bound(&rotated), iteration_bound(&g));
            }
        }

        #[test]
        fn iteration_bound_is_certified(g in arb_csdfg()) {
            // The witness attains B exactly, and B-reduced weights
            // `B.num·d − B.den·t` admit potentials, so no cycle beats B.
            if let Some(b) = iteration_bound(&g) {
                let (r, cycle) = critical_cycle(&g).expect("a cyclic graph has a witness");
                prop_assert_eq!(r, b);
                let mut t = 0u64;
                let mut d = 0u64;
                for (i, &u) in cycle.iter().enumerate() {
                    let v = cycle[(i + 1) % cycle.len()];
                    t += u64::from(g.time(u));
                    // The cheapest of parallel edges; any witness edge
                    // choice attaining B forces this one to attain it too.
                    let hop = g
                        .out_deps(u)
                        .filter(|&e| g.endpoints(e).1 == v)
                        .map(|e| g.delay(e))
                        .min();
                    prop_assert!(hop.is_some(), "witness step {:?} -> {:?} is not an edge", u, v);
                    d += u64::from(hop.unwrap_or(0));
                }
                prop_assert_eq!(Ratio::new(t, d), b);
                let reduced = ccs_graph::algo::paths::feasible_potentials(g.graph(), |e| {
                    let (u, _) = g.endpoints(e);
                    b.num as f64 * f64::from(g.delay(e)) - b.den as f64 * f64::from(g.time(u))
                });
                prop_assert!(reduced.is_ok());
            } else {
                prop_assert!(critical_cycle(&g).is_none());
            }
        }

        #[test]
        fn wd_and_feas_agree_on_min_period(g in arb_csdfg()) {
            let (feas, _) = clock_period::min_clock_period(&g);
            let (wd_p, r) = wd::min_clock_period_wd(&g);
            prop_assert_eq!(feas, wd_p);
            prop_assert!(r.is_legal(&g));
            prop_assert_eq!(clock_period::clock_period(&r.apply(&g)), wd_p);
        }

        #[test]
        fn prologue_epilogue_cover_all_offsets(g in arb_csdfg()) {
            let (_, mut r) = clock_period::min_clock_period(&g);
            r.normalize(&g);
            let max = g.tasks().map(|v| r.get(v)).max().unwrap_or(0);
            let pro: u64 = prologue(&g, &r).iter().map(|&(_, k)| u64::from(k)).sum();
            let epi: u64 = epilogue(&g, &r).iter().map(|&(_, k)| u64::from(k)).sum();
            // Every node appears max times in prologue+epilogue combined.
            prop_assert_eq!(pro + epi, max as u64 * g.task_count() as u64);
        }
    }
}
