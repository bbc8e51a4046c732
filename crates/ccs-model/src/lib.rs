//! # ccs-model
//!
//! The *communication-sensitive data-flow graph* (CSDFG) model from
//! Tongsima/Passos/Sha, ICPP 1995, §2: cyclic data-flow graphs
//! `G = (V, E, d, t, c)` with per-node computation times, per-edge
//! loop-carried delay counts, and per-edge communication volumes.
//!
//! * [`Csdfg`] — the graph type, with legality checking (every directed
//!   cycle must carry at least one delay), the zero-delay DAG view
//!   used by the start-up scheduler, and the iteration bound (an exact
//!   [`Ratio`]), the latter two kept by the graph once computed;
//! * [`timing`] — ASAP/ALAP/mobility/critical-path analysis
//!   (Definition 3.4's `MB` comes from here);
//! * [`transform`] — slow-down (Table 11 runs filters at slow-down 3)
//!   and unfolding;
//! * [`parser`] — a small text format for graphs, plus a writer;
//! * [`spec`] — serde-friendly flat representation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod csdfg;
mod cycle_ratio;
pub mod parser;
pub mod spec;
pub mod timing;
pub mod transform;

#[doc(hidden)]
pub use csdfg::Fills;
pub use csdfg::{Csdfg, Dep, ModelError, Task};
pub use cycle_ratio::Ratio;
// Re-export the id types: every downstream crate speaks in them.
pub use ccs_graph::{EdgeId, NodeId};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random legal CSDFG (random DAG over `n` nodes from the
    /// zero-delay edges, plus random back edges that always carry >= 1
    /// delay).
    fn arb_csdfg(max_nodes: usize) -> impl Strategy<Value = Csdfg> {
        (2..=max_nodes).prop_flat_map(|n| {
            let times = proptest::collection::vec(1u32..4, n);
            // forward edges (i < j): optional delay 0..2; back edges
            // (i >= j): delay 1..4.
            let edges = proptest::collection::vec((0..n, 0..n, 0u32..3, 1u32..4), 0..n * 2);
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
        fn generated_graphs_are_legal(g in arb_csdfg(12)) {
            prop_assert!(g.check_legal().is_ok());
        }

        #[test]
        fn parser_round_trips(g in arb_csdfg(10)) {
            let text = parser::write(&g);
            let g2 = parser::parse(&text).unwrap();
            prop_assert_eq!(g2.task_count(), g.task_count());
            prop_assert_eq!(g2.dep_count(), g.dep_count());
            prop_assert_eq!(g2.total_delay(), g.total_delay());
            prop_assert_eq!(g2.total_time(), g.total_time());
        }

        #[test]
        fn spec_round_trips(g in arb_csdfg(10)) {
            let spec = spec::CsdfgSpec::from(&g);
            let g2 = spec.build().unwrap();
            prop_assert_eq!(spec::CsdfgSpec::from(&g2), spec);
        }

        #[test]
        fn asap_never_exceeds_alap(g in arb_csdfg(12)) {
            let t = timing::analyze(&g).unwrap();
            for v in g.tasks() {
                prop_assert!(t.asap(v) <= t.alap(v));
                prop_assert!(t.asap(v) + g.time(v) - 1 <= t.critical_path);
                prop_assert!(t.alap(v) + g.time(v) - 1 <= t.critical_path);
            }
        }

        #[test]
        fn critical_path_bounded_by_total_time(g in arb_csdfg(12)) {
            let t = timing::analyze(&g).unwrap();
            prop_assert!(u64::from(t.critical_path) <= g.total_time());
        }

        #[test]
        fn slowdown_preserves_legality_and_scales_delay(
            g in arb_csdfg(10),
            f in 1u32..4,
        ) {
            let s = transform::slowdown(&g, f);
            prop_assert!(s.check_legal().is_ok());
            prop_assert_eq!(s.total_delay(), g.total_delay() * u64::from(f));
        }

        #[test]
        fn unfold_preserves_delay_and_legality(
            g in arb_csdfg(8),
            f in 1u32..4,
        ) {
            let u = transform::unfold(&g, f);
            prop_assert!(u.check_legal().is_ok());
            prop_assert_eq!(u.total_delay(), g.total_delay());
            prop_assert_eq!(u.task_count(), g.task_count() * f as usize);
            prop_assert_eq!(u.dep_count(), g.dep_count() * f as usize);
        }
    }
}
