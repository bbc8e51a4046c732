//! # ccs-topology
//!
//! Target-machine models for the ICPP'95 cyclo-compaction scheduler:
//! the five architectures of the paper's Figure 5 — linear array, ring,
//! completely connected, 2-D mesh, n-cube — plus torus, star and binary
//! tree as extensions, all reduced to one uniform abstraction:
//!
//! * [`Machine`] — a set of PEs, an undirected link list, and their
//!   hop distances, exposing the paper's communication function
//!   `M(p_i, p_j) = hops * volume` as [`Machine::comm_cost`].  The
//!   regular builders answer distances from
//!   [`builders::closed_form`]'s analytic formulas and fill a PE's hop
//!   row the first time it is read; the binary tree, random machines
//!   and user link lists ([`Machine::from_links`]) fill every row by
//!   per-source BFS, which the tests use as the reference.
//!   Connectivity, diameter and the smallest hop are computed once, at
//!   construction.  Routes are the machine's too: [`Machine::route`]
//!   and [`Machine::next_hop`] follow the destination's BFS tree, and
//!   the first route read toward a PE fills that destination's row of
//!   BFS parents.  They serve the contention simulator, the traffic
//!   ledger and the communication bound's witness.
//!
//! Communication follows the paper's model (Definition 3.5):
//! store-and-forward over contention-free multiple channels, cost
//! proportional to distance times data volume.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
mod machine;
mod pe;
mod routing;
pub mod spec;

pub use machine::{HopScan, Machine};
pub use pe::Pe;
pub use spec::{parse_spec, random_machine};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_machine() -> impl Strategy<Value = Machine> {
        prop_oneof![
            (1usize..10).prop_map(Machine::linear_array),
            (3usize..10).prop_map(Machine::ring),
            (1usize..10).prop_map(Machine::complete),
            ((1usize..5), (1usize..5)).prop_map(|(r, c)| Machine::mesh(r, c)),
            ((1usize..5), (1usize..5)).prop_map(|(r, c)| Machine::torus(r, c)),
            (1u32..5).prop_map(Machine::hypercube),
            (2usize..10).prop_map(Machine::star),
        ]
    }

    proptest! {
        #[test]
        fn closed_forms_equal_bfs(m in arb_machine()) {
            let twin = Machine::from_links(m.name(), m.num_pes(), m.links());
            prop_assert!(m == twin, "{} differs from its BFS twin", m.name());
        }

        #[test]
        fn distances_form_a_metric(m in arb_machine()) {
            for a in m.pes() {
                prop_assert_eq!(m.distance(a, a), 0);
                for b in m.pes() {
                    prop_assert_eq!(m.distance(a, b), m.distance(b, a));
                    if a != b {
                        prop_assert!(m.distance(a, b) >= 1);
                    }
                }
            }
        }

        #[test]
        fn diameter_bounds_every_distance(m in arb_machine()) {
            let d = m.diameter();
            for a in m.pes() {
                for b in m.pes() {
                    prop_assert!(m.distance(a, b) <= d);
                }
            }
        }

        #[test]
        fn comm_cost_is_linear_in_volume(m in arb_machine(), v in 1u32..50) {
            for a in m.pes().take(3) {
                for b in m.pes().take(3) {
                    prop_assert_eq!(m.comm_cost(a, b, v), m.distance(a, b) * v);
                }
            }
        }

        #[test]
        fn connected_machines_have_finite_mean(m in arb_machine()) {
            prop_assert!(m.is_connected());
            prop_assert!(m.mean_distance() <= f64::from(m.diameter()));
        }
    }
}
