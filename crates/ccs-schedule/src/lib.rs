//! # ccs-schedule
//!
//! Static cyclic schedule tables for the ICPP'95 cyclo-compaction
//! scheduler, and the independent validity checker the rest of the
//! stack is tested against.
//!
//! * [`Schedule`] — the control-step x processor grid of the paper's
//!   figures: `CB`/`CE`/`PE` accessors (Definitions 3.1–3.3),
//!   occupancy queries, first-row extraction and the post-rotation
//!   renumbering, padding with empty control steps, and a
//!   pretty-printer reproducing the paper's table layout;
//! * [`checker`] — intra-iteration precedence with communication
//!   costs, the projected schedule length `PSL` (Lemma 4.3), the
//!   per-edge `PSL` ledger the compaction passes repair, and the full
//!   validator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checker;
pub mod stats;
mod table;

pub use checker::{
    edge_comm_cost, psl, psl_value, required_length, validate, PslLedger, Violation,
};
pub use stats::{stats, to_csv, ScheduleStats};
pub use table::{Occupancy, Schedule, Slot, TableError};

#[cfg(test)]
mod proptests {
    use super::*;
    use ccs_model::NodeId;
    use ccs_topology::Pe;
    use proptest::prelude::*;

    /// Random placements into a fixed-size table; placement conflicts
    /// are allowed to fail (we only keep successful ones).
    fn arb_schedule() -> impl Strategy<Value = Schedule> {
        (
            1usize..5,
            proptest::collection::vec((0u32..4, 1u32..10, 1u32..4), 0..12),
        )
            .prop_map(|(pes, reqs)| {
                let mut s = Schedule::new(pes);
                for (i, (pe, start, dur)) in reqs.into_iter().enumerate() {
                    let pe = Pe(pe % pes as u32);
                    let _ = s.place(NodeId::from_index(i), pe, start, dur);
                }
                s
            })
    }

    proptest! {
        #[test]
        fn occupancy_and_slots_agree(s in arb_schedule()) {
            for (node, slot) in s.placements() {
                for cs in slot.start..=slot.end() {
                    prop_assert_eq!(s.at(slot.pe, cs), Some(node));
                }
                prop_assert_eq!(s.cb(node).unwrap(), slot.start);
                prop_assert_eq!(s.ce(node).unwrap(), slot.end());
            }
        }

        #[test]
        fn length_is_max_end(s in arb_schedule()) {
            let max_end = s.placements().map(|(_, sl)| sl.end()).max().unwrap_or(0);
            prop_assert_eq!(s.length(), max_end + s.padding());
        }

        #[test]
        fn earliest_free_returns_free_interval(s in arb_schedule(), from in 1u32..12, dur in 1u32..4) {
            for pe in 0..s.num_pes() {
                let pe = Pe(pe as u32);
                let cs = s.earliest_free(pe, from, dur);
                prop_assert!(cs >= from);
                prop_assert!(s.is_free(pe, cs, dur));
                // Minimality: no earlier start >= from is free.
                for earlier in from..cs {
                    prop_assert!(!s.is_free(pe, earlier, dur));
                }
            }
        }

        #[test]
        fn occupancy_stats_are_consistent(s in arb_schedule()) {
            let occ = s.occupancy();
            let busy: u64 = s.placements().map(|(_, sl)| u64::from(sl.duration)).sum();
            prop_assert_eq!(occ.busy_cells, busy);
            prop_assert_eq!(occ.length, s.length());
            prop_assert!((occ.used_pes as usize) <= s.num_pes());
            // busy + holes = sum over PEs of the last occupied step.
            let mut last_per_pe = vec![0u64; s.num_pes()];
            for (pe, cs, _) in s.occupied_cells() {
                let cell = &mut last_per_pe[pe.index()];
                *cell = (*cell).max(u64::from(cs));
            }
            prop_assert_eq!(occ.busy_cells + occ.holes, last_per_pe.iter().sum::<u64>());
        }

        #[test]
        fn remove_then_place_round_trips(s in arb_schedule()) {
            let mut s = s;
            let placements: Vec<_> = s.placements().collect();
            for (n, slot) in &placements {
                s.remove(*n).unwrap();
                s.place(*n, slot.pe, slot.start, slot.duration).unwrap();
            }
            let after: Vec<_> = s.placements().collect();
            prop_assert_eq!(after, placements);
        }
    }
}
