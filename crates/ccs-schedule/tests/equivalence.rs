//! Equivalence harness: the dense `Schedule` (flat occupancy rows +
//! first-free cursors) against a reference model that mirrors the
//! original sparse `BTreeMap` implementation, under random operation
//! sequences.  Every mutation result and every observable query must
//! agree — this is what licenses the storage swap to claim "exact same
//! public API and tie-break semantics".

use ccs_model::NodeId;
use ccs_schedule::{Schedule, Slot, TableError};
use ccs_topology::Pe;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Straightforward reimplementation of the pre-optimization sparse
/// table: slot map keyed by node id, per-PE `cs -> node` occupancy
/// maps, linear `earliest_free` probing.
struct RefTable {
    num_pes: usize,
    slots: BTreeMap<usize, Slot>,
    occupancy: Vec<BTreeMap<u32, usize>>,
    padding: u32,
}

impl RefTable {
    fn new(num_pes: usize) -> Self {
        RefTable {
            num_pes,
            slots: BTreeMap::new(),
            occupancy: vec![BTreeMap::new(); num_pes],
            padding: 0,
        }
    }

    fn occupied_end(&self) -> u32 {
        self.slots.values().map(Slot::end).max().unwrap_or(0)
    }

    fn length(&self) -> u32 {
        self.occupied_end() + self.padding
    }

    fn place(&mut self, node: NodeId, pe: Pe, start: u32, duration: u32) -> Result<(), TableError> {
        if start == 0 || duration == 0 {
            return Err(TableError::BadInterval);
        }
        if pe.index() >= self.num_pes {
            return Err(TableError::BadPe(pe));
        }
        if self.slots.contains_key(&node.index()) {
            return Err(TableError::AlreadyPlaced(node));
        }
        let end = start + duration - 1;
        for cs in start..=end {
            if let Some(&by) = self.occupancy[pe.index()].get(&cs) {
                return Err(TableError::Occupied {
                    pe,
                    cs,
                    by: NodeId::from_index(by),
                });
            }
        }
        for cs in start..=end {
            self.occupancy[pe.index()].insert(cs, node.index());
        }
        self.slots.insert(
            node.index(),
            Slot {
                pe,
                start,
                duration,
            },
        );
        Ok(())
    }

    fn remove(&mut self, node: NodeId) -> Option<Slot> {
        let slot = self.slots.remove(&node.index())?;
        for cs in slot.start..=slot.end() {
            self.occupancy[slot.pe.index()].remove(&cs);
        }
        Some(slot)
    }

    fn is_free(&self, pe: Pe, start: u32, duration: u32) -> bool {
        (start..start + duration)
            .filter(|&cs| cs > 0)
            .all(|cs| !self.occupancy[pe.index()].contains_key(&cs))
    }

    fn earliest_free(&self, pe: Pe, from: u32, duration: u32) -> u32 {
        // Jump past the latest conflict in the probed window instead of
        // advancing one step at a time: the old `cs += 1` walk made the
        // reference O(row length) per query and dominated proptest
        // runtime on padded tables.
        let mut cs = from.max(1);
        loop {
            match self.occupancy[pe.index()]
                .range(cs..cs + duration)
                .next_back()
            {
                None => return cs,
                Some((&occupied, _)) => cs = occupied + 1,
            }
        }
    }

    fn at(&self, pe: Pe, cs: u32) -> Option<NodeId> {
        self.occupancy[pe.index()]
            .get(&cs)
            .map(|&i| NodeId::from_index(i))
    }

    fn pad_to(&mut self, target: u32) {
        let len = self.length();
        if target > len {
            self.padding += target - len;
        }
    }

    fn rows_upto(&self, upto: u32) -> Vec<NodeId> {
        self.slots
            .iter()
            .filter(|(_, s)| s.start <= upto)
            .map(|(&i, _)| NodeId::from_index(i))
            .collect()
    }

    fn drop_and_shift_by(&mut self, nodes: &[NodeId], shift: u32) {
        for &n in nodes {
            self.remove(n);
        }
        self.padding = 0;
        if shift == 0 {
            return;
        }
        let old = std::mem::take(&mut self.slots);
        for row in &mut self.occupancy {
            row.clear();
        }
        for (i, s) in old {
            assert!(s.start > shift);
            let moved = Slot {
                start: s.start - shift,
                ..s
            };
            for cs in moved.start..=moved.end() {
                self.occupancy[moved.pe.index()].insert(cs, i);
            }
            self.slots.insert(i, moved);
        }
    }

    fn shift_later(&mut self, shift: u32) {
        let old = std::mem::take(&mut self.slots);
        for row in &mut self.occupancy {
            row.clear();
        }
        for (i, s) in old {
            let moved = Slot {
                start: s.start + shift,
                ..s
            };
            for cs in moved.start..=moved.end() {
                self.occupancy[moved.pe.index()].insert(cs, i);
            }
            self.slots.insert(i, moved);
        }
    }
}

/// One step of a random operation sequence.
#[derive(Clone, Debug)]
enum Op {
    Place {
        node: usize,
        pe: u32,
        start: u32,
        dur: u32,
    },
    Remove {
        node: usize,
    },
    DropAndShiftBy {
        shift: u32,
    },
    PadTo {
        target: u32,
    },
    TrimPadding,
    ShiftLater {
        shift: u32,
    },
    /// `clone_from` the table into a second one that holds these
    /// `(node, pe, start, dur)` placements on `pes` PEs, and carry on
    /// with the clone.
    CloneFrom {
        pes: usize,
        placements: Vec<(usize, u32, u32, u32)>,
    },
}

fn arb_place() -> impl Strategy<Value = Op> {
    (0usize..12, 0u32..5, 0u32..10, 0u32..4).prop_map(|(node, pe, start, dur)| Op::Place {
        node,
        pe,
        start,
        dur,
    })
}

/// A placement past the first bitset word, so rows reach 60-140
/// cells.
fn arb_far_place() -> impl Strategy<Value = Op> {
    (0usize..12, 0u32..5, 56u32..136, 1u32..6).prop_map(|(node, pe, start, dur)| Op::Place {
        node,
        pe,
        start,
        dur,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Placements repeated to bias the mix toward well-filled tables
    // (the vendored proptest stand-in has no weighted `prop_oneof!`).
    // Removes leave rows that end in free cells, which a shift must
    // carry along; far placements and shifts of 56-135 cells move
    // cells across bitset words.
    prop_oneof![
        arb_place(),
        arb_place(),
        arb_place(),
        arb_place(),
        arb_far_place(),
        (0usize..12).prop_map(|node| Op::Remove { node }),
        (0usize..12).prop_map(|node| Op::Remove { node }),
        (0u32..3).prop_map(|shift| Op::DropAndShiftBy { shift }),
        (56u32..136).prop_map(|shift| Op::DropAndShiftBy { shift }),
        (0u32..14).prop_map(|target| Op::PadTo { target }),
        Just(Op::TrimPadding),
        (0u32..3).prop_map(|shift| Op::ShiftLater { shift }),
        (
            1usize..6,
            proptest::collection::vec((0usize..16, 0u32..6, 1u32..200, 1u32..70), 0..6)
        )
            .prop_map(|(pes, placements)| Op::CloneFrom { pes, placements }),
    ]
}

/// Steps at which [`assert_same`] probes `earliest_free`: the first
/// rows, and both sides of the first two bitset word boundaries.
const PROBE_FROM: [u32; 18] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 62, 63, 64, 65, 66, 127, 128, 129,
];

/// Checks every observable on both tables.
fn assert_same(dense: &Schedule, reference: &RefTable) {
    assert_eq!(dense.num_pes(), reference.num_pes);
    // The word-level occupancy bitsets must mirror the dense rows after
    // every mutation (place/remove/shift/rotate round-trips alike) —
    // `earliest_free` trusts them without consulting the rows.
    assert!(
        dense.occupancy_bits_in_sync(),
        "occupancy bitsets out of sync with dense rows"
    );
    assert_eq!(dense.length(), reference.length());
    assert_eq!(dense.padding(), reference.padding);
    assert_eq!(dense.placed_count(), reference.slots.len());
    let dense_slots: Vec<(usize, Slot)> = dense.placements().map(|(n, s)| (n.index(), s)).collect();
    let ref_slots: Vec<(usize, Slot)> = reference.slots.iter().map(|(&i, &s)| (i, s)).collect();
    assert_eq!(dense_slots, ref_slots, "placement tables diverged");
    // Every occupied cell, wherever it lies: a shift that left a stale
    // cell past the occupied rows shows up here.
    let dense_cells: Vec<(Pe, u32, NodeId)> = dense.occupied_cells().collect();
    let ref_cells: Vec<(Pe, u32, NodeId)> = (0..reference.num_pes)
        .flat_map(|p| {
            reference.occupancy[p]
                .iter()
                .map(move |(&cs, &i)| (Pe(p as u32), cs, NodeId::from_index(i)))
        })
        .collect();
    assert_eq!(dense_cells, ref_cells, "occupied cells diverged");
    for p in 0..reference.num_pes {
        let pe = Pe(p as u32);
        for cs in 0..reference.occupied_end().max(14) + 2 {
            assert_eq!(dense.at(pe, cs), reference.at(pe, cs), "at({pe:?}, {cs})");
        }
        assert_eq!(
            dense.free_cursor(pe),
            reference.earliest_free(pe, 1, 1),
            "free_cursor({pe:?})"
        );
        for from in PROBE_FROM {
            for dur in 1..4u32 {
                assert_eq!(
                    dense.earliest_free(pe, from, dur),
                    reference.earliest_free(pe, from, dur),
                    "earliest_free({pe:?}, {from}, {dur})"
                );
                assert_eq!(
                    dense.is_free(pe, from.max(1), dur),
                    reference.is_free(pe, from.max(1), dur)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_table_matches_sparse_reference(pes in 1usize..5, ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut dense = Schedule::new(pes);
        let mut reference = RefTable::new(pes);
        for op in ops {
            match op {
                Op::Place { node, pe, start, dur } => {
                    let n = NodeId::from_index(node);
                    let r1 = dense.place(n, Pe(pe), start, dur);
                    let r2 = reference.place(n, Pe(pe), start, dur);
                    prop_assert_eq!(r1, r2, "place({node}, pe{pe}, {start}, {dur})");
                }
                Op::Remove { node } => {
                    let n = NodeId::from_index(node);
                    prop_assert_eq!(dense.remove(n), reference.remove(n));
                }
                Op::DropAndShiftBy { shift } => {
                    // The API contract requires removing everything in
                    // the first `shift` rows, exactly as remap does.
                    let nodes = dense.rows_upto(shift);
                    let ref_nodes = reference.rows_upto(shift);
                    prop_assert_eq!(&nodes, &ref_nodes);
                    dense.drop_and_shift_by(&nodes, shift);
                    reference.drop_and_shift_by(&ref_nodes, shift);
                }
                Op::PadTo { target } => {
                    dense.pad_to(target);
                    reference.pad_to(target);
                }
                Op::TrimPadding => {
                    dense.trim_padding();
                    reference.padding = 0;
                }
                Op::ShiftLater { shift } => {
                    dense.shift_later(shift);
                    if dense.placed_count() > 0 {
                        reference.shift_later(shift);
                    }
                }
                Op::CloneFrom { pes: other, placements } => {
                    let mut clone = Schedule::new(other);
                    for (node, pe, start, dur) in placements {
                        let _ = clone.place(NodeId::from_index(node), Pe(pe % other as u32), start, dur);
                    }
                    clone.pad_to(7);
                    clone.clone_from(&dense);
                    assert_same(&clone, &reference);
                    dense = clone;
                }
            }
            assert_same(&dense, &reference);
        }
    }
}
