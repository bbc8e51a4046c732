//! The static schedule table: control steps x processors.
//!
//! Storage is dense: placements live in a `Vec<Option<Slot>>` indexed
//! by raw node id, and per-PE occupancy is a flat row of control-step
//! cells with a first-free cursor plus a mirroring bitset (one `u64`
//! word per 64 steps), so the hot operations of the cyclo-compaction
//! inner loop ([`Schedule::earliest_free`], [`Schedule::place`],
//! [`Schedule::drop_and_shift_by`]) are O(1)-amortized instead of tree
//! walks — and the free-window scan advances a word at a time via
//! `trailing_zeros` rather than a cell at a time.  The public API, the
//! serde JSON shape, and every tie-break ordering are identical to the
//! original `BTreeMap`-backed table.

use ccs_model::NodeId;
use ccs_topology::Pe;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// One task assignment inside a [`Schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Assigned processor (the paper's `PE(u)`).
    pub pe: Pe,
    /// First control step of execution, 1-based (the paper's `CB(u)`).
    pub start: u32,
    /// Number of consecutive control steps occupied (`t(u)`).
    pub duration: u32,
}

impl Slot {
    /// Last control step of execution (the paper's `CE(u) = CB + t - 1`).
    pub fn end(&self) -> u32 {
        self.start + self.duration - 1
    }
}

/// Slot-occupancy statistics of a [`Schedule`] (see
/// [`Schedule::occupancy`]): the observability layer's view of how
/// densely and how fragmented the table is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Occupied cells across all PEs (`sum_u t(u)` for placed nodes).
    pub busy_cells: u64,
    /// Free cells strictly below each PE's last occupied step —
    /// fragmentation the remapper could in principle fill.
    pub holes: u64,
    /// PEs hosting at least one task.
    pub used_pes: u32,
    /// Current schedule length (including padding).
    pub length: u32,
}

/// Errors raised when mutating a schedule table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// The target PE is busy during the requested interval.
    Occupied {
        /// Requested processor.
        pe: Pe,
        /// The control step found occupied.
        cs: u32,
        /// Node occupying it.
        by: NodeId,
    },
    /// The node is already placed.
    AlreadyPlaced(NodeId),
    /// Control steps are 1-based; `start == 0` or `duration == 0`.
    BadInterval,
    /// PE index out of range for the machine size the table was built
    /// with.
    BadPe(Pe),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Occupied { pe, cs, by } => {
                write!(f, "{pe} is occupied at cs{cs} by node {by}")
            }
            TableError::AlreadyPlaced(n) => write!(f, "node {n} is already placed"),
            TableError::BadInterval => write!(f, "start and duration must be >= 1"),
            TableError::BadPe(p) => write!(f, "{p} out of range"),
        }
    }
}

impl std::error::Error for TableError {}

/// Free-cell sentinel in an occupancy row.
const FREE: usize = usize::MAX;

/// Bitset words needed to cover `cells` occupancy cells, one bit each.
fn bit_words(cells: usize) -> usize {
    cells.div_ceil(64)
}

/// First occupied cell index `>= from_cell` in a per-PE occupancy
/// bitset, or `None` when everything from `from_cell` on is free.
/// Word-level: masks the first word below `from_cell`, then jumps a
/// whole word per iteration and finishes with `trailing_zeros`.
fn next_occupied(bits: &[u64], from_cell: u32) -> Option<u32> {
    let mut w = (from_cell / 64) as usize;
    if w >= bits.len() {
        return None;
    }
    let mut word = bits[w] & (u64::MAX << (from_cell % 64));
    loop {
        if word != 0 {
            // INVARIANT: bits.len() <= bit_words(row.len()) and rows
            // are far shorter than u32::MAX cells, so the cell index
            // fits a u32.
            let w32 = u32::try_from(w).expect("bitset shorter than u32::MAX words");
            return Some(w32 * 64 + word.trailing_zeros());
        }
        w += 1;
        if w >= bits.len() {
            return None;
        }
        word = bits[w];
    }
}

/// Shifts the bitset `bits` down by `shift` cells, so bit `c` takes
/// the old bit `c + shift`, and keeps its first `words` words.  The
/// cells shifted out must be free, and the bits past the old row must
/// be clear, so none past the new row are set.
fn shift_bits_down(bits: &mut Vec<u64>, shift: usize, words: usize) {
    let (skip, offset) = (shift / 64, shift % 64);
    for i in 0..words {
        let lo = bits[i + skip] >> offset;
        let hi = match bits.get(i + skip + 1) {
            Some(&next) if offset > 0 => next << (64 - offset),
            _ => 0,
        };
        bits[i] = lo | hi;
    }
    bits.truncate(words);
}

/// The 0-based index of the first clear bit in `bits`: the first free
/// cell of a row whose bitset has no ghost bits.
fn first_free_cell(bits: &[u64]) -> u32 {
    let full = bits.iter().take_while(|&&w| w == u64::MAX).count();
    let ones = bits.get(full).map_or(0, |w| w.trailing_ones());
    // INVARIANT: rows are far shorter than u32::MAX cells (see
    // `next_occupied`), so the cell index fits a u32.
    u32::try_from(full * 64).expect("bitset shorter than u32::MAX words") + ones
}

/// A static schedule for one loop iteration: every task gets a
/// processor and a 1-based start control step; the table repeats every
/// [`Schedule::length`] steps.
///
/// The *length* is `max(max_u CE(u), explicit padding)` — the paper's
/// cyclo-compaction appends empty control steps when the projected
/// schedule length `PSL` demands more room than the occupied rows
/// (§4), which [`Schedule::pad_to`] models.
#[derive(Debug)]
pub struct Schedule {
    num_pes: usize,
    /// Node raw index -> slot; dense, grown on demand.
    slots: Vec<Option<Slot>>,
    /// Number of `Some` entries in `slots`.
    placed: usize,
    /// Cached `max_u CE(u)` (0 when empty).
    occupied_end: u32,
    /// Per-PE occupancy row; cell `cs - 1` holds the occupying node's
    /// raw index, or [`FREE`].
    rows: Vec<Vec<usize>>,
    /// Per-PE occupancy bitset mirroring `rows`: bit `c % 64` of word
    /// `c / 64` is set iff cell `c` (0-based; control step `c + 1`) is
    /// occupied.  Sized to exactly `rows[p].len().div_ceil(64)` words
    /// with no ghost bits past the row, so [`Schedule::earliest_free`]
    /// can scan whole words with `trailing_zeros` instead of walking
    /// cells.
    bits: Vec<Vec<u64>>,
    /// Per-PE cursor: the smallest free control step (1-based).  Every
    /// cell strictly below the cursor is occupied.
    first_free: Vec<u32>,
    /// The PEs whose row is non-empty, each once, in no particular
    /// order, so that the whole-table operations visit only those rows
    /// on a machine whose PEs mostly hold nothing.
    in_use: Vec<Pe>,
    /// Extra empty control steps appended at the end.
    padding: u32,
}

impl Schedule {
    /// An empty schedule for a machine with `num_pes` processors.
    pub fn new(num_pes: usize) -> Self {
        assert!(num_pes > 0, "schedule needs at least one PE");
        Schedule {
            num_pes,
            slots: Vec::new(),
            placed: 0,
            occupied_end: 0,
            rows: vec![Vec::new(); num_pes],
            bits: vec![Vec::new(); num_pes],
            first_free: vec![1; num_pes],
            in_use: Vec::new(),
            padding: 0,
        }
    }

    /// The PEs that may hold a task, each once, in no particular order:
    /// every PE not listed is free at every control step.  A PE whose
    /// tasks were all removed stays listed until
    /// [`Schedule::drop_and_shift_by`] has dropped all its cells.
    pub fn pes_in_use(&self) -> &[Pe] {
        &self.in_use
    }

    /// Number of processors of the target machine.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of placed tasks.
    pub fn placed_count(&self) -> usize {
        self.placed
    }

    /// `true` if `node` has been placed.
    #[inline]
    pub fn is_placed(&self, node: NodeId) -> bool {
        self.slots.get(node.index()).is_some_and(Option::is_some)
    }

    /// The slot of `node`, if placed.
    #[inline]
    pub fn slot(&self, node: NodeId) -> Option<Slot> {
        self.slots.get(node.index()).copied().flatten()
    }

    /// The paper's `CB(u)`: start control step.
    #[inline]
    pub fn cb(&self, node: NodeId) -> Option<u32> {
        self.slot(node).map(|s| s.start)
    }

    /// The paper's `CE(u)`: end control step.
    #[inline]
    pub fn ce(&self, node: NodeId) -> Option<u32> {
        self.slot(node).map(|s| s.end())
    }

    /// The paper's `PE(u)`: assigned processor.
    #[inline]
    pub fn pe(&self, node: NodeId) -> Option<Pe> {
        self.slot(node).map(|s| s.pe)
    }

    /// Schedule length `L`: last occupied control step, plus padding.
    #[inline]
    pub fn length(&self) -> u32 {
        self.occupied_end + self.padding
    }

    /// Current padding (empty control steps at the end).
    pub fn padding(&self) -> u32 {
        self.padding
    }

    /// Ensures `length() >= target` by appending empty control steps.
    /// Never shrinks.
    pub fn pad_to(&mut self, target: u32) {
        if target > self.occupied_end + self.padding {
            self.padding = target - self.occupied_end;
        }
    }

    /// Drops any padding beyond the last occupied step.
    pub fn trim_padding(&mut self) {
        self.padding = 0;
    }

    /// Places `node` on `pe` starting at `start` for `duration` steps.
    pub fn place(
        &mut self,
        node: NodeId,
        pe: Pe,
        start: u32,
        duration: u32,
    ) -> Result<(), TableError> {
        if start == 0 || duration == 0 {
            return Err(TableError::BadInterval);
        }
        if pe.index() >= self.num_pes {
            return Err(TableError::BadPe(pe));
        }
        if self.is_placed(node) {
            return Err(TableError::AlreadyPlaced(node));
        }
        let end = start + duration - 1;
        let row = &mut self.rows[pe.index()];
        // Conflict scan in ascending cs order (first conflict reported,
        // as in the sparse original).  Cells beyond the row are free.
        for cs in start..=end.min(row.len() as u32) {
            let by = row[(cs - 1) as usize];
            if by != FREE {
                return Err(TableError::Occupied {
                    pe,
                    cs,
                    by: NodeId::from_index(by),
                });
            }
        }
        if (row.len() as u32) < end {
            if row.is_empty() {
                self.in_use.push(pe);
            }
            row.resize(end as usize, FREE);
        }
        for cs in start..=end {
            row[(cs - 1) as usize] = node.index();
        }
        // Advance the first-free cursor past the newly filled run.
        let cursor = &mut self.first_free[pe.index()];
        if (start..=end).contains(cursor) {
            let mut cs = end + 1;
            while (cs as usize) <= row.len() && row[(cs - 1) as usize] != FREE {
                cs += 1;
            }
            *cursor = cs;
        }
        // Mirror the filled run into the occupancy bitset.
        let bits = &mut self.bits[pe.index()];
        bits.resize(bit_words(row.len()), 0);
        for cs in start..=end {
            let cell = (cs - 1) as usize;
            bits[cell / 64] |= 1 << (cell % 64);
        }
        if node.index() >= self.slots.len() {
            self.slots.resize(node.index() + 1, None);
        }
        self.slots[node.index()] = Some(Slot {
            pe,
            start,
            duration,
        });
        self.placed += 1;
        self.occupied_end = self.occupied_end.max(end);
        Ok(())
    }

    /// Removes `node` from the table, returning its slot.
    pub fn remove(&mut self, node: NodeId) -> Option<Slot> {
        let slot = self.slots.get_mut(node.index())?.take()?;
        let row = &mut self.rows[slot.pe.index()];
        let bits = &mut self.bits[slot.pe.index()];
        for cs in slot.start..=slot.end() {
            let cell = (cs - 1) as usize;
            row[cell] = FREE;
            bits[cell / 64] &= !(1 << (cell % 64));
        }
        let cursor = &mut self.first_free[slot.pe.index()];
        *cursor = (*cursor).min(slot.start);
        self.placed -= 1;
        if slot.end() == self.occupied_end {
            self.occupied_end = self
                .slots
                .iter()
                .flatten()
                .map(Slot::end)
                .max()
                .unwrap_or(0);
        }
        Some(slot)
    }

    /// Node occupying `(pe, cs)`, if any.  Total: out-of-range `pe` or
    /// `cs` simply yields `None` (the checker probes corrupted slots
    /// whose PE may not exist in this table).
    pub fn at(&self, pe: Pe, cs: u32) -> Option<NodeId> {
        if cs == 0 {
            return None;
        }
        match self
            .rows
            .get(pe.index())
            .and_then(|row| row.get((cs - 1) as usize))
        {
            Some(&i) if i != FREE => Some(NodeId::from_index(i)),
            _ => None,
        }
    }

    /// `true` if `pe` is free for `[start, start + duration)`.
    pub fn is_free(&self, pe: Pe, start: u32, duration: u32) -> bool {
        let row = &self.rows[pe.index()];
        for cs in start..start + duration {
            if cs == 0 {
                continue; // control steps are 1-based; cs 0 never exists
            }
            if matches!(row.get((cs - 1) as usize), Some(&i) if i != FREE) {
                return false;
            }
        }
        true
    }

    /// First control step `>= from` at which `pe` can host a task of
    /// `duration` steps.
    ///
    /// Word-level scan over the occupancy bitset: from each candidate
    /// window start, jump straight to the next occupied cell via
    /// masked `trailing_zeros` — if it lies at or beyond the window
    /// end the window is free, otherwise restart one past the
    /// conflict.  Whole free words cost one compare instead of 64 cell
    /// reads; behavior is bit-identical to the cell-walk original
    /// (proptested against the sparse reference in
    /// `tests/equivalence.rs`).
    #[inline]
    pub fn earliest_free(&self, pe: Pe, from: u32, duration: u32) -> u32 {
        let len = self.rows[pe.index()].len() as u32;
        let bits = &self.bits[pe.index()];
        // Every cell below the cursor is occupied, so no window can
        // start there.
        let mut start = from.max(1).max(self.first_free[pe.index()]);
        loop {
            if start > len {
                // Everything from `start` on is past the occupied row
                // (hence free).
                return start;
            }
            match next_occupied(bits, start - 1) {
                None => return start,
                Some(occ) => {
                    if u64::from(occ) >= u64::from(start - 1) + u64::from(duration) {
                        // First conflict lies at or past the window
                        // end: the window is free.
                        return start;
                    }
                    // Occupied cell `occ` blocks the window; the next
                    // candidate start is the step right after it.
                    start = occ + 2;
                }
            }
        }
    }

    /// The per-PE first-free cursor: the smallest control step at
    /// which `pe` could host anything (every step strictly below is
    /// occupied).  `earliest_free(pe, from, d) >= free_cursor(pe)` for
    /// any `from` and `d` — the candidate-scan engine uses this as a
    /// cheap lower bound when deciding whether a PE can still beat the
    /// incumbent before paying for the window scan.
    #[inline]
    pub fn free_cursor(&self, pe: Pe) -> u32 {
        self.first_free[pe.index()]
    }

    /// Test support: `true` when every PE's occupancy bitset exactly
    /// mirrors its dense row (same occupied cells, exact word count,
    /// no ghost bits past the row), and [`Schedule::pes_in_use`] lists
    /// exactly the non-empty rows, each once, every other PE's cursor
    /// at 1.  The equivalence proptests call this after every mutation;
    /// it is O(cells) and not for the hot path.
    #[doc(hidden)]
    pub fn occupancy_bits_in_sync(&self) -> bool {
        let mut listed = vec![0u32; self.num_pes];
        for p in &self.in_use {
            listed[p.index()] += 1;
        }
        let in_use = (0..self.num_pes).all(|p| match listed[p] {
            0 => self.rows[p].is_empty() && self.first_free[p] == 1,
            1 => !self.rows[p].is_empty(),
            _ => false,
        });
        in_use
            && self.rows.iter().zip(&self.bits).all(|(row, bits)| {
                if bits.len() != bit_words(row.len()) {
                    return false;
                }
                let cell_set = |c: usize| bits[c / 64] >> (c % 64) & 1 == 1;
                let mirrored = row
                    .iter()
                    .enumerate()
                    .all(|(c, &cell)| cell_set(c) == (cell != FREE));
                let no_ghosts = (row.len()..bits.len() * 64).all(|c| !cell_set(c));
                mirrored && no_ghosts
            })
    }

    /// Nodes beginning at control step `<= upto` — the rotation set of
    /// a rotation pass (`upto = 1` is the paper's set `J`).
    pub fn rows_upto(&self, upto: u32) -> Vec<NodeId> {
        self.placements()
            .filter(|(_, s)| s.start <= upto)
            .map(|(n, _)| n)
            .collect()
    }

    /// All placed nodes with their slots, ordered by node id.
    pub fn placements(&self) -> impl Iterator<Item = (NodeId, Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (NodeId::from_index(i), s)))
    }

    /// Every occupied `(pe, control step, node)` cell of the table, in
    /// `(pe, cs)` order.  The checker cross-validates these cells
    /// against [`Schedule::placements`] — for a healthy table they
    /// agree exactly; a mismatch means the occupancy index and the slot
    /// list have desynchronized (a duplicate or stale placement).
    pub fn occupied_cells(&self) -> impl Iterator<Item = (Pe, u32, NodeId)> + '_ {
        self.rows.iter().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &i)| i != FREE)
                .map(move |(c, &i)| (Pe::from_index(p), c as u32 + 1, NodeId::from_index(i)))
        })
    }

    /// Slot-occupancy statistics of the table: how busy the rows are
    /// and how fragmented.  `O(cells)`; intended for observability
    /// snapshots (the tracing layer's `schedule.occupancy` events), not
    /// the hot path.
    pub fn occupancy(&self) -> Occupancy {
        let mut busy_cells: u64 = 0;
        let mut holes: u64 = 0;
        let mut used_pes: u32 = 0;
        for row in &self.rows {
            // Cells past the last occupied index are tail freedom, not
            // fragmentation; count FREE cells only below it.
            let last = row.iter().rposition(|&i| i != FREE);
            let Some(last) = last else {
                continue;
            };
            used_pes += 1;
            for &cell in &row[..=last] {
                if cell == FREE {
                    holes += 1;
                } else {
                    busy_cells += 1;
                }
            }
        }
        Occupancy {
            busy_cells,
            holes,
            used_pes,
            length: self.length(),
        }
    }

    /// Fault injection for oracle/mutation tests: overwrites the slot
    /// record of `node` **without** updating the occupancy rows or any
    /// cached state — exactly the kind of single-sided corruption an
    /// aliasing bug in an in-place pass would produce.  The resulting
    /// table is *illegal by construction*; the only legitimate use is
    /// proving that the invariant oracle catches it.
    #[doc(hidden)]
    pub fn fault_force_slot(&mut self, node: NodeId, slot: Slot) {
        if node.index() >= self.slots.len() {
            self.slots.resize(node.index() + 1, None);
        }
        if self.slots[node.index()].is_none() {
            self.placed += 1;
        }
        self.slots[node.index()] = Some(slot);
        self.occupied_end = self.occupied_end.max(slot.end());
    }

    /// Fault injection for oracle/mutation tests: writes one occupancy
    /// cell directly, bypassing every placement check (the complement
    /// of [`Schedule::fault_force_slot`] — corrupts the occupancy index
    /// instead of the slot list).
    #[doc(hidden)]
    pub fn fault_force_occupy(&mut self, pe: Pe, cs: u32, node: NodeId) {
        assert!(cs >= 1, "control steps are 1-based");
        let row = &mut self.rows[pe.index()];
        if (row.len() as u32) < cs {
            if row.is_empty() {
                self.in_use.push(pe);
            }
            row.resize(cs as usize, FREE);
        }
        row[(cs - 1) as usize] = node.index();
        // Bits mirror rows even under fault injection, so the oracle
        // exercises the same lookup structures the hot path reads.
        let bits = &mut self.bits[pe.index()];
        bits.resize(bit_words(row.len()), 0);
        let cell = (cs - 1) as usize;
        bits[cell / 64] |= 1 << (cell % 64);
    }

    /// Removes `nodes` and shifts every remaining placement `shift`
    /// control steps earlier — the renumbering that follows a rotation
    /// of the first `shift` rows (the paper rotates one, and its old
    /// row 1 conceptually moves to row `L + 1`).
    ///
    /// # Panics
    ///
    /// Panics if a remaining node starts at or before control step
    /// `shift` (the caller must remove everything in the first `shift`
    /// rows).
    pub fn drop_and_shift_by(&mut self, nodes: &[NodeId], shift: u32) {
        for &n in nodes {
            self.remove(n);
        }
        if shift == 0 {
            self.padding = 0;
            return;
        }
        // Validate in node-id order (matching the sparse original's
        // panic site) before touching any row, then shift every slot.
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(s) = s {
                assert!(
                    s.start > shift,
                    "drop_and_shift_by: node {n} starts at cs{start} <= shift {shift}",
                    n = NodeId::from_index(i),
                    start = s.start,
                );
            }
        }
        for s in self.slots.iter_mut().flatten() {
            s.start -= shift;
        }
        self.occupied_end = self.occupied_end.saturating_sub(shift);
        // Nothing starts in the first `shift` rows any more, so their
        // cells are free on every PE: drop them off the front of each
        // non-empty row and its bitset, rescan the cursor, and unlist a
        // row left empty.  An unlisted row is empty, with its cursor
        // already at 1.
        let shift = shift as usize;
        let (rows, bits, first_free) = (&mut self.rows, &mut self.bits, &mut self.first_free);
        self.in_use.retain(|&pe| {
            let p = pe.index();
            let (row, bits) = (&mut rows[p], &mut bits[p]);
            debug_assert!(row.iter().take(shift).all(|&c| c == FREE));
            if row.len() <= shift {
                row.clear();
                bits.clear();
            } else {
                row.drain(..shift);
                shift_bits_down(bits, shift, bit_words(row.len()));
            }
            first_free[p] = first_free_cell(bits) + 1;
            !row.is_empty()
        });
        self.padding = 0;
    }

    /// Shifts every placement `shift` control steps later — the exact
    /// inverse of the renumbering in [`Schedule::drop_and_shift_by`]
    /// (used to roll a rotation pass back without cloning the table).
    /// Padding is left unchanged.
    pub fn shift_later(&mut self, shift: u32) {
        if shift == 0 || self.placed == 0 {
            return;
        }
        for s in self.slots.iter_mut().flatten() {
            s.start += shift;
        }
        self.occupied_end += shift;
        self.rebuild_rows();
    }

    /// Reconstructs occupancy rows and cursors from `slots`.
    fn rebuild_rows(&mut self) {
        for pe in self.in_use.drain(..) {
            let p = pe.index();
            self.rows[p].clear();
            self.bits[p].clear();
            self.first_free[p] = 1;
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let row = &mut self.rows[slot.pe.index()];
            let end = slot.end();
            if (row.len() as u32) < end {
                if row.is_empty() {
                    self.in_use.push(slot.pe);
                }
                row.resize(end as usize, FREE);
            }
            for cs in slot.start..=end {
                row[(cs - 1) as usize] = i;
            }
        }
        for &pe in &self.in_use {
            let (row, bits) = (&self.rows[pe.index()], &mut self.bits[pe.index()]);
            let mut cs = 1u32;
            while (cs as usize) <= row.len() && row[(cs - 1) as usize] != FREE {
                cs += 1;
            }
            self.first_free[pe.index()] = cs;
            bits.resize(bit_words(row.len()), 0);
            for (c, &cell) in row.iter().enumerate() {
                if cell != FREE {
                    bits[c / 64] |= 1 << (c % 64);
                }
            }
        }
    }

    /// Renders the table in the paper's layout (`cs` rows, `pe`
    /// columns), labelling tasks via `name`.  The text of
    /// [`Schedule::write_table`].
    pub fn render(&self, name: impl FnMut(NodeId) -> String) -> String {
        let mut out = Vec::new();
        // Writing into a `Vec` cannot fail.
        let _ = self.write_table(&mut out, name);
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Writes the table in the paper's layout (`cs` rows, `pe`
    /// columns) to `out`, one row at a time, labelling tasks via
    /// `name`.  It holds one label a task, never the whole table, so a
    /// long schedule on many PEs streams in a few megabytes.  Each
    /// column is as wide as its longest label or its `peN` heading;
    /// each label is centred.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` returns.
    pub fn write_table(
        &self,
        out: &mut impl std::io::Write,
        mut name: impl FnMut(NodeId) -> String,
    ) -> std::io::Result<()> {
        let len = self.length();
        let heads: Vec<String> = (1..=self.num_pes).map(|p| format!("pe{p}")).collect();
        let mut widths: Vec<usize> = heads.iter().map(String::len).collect();
        let mut labels = vec![String::new(); self.slots.len()];
        for (node, slot) in self.placements() {
            let label = name(node);
            let w = &mut widths[slot.pe.index()];
            *w = (*w).max(label.len());
            labels[node.index()] = label;
        }
        let cs_w = format!("{len}").len().max(2);
        write!(out, "{:>cs_w$} |", "cs")?;
        for (head, w) in heads.iter().zip(&widths) {
            write!(out, " {head:^w$}")?;
        }
        let total: usize = cs_w + 2 + widths.iter().map(|w| w + 1).sum::<usize>();
        writeln!(out, "\n{}", "-".repeat(total))?;
        for cs in 1..=len {
            write!(out, "{cs:>cs_w$} |")?;
            for (p, w) in widths.iter().enumerate() {
                let label = self
                    .at(Pe::from_index(p), cs)
                    .map_or("", |v| labels[v.index()].as_str());
                write!(out, " {label:^w$}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }
}

/// Field-wise, so that [`Clone::clone_from`] reuses the target's slot
/// list, rows and bitsets and, between tables of one machine, visits
/// only the rows either lists in use: the compaction driver snapshots
/// its best schedule into the same table on every improvement.
impl Clone for Schedule {
    fn clone(&self) -> Self {
        Schedule {
            num_pes: self.num_pes,
            slots: self.slots.clone(),
            placed: self.placed,
            occupied_end: self.occupied_end,
            rows: self.rows.clone(),
            bits: self.bits.clone(),
            first_free: self.first_free.clone(),
            in_use: self.in_use.clone(),
            padding: self.padding,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if self.num_pes == source.num_pes {
            // Only the rows listed in either table can differ: every
            // other row is empty in both.
            for &pe in &self.in_use {
                if source.rows[pe.index()].is_empty() {
                    self.rows[pe.index()].clear();
                    self.bits[pe.index()].clear();
                }
            }
            for &pe in &source.in_use {
                self.rows[pe.index()].clone_from(&source.rows[pe.index()]);
                self.bits[pe.index()].clone_from(&source.bits[pe.index()]);
            }
        } else {
            self.rows.clone_from(&source.rows);
            self.bits.clone_from(&source.bits);
        }
        self.num_pes = source.num_pes;
        self.slots.clone_from(&source.slots);
        self.placed = source.placed;
        self.occupied_end = source.occupied_end;
        self.first_free.clone_from(&source.first_free);
        self.in_use.clone_from(&source.in_use);
        self.padding = source.padding;
    }
}

/// Equality is over the logical contents: machine size, placements,
/// and padding (occupancy rows are derived state).
impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.num_pes == other.num_pes
            && self.padding == other.padding
            && self.placed == other.placed
            && self.placements().eq(other.placements())
    }
}

impl Eq for Schedule {}

/// Serializes in the original sparse shape:
/// `{num_pes, slots: {node: Slot}, occupancy: [{cs: node}], padding}`.
impl Serialize for Schedule {
    fn to_value(&self) -> Value {
        let slots: BTreeMap<usize, Slot> = self.placements().map(|(n, s)| (n.index(), s)).collect();
        let occupancy: Vec<BTreeMap<u32, usize>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, &i)| i != FREE)
                    .map(|(c, &i)| (c as u32 + 1, i))
                    .collect()
            })
            .collect();
        Value::Object(vec![
            ("num_pes".into(), self.num_pes.to_value()),
            ("slots".into(), slots.to_value()),
            ("occupancy".into(), occupancy.to_value()),
            ("padding".into(), self.padding.to_value()),
        ])
    }
}

impl Deserialize for Schedule {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::msg("Schedule: expected object"))?;
        let field = |name: &str| {
            serde::__field(obj, name)
                .ok_or_else(|| DeError::msg(format!("Schedule: missing field `{name}`")))
        };
        let num_pes = usize::from_value(field("num_pes")?)?;
        if num_pes == 0 {
            return Err(DeError::msg("Schedule: num_pes must be >= 1"));
        }
        let slots: BTreeMap<usize, Slot> = BTreeMap::from_value(field("slots")?)?;
        let padding = u32::from_value(field("padding")?)?;
        // `occupancy` is derived state: accept and ignore its contents,
        // rebuilding from `slots` (which also validates consistency).
        let mut sched = Schedule::new(num_pes);
        for (node, slot) in slots {
            sched
                .place(NodeId::from_index(node), slot.pe, slot.start, slot.duration)
                .map_err(|e| DeError::msg(format!("Schedule: bad slot table: {e}")))?;
        }
        sched.padding = padding;
        Ok(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// The text table built the first way, one `String` a cell: the
    /// oracle [`Schedule::write_table`] must match byte for byte.
    fn render_cells(s: &Schedule, mut name: impl FnMut(NodeId) -> String) -> String {
        let len = s.length();
        let mut cells: Vec<Vec<String>> = vec![vec![String::new(); s.num_pes()]; len as usize];
        for (node, slot) in s.placements() {
            let label = name(node);
            for cs in slot.start..=slot.end() {
                cells[(cs - 1) as usize][slot.pe.index()] = label.clone();
            }
        }
        let mut widths: Vec<usize> = (0..s.num_pes())
            .map(|p| {
                cells
                    .iter()
                    .map(|row| row[p].len())
                    .chain(std::iter::once(format!("pe{}", p + 1).len()))
                    .max()
                    .unwrap_or(3)
            })
            .collect();
        for w in &mut widths {
            *w = (*w).max(3);
        }
        let cs_w = format!("{len}").len().max(2);
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = write!(out, "{:>cs_w$} |", "cs");
        for (p, w) in widths.iter().enumerate() {
            let _ = write!(out, " {:^w$}", format!("pe{}", p + 1));
        }
        out.push('\n');
        let total: usize = cs_w + 2 + widths.iter().map(|w| w + 1).sum::<usize>();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for (i, row) in cells.iter().enumerate() {
            let _ = write!(out, "{:>cs_w$} |", i + 1);
            for (p, w) in widths.iter().enumerate() {
                let _ = write!(out, " {:^w$}", row[p]);
            }
            out.push('\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random tables: 1-12 PEs, up to 40 tasks of 1-6 steps placed
        /// at or after a random step, labels of 0-13 bytes (some with
        /// a two-byte character, where byte and char widths differ),
        /// and trailing padding.
        #[test]
        fn write_table_matches_the_cell_renderer(
            pes in 1usize..13,
            tasks in proptest::collection::vec((0usize..12, 1u32..7, 1u32..9, 0usize..14), 0..40),
            pad in 0u32..5,
        ) {
            let mut s = Schedule::new(pes);
            for (i, &(pe, duration, from, _)) in tasks.iter().enumerate() {
                let pe = Pe::from_index(pe % pes);
                let start = s.earliest_free(pe, from, duration);
                s.place(n(i), pe, start, duration).unwrap();
            }
            s.pad_to(s.length() + pad);
            let label = |v: NodeId| {
                let k = tasks[v.index()].3;
                let accent = if k % 3 == 0 { "\u{e9}" } else { "" };
                format!("{}{accent}", "ab".repeat(k / 2))
            };
            prop_assert_eq!(s.render(label), render_cells(&s, label));
        }
    }

    /// The catalogue kernels' names and times, list-placed on 1, 2, 8
    /// and 16 PEs.
    #[test]
    fn write_table_matches_the_cell_renderer_on_the_catalogue() {
        for w in ccs_workloads::all_workloads() {
            let g = w.build();
            for pes in [1usize, 2, 8, 16] {
                let mut s = Schedule::new(pes);
                for (i, v) in g.tasks().enumerate() {
                    let pe = Pe::from_index(i % pes);
                    let start = s.earliest_free(pe, 1 + (i as u32 % 3), g.time(v));
                    s.place(v, pe, start, g.time(v)).unwrap();
                }
                let name = |v: NodeId| g.name(v).to_string();
                assert_eq!(
                    s.render(name),
                    render_cells(&s, name),
                    "{} on {pes}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn place_and_accessors() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(0), 2, 2).unwrap();
        s.place(n(2), Pe(1), 3, 1).unwrap();
        assert_eq!(s.cb(n(1)), Some(2));
        assert_eq!(s.ce(n(1)), Some(3));
        assert_eq!(s.pe(n(2)), Some(Pe(1)));
        assert_eq!(s.length(), 3);
        assert_eq!(s.placed_count(), 3);
        assert_eq!(s.at(Pe(0), 3), Some(n(1)));
        assert_eq!(s.at(Pe(1), 1), None);
    }

    #[test]
    fn conflicts_rejected() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 1, 2).unwrap();
        let err = s.place(n(1), Pe(0), 2, 1).unwrap_err();
        assert_eq!(
            err,
            TableError::Occupied {
                pe: Pe(0),
                cs: 2,
                by: n(0)
            }
        );
        assert_eq!(
            s.place(n(0), Pe(0), 5, 1),
            Err(TableError::AlreadyPlaced(n(0)))
        );
        assert_eq!(s.place(n(2), Pe(0), 0, 1), Err(TableError::BadInterval));
        assert_eq!(s.place(n(2), Pe(1), 1, 1), Err(TableError::BadPe(Pe(1))));
    }

    #[test]
    fn remove_frees_occupancy() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 1, 3).unwrap();
        let slot = s.remove(n(0)).unwrap();
        assert_eq!(slot.duration, 3);
        assert!(s.is_free(Pe(0), 1, 3));
        assert_eq!(s.remove(n(0)), None);
        s.place(n(1), Pe(0), 2, 1).unwrap();
    }

    #[test]
    fn earliest_free_skips_conflicts() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 2, 2).unwrap(); // busy cs2-3
        assert_eq!(s.earliest_free(Pe(0), 1, 1), 1);
        assert_eq!(s.earliest_free(Pe(0), 1, 2), 4);
        assert_eq!(s.earliest_free(Pe(0), 2, 1), 4);
        assert_eq!(s.earliest_free(Pe(0), 5, 3), 5);
        // from=0 clamps to 1
        assert_eq!(s.earliest_free(Pe(0), 0, 1), 1);
    }

    #[test]
    fn first_free_cursor_tracks_prefix() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 1, 2).unwrap();
        s.place(n(1), Pe(0), 3, 1).unwrap();
        // Prefix cs1-3 is solid: earliest free is 4 even when asked
        // from 1.
        assert_eq!(s.earliest_free(Pe(0), 1, 1), 4);
        s.remove(n(0)).unwrap();
        assert_eq!(s.earliest_free(Pe(0), 1, 1), 1);
        assert_eq!(s.earliest_free(Pe(0), 1, 3), 4);
    }

    #[test]
    fn padding_extends_length() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 1, 2).unwrap();
        assert_eq!(s.length(), 2);
        s.pad_to(5);
        assert_eq!(s.length(), 5);
        assert_eq!(s.padding(), 3);
        s.pad_to(4); // never shrinks
        assert_eq!(s.length(), 5);
        s.trim_padding();
        assert_eq!(s.length(), 2);
    }

    #[test]
    fn first_row_finds_cs1_starters() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 2).unwrap();
        s.place(n(1), Pe(1), 1, 1).unwrap();
        s.place(n(2), Pe(1), 2, 1).unwrap();
        let mut row = s.rows_upto(1);
        row.sort();
        assert_eq!(row, vec![n(0), n(1)]);
    }

    #[test]
    fn drop_and_shift_renumbers() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(0), 2, 2).unwrap();
        s.place(n(2), Pe(1), 3, 1).unwrap();
        s.pad_to(9);
        s.drop_and_shift_by(&[n(0)], 1);
        assert!(!s.is_placed(n(0)));
        assert_eq!(s.cb(n(1)), Some(1));
        assert_eq!(s.ce(n(1)), Some(2));
        assert_eq!(s.cb(n(2)), Some(2));
        assert_eq!(s.length(), 2);
        assert_eq!(s.padding(), 0);
    }

    #[test]
    fn drop_and_shift_by_two_rows() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 2).unwrap(); // spans rows 1-2
        s.place(n(1), Pe(1), 2, 1).unwrap();
        s.place(n(2), Pe(0), 3, 1).unwrap();
        s.place(n(3), Pe(1), 4, 2).unwrap();
        let mut rotated = s.rows_upto(2);
        rotated.sort();
        assert_eq!(rotated, vec![n(0), n(1)]);
        s.drop_and_shift_by(&rotated, 2);
        assert_eq!(s.cb(n(2)), Some(1));
        assert_eq!(s.cb(n(3)), Some(2));
        assert_eq!(s.length(), 3);
    }

    #[test]
    fn drop_and_shift_by_zero_only_removes() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(0), 2, 1).unwrap();
        s.pad_to(5);
        s.drop_and_shift_by(&[n(0)], 0);
        assert_eq!(s.cb(n(1)), Some(2));
        assert_eq!(s.padding(), 0);
    }

    #[test]
    #[should_panic(expected = "<= shift 2")]
    fn drop_and_shift_by_rejects_partial_rows() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 2, 1).unwrap();
        s.drop_and_shift_by(&[], 2);
    }

    #[test]
    #[should_panic(expected = "<= shift 1")]
    fn drop_and_shift_requires_full_first_row() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(1), 1, 1).unwrap();
        s.drop_and_shift_by(&[n(0)], 1); // n(1) still at cs1
    }

    #[test]
    fn drop_and_shift_reuses_freed_cells() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(0), 2, 2).unwrap();
        s.place(n(2), Pe(1), 1, 3).unwrap();
        s.drop_and_shift_by(&[n(0), n(2)], 1);
        // After the shift, cs1-2 on pe1 hold node 1; pe2 is empty.
        assert_eq!(s.at(Pe(0), 1), Some(n(1)));
        assert_eq!(s.at(Pe(0), 2), Some(n(1)));
        assert_eq!(s.at(Pe(1), 1), None);
        assert_eq!(s.earliest_free(Pe(1), 1, 5), 1);
        assert_eq!(s.earliest_free(Pe(0), 1, 1), 3);
        // Freed space is placeable again.
        s.place(n(0), Pe(1), 1, 2).unwrap();
        assert_eq!(s.length(), 2);
    }

    #[test]
    fn shift_later_inverts_drop_and_shift() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(0), 2, 2).unwrap();
        s.place(n(2), Pe(1), 3, 1).unwrap();
        let before = s.clone();
        let slot0 = s.slot(n(0)).unwrap();
        s.drop_and_shift_by(&[n(0)], 1);
        s.shift_later(1);
        s.place(n(0), slot0.pe, slot0.start, slot0.duration)
            .unwrap();
        assert_eq!(s, before);
        assert_eq!(s.earliest_free(Pe(0), 1, 1), 4);
    }

    #[test]
    fn render_matches_paper_layout() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.place(n(1), Pe(0), 2, 2).unwrap();
        s.place(n(2), Pe(1), 3, 1).unwrap();
        let text = s.render(|v| ["A", "B", "C"][v.index()].to_string());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("pe1"));
        assert!(lines[0].contains("pe2"));
        assert!(lines[2].contains('A'));
        // B occupies rows 2 and 3.
        assert!(lines[3].contains('B'));
        assert!(lines[4].contains('B'));
        assert!(lines[4].contains('C'));
    }

    #[test]
    fn render_includes_padded_rows() {
        let mut s = Schedule::new(1);
        s.place(n(0), Pe(0), 1, 1).unwrap();
        s.pad_to(3);
        let text = s.render(|_| "X".into());
        assert_eq!(text.lines().count(), 2 + 3); // header + rule + 3 rows
    }

    #[test]
    fn slot_end_arithmetic() {
        let s = Slot {
            pe: Pe(0),
            start: 4,
            duration: 3,
        };
        assert_eq!(s.end(), 6);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = Schedule::new(2);
        s.place(n(0), Pe(1), 2, 2).unwrap();
        s.pad_to(4);
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.length(), 4);
    }

    #[test]
    fn serde_emits_legacy_sparse_shape() {
        let mut s = Schedule::new(2);
        s.place(n(3), Pe(1), 2, 2).unwrap();
        s.pad_to(5);
        let v = serde_json::to_value(&s).unwrap();
        assert_eq!(v["num_pes"].as_u64(), Some(2));
        assert_eq!(v["padding"].as_u64(), Some(2));
        assert_eq!(v["slots"]["3"]["pe"].as_u64(), Some(1));
        assert_eq!(v["slots"]["3"]["start"].as_u64(), Some(2));
        assert_eq!(v["occupancy"][1]["2"].as_u64(), Some(3));
        assert_eq!(v["occupancy"][1]["3"].as_u64(), Some(3));
        assert_eq!(v["occupancy"][0], serde::Value::Object(vec![]));
    }

    #[test]
    fn serde_rejects_conflicting_slot_table() {
        let text = r#"{"num_pes":1,"slots":{"0":{"pe":0,"start":1,"duration":2},
            "1":{"pe":0,"start":2,"duration":1}},"occupancy":[{}],"padding":0}"#;
        assert!(serde_json::from_str::<Schedule>(text).is_err());
    }

    #[test]
    fn bitsets_stay_in_sync_across_mutations() {
        let mut s = Schedule::new(3);
        assert!(s.occupancy_bits_in_sync());
        s.place(n(0), Pe(0), 1, 2).unwrap();
        s.place(n(1), Pe(0), 5, 3).unwrap();
        s.place(n(2), Pe(1), 70, 2).unwrap(); // second bitset word
        assert!(s.occupancy_bits_in_sync());
        s.remove(n(0)).unwrap();
        assert!(s.occupancy_bits_in_sync());
        s.shift_later(2);
        assert!(s.occupancy_bits_in_sync());
        let rotated = s.rows_upto(7);
        s.drop_and_shift_by(&rotated, 7);
        assert!(s.occupancy_bits_in_sync());
        s.fault_force_occupy(Pe(2), 130, n(0));
        assert!(s.occupancy_bits_in_sync());
    }

    #[test]
    fn earliest_free_across_word_boundaries() {
        let mut s = Schedule::new(1);
        // Occupy cs1..=128 except a 2-wide hole at cs63-64 (straddling
        // the first word boundary) and a 3-wide hole at cs100-102.
        s.place(n(0), Pe(0), 1, 62).unwrap();
        s.place(n(1), Pe(0), 65, 35).unwrap();
        s.place(n(2), Pe(0), 103, 26).unwrap();
        assert!(s.occupancy_bits_in_sync());
        assert_eq!(s.earliest_free(Pe(0), 1, 1), 63);
        assert_eq!(s.earliest_free(Pe(0), 1, 2), 63);
        assert_eq!(s.earliest_free(Pe(0), 1, 3), 100);
        assert_eq!(s.earliest_free(Pe(0), 64, 1), 64);
        assert_eq!(s.earliest_free(Pe(0), 1, 4), 129);
        assert_eq!(s.earliest_free(Pe(0), 200, 9), 200);
        s.remove(n(1)).unwrap();
        assert_eq!(s.earliest_free(Pe(0), 1, 40), 63);
    }

    #[test]
    fn free_cursor_is_a_lower_bound() {
        let mut s = Schedule::new(2);
        assert_eq!(s.free_cursor(Pe(0)), 1);
        s.place(n(0), Pe(0), 1, 3).unwrap();
        assert_eq!(s.free_cursor(Pe(0)), 4);
        assert_eq!(s.free_cursor(Pe(1)), 1);
        for from in 0..6 {
            for dur in 1..4 {
                assert!(s.earliest_free(Pe(0), from, dur) >= s.free_cursor(Pe(0)));
            }
        }
        s.remove(n(0)).unwrap();
        assert_eq!(s.free_cursor(Pe(0)), 1);
    }

    #[test]
    fn eq_ignores_storage_history() {
        let mut a = Schedule::new(2);
        a.place(n(0), Pe(0), 1, 1).unwrap();
        a.place(n(5), Pe(1), 2, 1).unwrap();
        a.remove(n(5)).unwrap();
        let mut b = Schedule::new(2);
        b.place(n(0), Pe(0), 1, 1).unwrap();
        assert_eq!(a, b);
        b.pad_to(3);
        assert_ne!(a, b);
    }
}
