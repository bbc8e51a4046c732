//! Independent schedule validity checking: the paper's precedence,
//! communication, and projected-schedule-length constraints, plus
//! machine-aware and table-consistency checks.
//!
//! # Timing convention
//!
//! One consistent arrival rule is used everywhere (see `DESIGN.md` §2):
//! data produced by `u` and consumed by `v` with `k = d(e)` delays and
//! communication cost `M = hops(PE(u), PE(v)) * c(e)` is usable from
//! control step `CE(u) + M + 1` of iteration `i`, counted against
//! `CB(v)` of iteration `i + k`.  With static schedule length `L` this
//! yields:
//!
//! * `k == 0` (intra-iteration): `CB(v) >= CE(u) + M + 1`;
//! * `k >= 1` (inter-iteration): `L >= PSL(e)` where
//!   `PSL(e) = ceil((M + CE(u) - CB(v) + 1) / k)`
//!   (Lemma 4.3, with the `+1` restored for consistency with the
//!   start-up scheduler and Lemma 4.2).
//!
//! # Diagnostics codes
//!
//! Every violation carries a stable `CCS0xx` code
//! ([`Violation::code`]); `ccs-analyze` re-exports these as structured
//! diagnostics, and the `paranoid` oracle in `ccs-core` reports them
//! when an in-place compaction pass corrupts its schedule.  [`validate`]
//! is *total*: it never panics on malformed input (nonexistent PEs,
//! disconnected machines, desynchronized tables) — it reports instead.

use crate::table::Schedule;
use ccs_model::{Csdfg, EdgeId, NodeId};
use ccs_topology::{Machine, Pe};
use std::fmt;

/// One constraint violation found by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A task was never placed.
    Unplaced(NodeId),
    /// An intra-iteration dependency starts too early.
    Precedence {
        /// The violated edge.
        edge: EdgeId,
        /// Earliest legal start of the consumer.
        earliest: u32,
        /// Actual start of the consumer.
        actual: u32,
    },
    /// The schedule length is below the projected schedule length of a
    /// loop-carried dependency.
    LengthTooShort {
        /// The constraining edge.
        edge: EdgeId,
        /// Required minimum length (its `PSL`).
        required: u32,
        /// Actual schedule length.
        actual: u32,
    },
    /// Two tasks overlap on one processor (only possible for schedules
    /// corrupted outside [`Schedule::place`]'s checks).
    Overlap {
        /// First task.
        a: NodeId,
        /// Second task.
        b: NodeId,
    },
    /// A task is placed on a processor the machine does not have.
    BadPe {
        /// The misplaced task.
        node: NodeId,
        /// Its (out-of-range) processor.
        pe: Pe,
        /// Number of PEs the machine actually has.
        num_pes: usize,
    },
    /// An edge's endpoints sit on PEs with no connecting path in the
    /// machine topology — the hop lookup (and hence the communication
    /// cost) is undefined.
    UnreachablePes {
        /// The stranded edge.
        edge: EdgeId,
        /// Producer's processor.
        from: Pe,
        /// Consumer's processor.
        to: Pe,
    },
    /// The occupancy index and the slot list disagree about this node —
    /// a duplicate or stale placement left behind by a buggy in-place
    /// mutation.
    DuplicatePlacement {
        /// The node with inconsistent table state.
        node: NodeId,
    },
}

impl Violation {
    /// The stable diagnostics code of this violation (see `DESIGN.md`
    /// §"Diagnostics" for the full catalogue and paper references).
    pub fn code(&self) -> &'static str {
        match self {
            Violation::Unplaced(_) => "CCS020",
            Violation::Precedence { .. } => "CCS021",
            Violation::LengthTooShort { .. } => "CCS022",
            Violation::Overlap { .. } => "CCS023",
            Violation::BadPe { .. } => "CCS024",
            Violation::UnreachablePes { .. } => "CCS025",
            Violation::DuplicatePlacement { .. } => "CCS026",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            Violation::Unplaced(n) => write!(f, "task {n} is not placed"),
            Violation::Precedence {
                edge,
                earliest,
                actual,
            } => write!(
                f,
                "edge {edge}: consumer starts at cs{actual}, earliest legal cs{earliest}"
            ),
            Violation::LengthTooShort {
                edge,
                required,
                actual,
            } => write!(
                f,
                "edge {edge}: schedule length {actual} below projected length {required}"
            ),
            Violation::Overlap { a, b } => write!(f, "tasks {a} and {b} overlap on one PE"),
            Violation::BadPe { node, pe, num_pes } => write!(
                f,
                "task {node} placed on {pe}, but the machine has only {num_pes} PEs"
            ),
            Violation::UnreachablePes { edge, from, to } => write!(
                f,
                "edge {edge}: no path between {from} and {to} in the machine topology"
            ),
            Violation::DuplicatePlacement { node } => write!(
                f,
                "task {node}: occupancy cells disagree with its recorded slot \
                 (duplicate or stale placement)"
            ),
        }
    }
}

/// Communication cost of edge `e` for the placements in `s`
/// (the paper's `M(PE(u), PE(v)) * c(e)`, zero if either endpoint is
/// unplaced or they share a PE).
///
/// # Panics
///
/// Panics if the placements name out-of-range PEs or PEs in different
/// partitions of a disconnected machine.  Scheduler code only builds
/// placements on real, connected PEs; diagnostics code that must stay
/// total goes through [`Machine::try_comm_cost`] instead.
pub fn edge_comm_cost(g: &Csdfg, m: &Machine, s: &Schedule, e: EdgeId) -> u32 {
    let (u, v) = g.endpoints(e);
    match (s.pe(u), s.pe(v)) {
        (Some(pu), Some(pv)) => m.comm_cost(pu, pv, g.volume(e)),
        _ => 0,
    }
}

/// The PSL core arithmetic of Lemma 4.3: `ceil((m + ce - cb + 1) / k)`
/// for a possibly negative numerator and `k >= 1`.
///
/// This is the single shared implementation of the single-division
/// fast path (delay-1 edges skip the division entirely; larger delays
/// use one `div_euclid` plus a product check instead of two
/// divisions).  Both the schedule checker ([`psl`]) and the remapping
/// hot loop in `ccs-core` call it, so the checker and the scheduler
/// can never disagree on rounding.
#[inline]
pub fn psl_value(m: i64, ce: i64, cb: i64, k: i64) -> i64 {
    let num = m + ce - cb + 1;
    if k == 1 {
        num
    } else {
        let d = num.div_euclid(k);
        d + i64::from(num != d * k)
    }
}

/// Projected schedule length of a loop-carried edge (`d(e) >= 1`):
/// the minimum static schedule length that satisfies it.
///
/// Returns `None` for zero-delay edges, when an endpoint is unplaced,
/// or when the endpoints' PEs cannot reach each other (no finite
/// communication cost exists, hence no finite PSL).
pub fn psl(g: &Csdfg, m: &Machine, s: &Schedule, e: EdgeId) -> Option<u32> {
    let k = g.delay(e);
    if k == 0 {
        return None;
    }
    let (u, v) = g.endpoints(e);
    let ce_u = i64::from(s.ce(u)?);
    let cb_v = i64::from(s.cb(v)?);
    let mm = i64::from(m.try_comm_cost(s.pe(u)?, s.pe(v)?, g.volume(e))?);
    let q = psl_value(mm, ce_u, cb_v, i64::from(k));
    // INVARIANT: q is clamped to >= 0 and bounded by M + CE(u) + 1,
    // both of which are sums/products of u32 values well below 2^33,
    // so the conversion cannot truncate.
    Some(u32::try_from(q.max(0)).unwrap_or(u32::MAX))
}

/// The minimum legal length for the *current placements* of `s`:
/// `max(max_u CE(u), max_e PSL(e))`.
pub fn required_length(g: &Csdfg, m: &Machine, s: &Schedule) -> u32 {
    let occupied = g.tasks().filter_map(|v| s.ce(v)).max().unwrap_or(0);
    let psl_max = g.deps().filter_map(|e| psl(g, m, s, e)).max().unwrap_or(0);
    occupied.max(psl_max)
}

/// Per-edge `PSL` ledger of a placed graph: [`psl`] of every edge,
/// kept in a max segment tree over edge ids, so a pass that moves a
/// few edges repairs its slack in O(log E) per edge and reads the
/// largest `PSL` in O(1), instead of re-walking every task and edge
/// with [`required_length`].
///
/// Leaf `e` holds `psl(g, m, s, e)`, or 0 where that is `None`, which
/// [`required_length`] skips alike.  So for a table holding exactly
/// the tasks of `g` and no padding, [`PslLedger::required`] equals
/// `required_length(g, m, s)`.  A leaf is only as fresh as its last
/// [`PslLedger::refresh`]: the caller refreshes every edge whose `PSL`
/// it may have moved.  Moving both endpoints of an edge by the same
/// number of control steps keeps its `PSL`.
#[derive(Debug)]
pub struct PslLedger {
    /// `tree[leaves + e]` is edge `e`'s `PSL`; `tree[i]` for
    /// `1 <= i < leaves` is the larger of `tree[2i]` and `tree[2i + 1]`.
    tree: Vec<u32>,
    /// Leaf count: the edge count rounded up to a power of two.
    leaves: usize,
}

impl PslLedger {
    /// The ledger of every edge of `g` under the placements of `s`.
    pub fn new(g: &Csdfg, m: &Machine, s: &Schedule) -> Self {
        let leaves = g.dep_count().next_power_of_two();
        let mut tree = vec![0; 2 * leaves];
        for e in g.deps() {
            tree[leaves + e.index()] = psl(g, m, s, e).unwrap_or(0);
        }
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        PslLedger { tree, leaves }
    }

    /// The largest `PSL` over all edges (0 for a graph without
    /// loop-carried edges).
    #[inline]
    pub fn max(&self) -> u32 {
        self.tree[1]
    }

    /// The minimum legal length of `s`: its length or the largest
    /// `PSL`, whichever is larger.
    #[inline]
    pub fn required(&self, s: &Schedule) -> u32 {
        s.length().max(self.max())
    }

    /// Recomputes edge `e`'s `PSL` from `(g, m, s)`.
    pub fn refresh(&mut self, g: &Csdfg, m: &Machine, s: &Schedule, e: EdgeId) {
        self.set(self.leaves + e.index(), psl(g, m, s, e).unwrap_or(0));
    }

    /// Writes `value` to `leaf` and repairs its ancestors, stopping at
    /// the first one whose maximum does not change.
    fn set(&mut self, leaf: usize, value: u32) {
        self.tree[leaf] = value;
        let mut i = leaf / 2;
        while i >= 1 {
            let max = self.tree[2 * i].max(self.tree[2 * i + 1]);
            if self.tree[i] == max {
                break;
            }
            self.tree[i] = max;
            i /= 2;
        }
    }
}

/// `true` when the slot's processor exists on `m`.
fn pe_in_range(m: &Machine, pe: Pe) -> bool {
    pe.index() < m.num_pes()
}

/// Validates `s` as a static cyclic schedule of `g` on machine `m`.
///
/// Checks, in order: every task placed; every placement on a PE the
/// machine actually has; the occupancy index consistent with the slot
/// list; no PE overlap; reachability of every cross-PE edge in the
/// topology; intra-iteration precedence with communication; and the
/// PSL bound for every loop-carried edge.  Returns all violations
/// found.  Never panics on malformed schedules — corruption is
/// reported, not crashed on.
pub fn validate(g: &Csdfg, m: &Machine, s: &Schedule) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    for v in g.tasks() {
        match s.slot(v) {
            None => violations.push(Violation::Unplaced(v)),
            Some(slot) => {
                debug_assert_eq!(
                    slot.duration,
                    g.time(v),
                    "slot duration disagrees with t({})",
                    g.name(v)
                );
            }
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }

    // Machine-aware placement sanity: the table may have been built for
    // a machine with more PEs than `m` has.
    for (node, slot) in s.placements() {
        if !pe_in_range(m, slot.pe) {
            violations.push(Violation::BadPe {
                node,
                pe: slot.pe,
                num_pes: m.num_pes(),
            });
        }
    }

    // Table self-consistency: every occupied cell must belong to the
    // recorded slot of its node, and every slot must have all its cells
    // marked.  A mismatch in either direction means a duplicate or
    // stale placement (the occupancy index desynchronized from the slot
    // list).
    let mut desynced: Vec<NodeId> = Vec::new();
    for (pe, cs, node) in s.occupied_cells() {
        let consistent = s
            .slot(node)
            .is_some_and(|sl| sl.pe == pe && sl.start <= cs && cs <= sl.end());
        if !consistent {
            desynced.push(node);
        }
    }
    for (node, slot) in s.placements() {
        let covered = (slot.start..=slot.end()).all(|cs| s.at(slot.pe, cs) == Some(node));
        if !covered {
            desynced.push(node);
        }
    }
    desynced.sort();
    desynced.dedup();
    for node in desynced {
        violations.push(Violation::DuplicatePlacement { node });
    }

    // Overlaps (re-derive from slots; Schedule::place prevents them, but
    // schedules may be deserialized or hand-built).
    let placed: Vec<(NodeId, crate::table::Slot)> = s.placements().collect();
    for (i, &(a, sa)) in placed.iter().enumerate() {
        for &(b, sb) in &placed[i + 1..] {
            if sa.pe == sb.pe && sa.start <= sb.end() && sb.start <= sa.end() {
                violations.push(Violation::Overlap { a, b });
            }
        }
    }

    let length = s.length();
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        let (Some(su), Some(sv)) = (s.slot(u), s.slot(v)) else {
            continue; // unplaced endpoints were reported above
        };
        if !pe_in_range(m, su.pe) || !pe_in_range(m, sv.pe) {
            continue; // BadPe already reported; no hop table to consult
        }
        let Some(mm) = m.try_comm_cost(su.pe, sv.pe, g.volume(e)) else {
            violations.push(Violation::UnreachablePes {
                edge: e,
                from: su.pe,
                to: sv.pe,
            });
            continue;
        };
        if g.delay(e) == 0 {
            let earliest = su.end() + mm + 1;
            let actual = sv.start;
            if actual < earliest {
                violations.push(Violation::Precedence {
                    edge: e,
                    earliest,
                    actual,
                });
            }
        } else if let Some(required) = psl(g, m, s, e) {
            if length < required {
                violations.push(Violation::LengthTooShort {
                    edge: e,
                    required,
                    actual: length,
                });
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Slot;
    use ccs_topology::Pe;
    use proptest::prelude::*;

    /// The shared PSL fast path (used by both this checker and the
    /// `ccs-core` remap hot loop) agrees with the naive two-division
    /// ceiling on every sign/divisibility combination.
    #[test]
    fn psl_value_matches_naive_ceil() {
        fn naive(m: i64, ce: i64, cb: i64, k: i64) -> i64 {
            let num = m + ce - cb + 1;
            // ceil for possibly negative numerators.
            if num >= 0 {
                (num + k - 1) / k
            } else {
                -((-num) / k)
            }
        }
        for m in 0..6i64 {
            for ce in 0..8i64 {
                for cb in 0..8i64 {
                    for k in 1..5i64 {
                        assert_eq!(
                            psl_value(m, ce, cb, k),
                            naive(m, ce, cb, k),
                            "m={m} ce={ce} cb={cb} k={k}"
                        );
                    }
                }
            }
        }
        // The delay-1 fast path is the raw numerator.
        assert_eq!(psl_value(3, 4, 2, 1), 6);
        // Exact division must not round up.
        assert_eq!(psl_value(0, 5, 0, 3), 2);
        assert_eq!(psl_value(0, 5, 0, 2), 3);
        // Negative numerators round toward zero (ceil), not -inf.
        assert_eq!(psl_value(0, 0, 6, 2), -2);
        assert_eq!(psl_value(0, 0, 5, 2), -2);
    }

    /// Two tasks on a 2-PE linear array.
    fn setup() -> (Csdfg, Machine) {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 2).unwrap(); // intra-iteration, volume 2
        g.add_dep(b, a, 1, 1).unwrap(); // loop carried
        let _ = (a, b);
        (g, Machine::linear_array(2))
    }

    #[test]
    fn valid_same_pe_schedule() {
        let (g, m) = setup();
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(0), 2, 2).unwrap();
        assert!(validate(&g, &m, &s).is_ok());
        // B->A loop: M=0, CE(B)=3, CB(A)=1, k=1 => PSL = 3-1+1 = 3 = L. OK.
        let loop_edge = g.out_deps(b).next().unwrap();
        assert_eq!(psl(&g, &m, &s, loop_edge), Some(3));
        assert_eq!(required_length(&g, &m, &s), 3);
    }

    #[test]
    fn cross_pe_needs_comm_gap() {
        let (g, m) = setup();
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        // A->B has volume 2 across 1 hop: M=2, so B may start at cs4.
        s.place(b, Pe(1), 2, 2).unwrap();
        let errs = validate(&g, &m, &s).unwrap_err();
        assert!(matches!(
            errs[0],
            Violation::Precedence {
                earliest: 4,
                actual: 2,
                ..
            }
        ));
        // Move B to cs4: precedence ok, but the back edge B->A (volume 1,
        // one hop) now needs L >= M + CE(B) - CB(A) + 1 = 1 + 5 - 1 + 1 = 6.
        let mut s2 = Schedule::new(2);
        s2.place(a, Pe(0), 1, 1).unwrap();
        s2.place(b, Pe(1), 4, 2).unwrap();
        let errs = validate(&g, &m, &s2).unwrap_err();
        assert!(matches!(
            errs[0],
            Violation::LengthTooShort {
                required: 6,
                actual: 5,
                ..
            }
        ));
        // Padding to 6 fixes it.
        s2.pad_to(6);
        assert!(validate(&g, &m, &s2).is_ok());
    }

    #[test]
    fn psl_divides_by_delay_count() {
        let (mut g, m) = setup();
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let loop_edge = g.out_deps(b).next().unwrap();
        g.set_delay(loop_edge, 3);
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(1), 4, 2).unwrap();
        // M=1*1=1 (volume 1), CE(B)=5, CB(A)=1, k=3: ceil(6/3) = 2.
        assert_eq!(psl(&g, &m, &s, loop_edge), Some(2));
        assert!(validate(&g, &m, &s).is_ok());
    }

    #[test]
    fn unplaced_tasks_reported_first() {
        let (g, m) = setup();
        let a = g.task_by_name("A").unwrap();
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        let errs = validate(&g, &m, &s).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], Violation::Unplaced(_)));
        assert_eq!(errs[0].code(), "CCS020");
    }

    #[test]
    fn psl_none_for_zero_delay_edges() {
        let (g, m) = setup();
        let a = g.task_by_name("A").unwrap();
        let intra = g.out_deps(a).next().unwrap();
        let s = Schedule::new(2);
        assert_eq!(psl(&g, &m, &s, intra), None);
    }

    #[test]
    fn negative_psl_clamps_to_zero() {
        // Consumer placed far after producer: the constraint is slack.
        let (g, m) = setup();
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let mut s = Schedule::new(2);
        s.place(b, Pe(0), 1, 2).unwrap();
        s.place(a, Pe(0), 9, 1).unwrap();
        let loop_edge = g.out_deps(b).next().unwrap();
        // M=0, CE(B)=2, CB(A)=9, k=1: ceil(2-9+1) = -6 -> 0.
        assert_eq!(psl(&g, &m, &s, loop_edge), Some(0));
    }

    #[test]
    fn violation_display() {
        let v = Violation::Precedence {
            edge: EdgeId::from_index(0),
            earliest: 4,
            actual: 2,
        };
        assert!(v.to_string().contains("earliest legal cs4"));
        assert!(v.to_string().starts_with("[CCS021]"));
    }

    #[test]
    fn nonexistent_pe_reported_not_panicked() {
        let (g, m) = setup(); // machine has 2 PEs
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let mut s = Schedule::new(4); // table sized for a bigger machine
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(3), 2, 2).unwrap(); // Pe(3) does not exist on m
        let errs = validate(&g, &m, &s).unwrap_err();
        assert!(errs.iter().any(|v| matches!(
            v,
            Violation::BadPe {
                pe: Pe(3),
                num_pes: 2,
                ..
            }
        )));
        assert!(errs.iter().any(|v| v.code() == "CCS024"));
    }

    #[test]
    fn unreachable_pe_pair_reported() {
        let (g, _) = setup();
        let m = Machine::from_links("islands", 4, &[(0, 1), (2, 3)]);
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let mut s = Schedule::new(4);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(2), 2, 2).unwrap(); // island the data cannot reach
        let errs = validate(&g, &m, &s).unwrap_err();
        // Both edges (A->B intra, B->A loop) cross the partition.
        let unreachable: Vec<_> = errs
            .iter()
            .filter(|v| matches!(v, Violation::UnreachablePes { .. }))
            .collect();
        assert_eq!(unreachable.len(), 2);
        assert!(unreachable.iter().all(|v| v.code() == "CCS025"));
        // psl is total on the stranded edge: no finite value.
        let loop_edge = g.out_deps(b).next().unwrap();
        assert_eq!(psl(&g, &m, &s, loop_edge), None);
    }

    #[test]
    fn duplicate_placement_detected_both_directions() {
        let (g, m) = setup();
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        // Direction 1: slot list says Pe(1), occupancy still marks Pe(0)
        // (a stale duplicate left by a buggy in-place move).
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(0), 2, 2).unwrap();
        s.fault_force_slot(
            a,
            Slot {
                pe: Pe(1),
                start: 1,
                duration: 1,
            },
        );
        let errs = validate(&g, &m, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::DuplicatePlacement { node } if *node == a)));
        // Direction 2: an extra occupancy cell not backed by any slot.
        let mut s2 = Schedule::new(2);
        s2.place(a, Pe(0), 1, 1).unwrap();
        s2.place(b, Pe(0), 2, 2).unwrap();
        s2.fault_force_occupy(Pe(1), 3, a);
        let errs = validate(&g, &m, &s2).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::DuplicatePlacement { node } if *node == a)));
        assert!(errs.iter().any(|v| v.code() == "CCS026"));
    }

    #[test]
    fn forced_overlap_detected() {
        let (g, m) = setup();
        let (a, b) = (g.task_by_name("A").unwrap(), g.task_by_name("B").unwrap());
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(1), 2, 2).unwrap();
        // Corrupt B's slot onto A's cell.
        s.fault_force_slot(
            b,
            Slot {
                pe: Pe(0),
                start: 1,
                duration: 2,
            },
        );
        let errs = validate(&g, &m, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::Overlap { .. }) && v.code() == "CCS023"));
    }

    /// One re-placement step of the ledger proptest: the nodes the mask
    /// picks move to `(pe, from)` in turn, each edge incident to them
    /// gets `delay` added modulo 4, and the flag keeps the step or
    /// rolls it back.
    type Move = (u32, Vec<(usize, u32)>, u32, bool);

    /// One ledger proptest case: task times, edges `(src, dst, delay,
    /// volume)`, a machine shape, each task's first `(pe, from)`, and
    /// the moves.
    type LedgerCase = (
        Vec<u32>,
        Vec<(usize, usize, u32, u32)>,
        usize,
        Vec<(usize, u32)>,
        Vec<Move>,
    );

    /// Random graphs of 2-7 tasks (self edges and parallel edges
    /// included) on a few machines, placed at random and then moved
    /// step by step.
    fn arb_ledger_case() -> impl Strategy<Value = LedgerCase> {
        (2usize..8).prop_flat_map(|n| {
            (
                proptest::collection::vec(1u32..4, n),
                proptest::collection::vec((0..n, 0..n, 0u32..4, 1u32..4), 0..n * 3),
                0usize..4,
                proptest::collection::vec((0usize..16, 1u32..6), n),
                proptest::collection::vec(
                    (
                        0u32..(1 << n),
                        proptest::collection::vec((0usize..16, 1u32..9), n),
                        0u32..4,
                        0u32..2,
                    )
                        .prop_map(|(mask, to, delay, keep)| (mask, to, delay, keep == 1)),
                    1..12,
                ),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every refresh the ledger reads what `required_length`
        /// recomputes from scratch, and its whole tree equals a fresh
        /// build's, also when a move is undone and its edges refreshed
        /// again.
        #[test]
        fn psl_ledger_tracks_required_length((times, edges, shape, start, moves) in arb_ledger_case()) {
            let m = match shape {
                0 => Machine::linear_array(3),
                1 => Machine::ring(5),
                2 => Machine::mesh(2, 2),
                _ => Machine::complete(1),
            };
            let mut g = Csdfg::new();
            let ids: Vec<NodeId> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| g.add_task(format!("v{i}"), t).unwrap())
                .collect();
            for &(a, b, d, c) in &edges {
                g.add_dep(ids[a], ids[b], d, c).unwrap();
            }
            let pe = |i: usize| Pe::from_index(i % m.num_pes());
            let mut s = Schedule::new(m.num_pes());
            for (&v, &(p, from)) in ids.iter().zip(&start) {
                let cs = s.earliest_free(pe(p), from, g.time(v));
                s.place(v, pe(p), cs, g.time(v)).unwrap();
            }
            let mut ledger = PslLedger::new(&g, &m, &s);
            let agrees = |ledger: &PslLedger, g: &Csdfg, s: &Schedule| {
                ledger.required(s) == required_length(g, &m, s)
                    && ledger.tree == PslLedger::new(g, &m, s).tree
            };
            prop_assert!(agrees(&ledger, &g, &s));
            for (mask, to, delay, keep) in moves {
                let moved: Vec<NodeId> = ids
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| (mask >> i) & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                let saved: Vec<_> = moved.iter().map(|&v| (v, s.remove(v).unwrap())).collect();
                for &v in &moved {
                    let (p, from) = to[v.index()];
                    let cs = s.earliest_free(pe(p), from, g.time(v));
                    s.place(v, pe(p), cs, g.time(v)).unwrap();
                }
                let mut incident: Vec<EdgeId> = moved
                    .iter()
                    .flat_map(|&v| g.in_deps(v).chain(g.out_deps(v)))
                    .collect();
                let delays: Vec<_> = incident.iter().map(|&e| (e, g.delay(e))).collect();
                incident.sort_unstable();
                incident.dedup();
                for &e in &incident {
                    g.set_delay(e, (g.delay(e) + delay) % 4);
                }
                // Refresh every incident edge once per endpoint, as a
                // pass does, so some leaves are refreshed twice.
                for &v in &moved {
                    for e in g.in_deps(v).chain(g.out_deps(v)) {
                        ledger.refresh(&g, &m, &s, e);
                    }
                }
                prop_assert!(agrees(&ledger, &g, &s));
                if !keep {
                    for &v in &moved {
                        s.remove(v);
                    }
                    for &(v, slot) in &saved {
                        s.place(v, slot.pe, slot.start, slot.duration).unwrap();
                    }
                    for &(e, d) in &delays {
                        g.set_delay(e, d);
                    }
                    for &e in &incident {
                        ledger.refresh(&g, &m, &s, e);
                    }
                }
                prop_assert!(agrees(&ledger, &g, &s));
            }
        }
    }

    #[test]
    fn psl_ledger_of_a_graph_without_edges_reads_zero() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let m = Machine::linear_array(2);
        let mut s = Schedule::new(2);
        s.place(a, Pe(1), 3, 2).unwrap();
        let ledger = PslLedger::new(&g, &m, &s);
        assert_eq!(ledger.max(), 0);
        assert_eq!(ledger.required(&s), required_length(&g, &m, &s));
        assert_eq!(ledger.required(&s), 4);
    }

    #[test]
    fn paper_fig2a_initial_schedule_is_valid() {
        // Figure 2(a): the start-up schedule of the 6-node example on a
        // 2x2 mesh: A@pe1cs1, B@pe1cs2-3, C@pe2cs3, D@pe1cs4,
        // E@pe1cs5-6, F@pe1cs7.
        let mut g = Csdfg::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|nm| {
                let t = if *nm == "B" || *nm == "E" { 2 } else { 1 };
                g.add_task(*nm, t).unwrap()
            })
            .collect();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        g.add_dep(a, e, 0, 1).unwrap();
        g.add_dep(b, d, 0, 1).unwrap();
        g.add_dep(b, e, 0, 2).unwrap();
        g.add_dep(c, e, 0, 1).unwrap();
        g.add_dep(d, a, 3, 3).unwrap();
        g.add_dep(d, f, 0, 2).unwrap();
        g.add_dep(e, f, 0, 1).unwrap();
        g.add_dep(f, e, 1, 1).unwrap();
        let m = Machine::mesh(2, 2);
        let mut s = Schedule::new(4);
        s.place(a, Pe(0), 1, 1).unwrap();
        s.place(b, Pe(0), 2, 2).unwrap();
        s.place(c, Pe(1), 3, 1).unwrap();
        s.place(d, Pe(0), 4, 1).unwrap();
        s.place(e, Pe(0), 5, 2).unwrap();
        s.place(f, Pe(0), 7, 1).unwrap();
        assert!(validate(&g, &m, &s).is_ok(), "{:?}", validate(&g, &m, &s));
        assert_eq!(s.length(), 7);
        // C on pe2 is legal at cs3 (A ends cs1, M = 1 hop * 1 = 1,
        // earliest = 3) but cs2 would not be:
        let mut s2 = s.clone();
        s2.remove(c).unwrap();
        s2.place(c, Pe(1), 2, 1).unwrap();
        assert!(validate(&g, &m, &s2).is_err());
    }
}
