//! One rotate-and-remap pass (paper §4: `Rotate-Remap` and
//! `Remapping`).
//!
//! Rotation deallocates the first row of the schedule table and retimes
//! those nodes by `+1` (always legal: a node at control step 1 cannot
//! have a zero-delay incoming edge).  Remapping then re-places each
//! rotated node at the best `(processor, control step)` permitted by
//! the anticipation function `AN` (Lemma 4.2) for a *target* schedule
//! length, preferring one control step shorter than before.

use crate::rings::{RingSearch, Rings};
use ccs_model::{Csdfg, NodeId};
use ccs_retiming::{rotate_in_place, unrotate_in_place};
use ccs_schedule::{PslLedger, Schedule, Slot};
use ccs_topology::{Machine, Pe};
use ccs_trace::{Candidate, Event, Off, PassStats, Placed, Probe, RunnerUp, Tls, Verdict};

/// Raw `u32` index of a node, for event payloads.  (Node indices are
/// backed by `u32` so the fallback is unreachable; `try_from` keeps
/// the remap hot path free of `as` casts.)
#[inline]
pub(crate) fn nid(v: NodeId) -> u32 {
    u32::try_from(v.index()).unwrap_or(u32::MAX)
}

/// Remapping policy (Definition 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RemapMode {
    /// Never allow the schedule to grow: if the rotated nodes cannot be
    /// re-placed within the previous length, the pass is abandoned and
    /// the previous schedule kept (this is what makes Theorem 4.4 —
    /// monotone non-increase — hold).
    WithoutRelaxation,
    /// Allow intermediate growth (at most `MAX_GROWTH` control steps
    /// beyond the previous length); the driver keeps the best schedule
    /// seen, so temporary growth can unlock shorter schedules later.
    #[default]
    WithRelaxation,
}

/// Candidate-scan strategy of the remapper when no trace sink is
/// installed.  Both policies rank PEs with the same kernel; a recorded
/// run always sweeps every PE in order, whatever the policy, so its
/// `Candidate` events and counters describe the full scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Ranks the PEs of the node's placed neighbours, then every other
    /// PE ring by ring in hop distance around them, stopping at the
    /// first ring whose floor key cannot beat the best so far (every PE
    /// in order when too few are empty for the rings to pay), with
    /// branch-and-bound PE pruning on the `(impact, cs, comm, pe)`
    /// ranking key throughout.  Both stops are on strict domination
    /// only, so the winner and every tie-break are bit-identical to
    /// [`ScanPolicy::Reference`] (proptested).
    #[default]
    Engine,
    /// Every PE in index order, pruning off.  Kept as the oracle for
    /// the pruning-soundness tests and as the baseline of the
    /// candidate-scan microbenchmark.
    Reference,
}

/// With relaxation: how many control steps beyond the previous length
/// the intermediate schedule may grow.
const MAX_GROWTH: u32 = 8;

/// Options for a rotate-remap pass.
#[derive(Clone, Copy, Debug)]
pub struct RemapConfig {
    /// Relaxation policy.
    pub mode: RemapMode,
    /// How many leading schedule rows to rotate per pass (the paper
    /// rotates one; larger values are the multi-row extension — bigger
    /// moves per pass, coarser search).  Clamped to the current
    /// schedule length.
    pub rows_per_pass: u32,
    /// Candidate-scan strategy (see [`ScanPolicy`]).
    pub scan: ScanPolicy,
    /// Read by no sweep: the candidate sweep is serial.  The field
    /// stays only because the job-level benchmark (`perfbench/`),
    /// which changes only with the benchmark itself, reads it; the
    /// next benchmark change deletes it.
    pub parallel_pes: u32,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig {
            mode: RemapMode::default(),
            rows_per_pass: 1,
            scan: ScanPolicy::default(),
            parallel_pes: 128,
        }
    }
}

/// Result of one in-place rotate-remap pass
/// ([`rotate_remap_in_place`]).  On revert the borrowed graph and
/// schedule are restored to their pre-pass state, so no cloned copies
/// need to travel back to the caller.
#[derive(Clone, Debug)]
pub struct InPlaceOutcome {
    /// Nodes that were rotated this pass.
    pub rotated: Vec<NodeId>,
    /// `true` when the pass could not re-place the rotated nodes within
    /// the mode's length budget and was rolled back.
    pub reverted: bool,
}

/// Performs one rotation + remapping pass directly on `(g, sched)`.
///
/// On success the borrowed graph carries the rotation's retiming delta
/// and the schedule holds the remapped placements.  On revert both are
/// rolled back in place — rotated slots are restored from a saved
/// first-rows snapshot (the only per-pass allocation proportional to
/// the rotation set, not the whole table) and the rotation is undone
/// edge-by-edge, so a failed pass costs no full-graph or full-table
/// clone.
///
/// `sched` must be a valid schedule of `g` on `machine` (callers in
/// this crate always pass validated schedules; debug builds re-assert).
///
/// A lone pass builds the `PSL` ledger of `(g, sched)` first, which
/// costs one [`ccs_schedule::required_length`], and its own scan
/// buffers; `cyclo_compact` keeps one of each across all its passes
/// instead.
pub fn rotate_remap_in_place(
    g: &mut Csdfg,
    machine: &Machine,
    sched: &mut Schedule,
    config: RemapConfig,
) -> InPlaceOutcome {
    let mut ledger = PslLedger::new(g, machine, sched);
    let mut scratch = Scratch::default();
    // One dispatch per pass: with no sink installed the `Off` probe
    // monomorphizes every instrumentation site away and this is the
    // exact pre-tracing code path.
    if ccs_trace::installed() {
        remap_probed(
            g,
            machine,
            sched,
            &mut ledger,
            &mut scratch,
            config,
            &mut Tls,
        )
    } else {
        remap_probed(
            g,
            machine,
            sched,
            &mut ledger,
            &mut scratch,
            config,
            &mut Off,
        )
    }
}

/// [`rotate_remap_in_place`] instrumented against probe `P` (the
/// driver threads one probe through the whole run so dispatch happens
/// once per `cyclo_compact`, not once per pass).
///
/// `ledger` must hold the `PSL` of every edge of `(g, sched)`.  The
/// pass refreshes the edges incident to its rotation set, the only
/// ones whose delay, PE pair or step difference it changes, and leaves
/// the ledger describing the pair it returns, accepted or reverted.
/// `scratch` holds the candidate scan's buffers; its contents do not
/// carry over between calls.
pub(crate) fn remap_probed<P: Probe>(
    g: &mut Csdfg,
    machine: &Machine,
    sched: &mut Schedule,
    ledger: &mut PslLedger,
    scratch: &mut Scratch,
    config: RemapConfig,
    probe: &mut P,
) -> InPlaceOutcome {
    // The pass's hot-path counters, emitted as its `PassStats` record.
    // Every increment is gated on `P::ACTIVE`, so the disabled path
    // carries no bookkeeping.
    let mut stats = PassStats::default();
    // Connectivity is a construction-time property (cached, O(1));
    // past this point the hot path reads the hop table branch-free.
    debug_assert!(
        machine.is_connected(),
        "cannot remap on disconnected machine {}",
        machine.name()
    );
    crate::oracle::verify("rotate_remap_in_place: entry", g, machine, sched);
    if P::ACTIVE {
        stats.oracle_calls += u64::from(crate::oracle::ENABLED);
    }
    let prev_len = sched.length();
    let rows = config.rows_per_pass.clamp(1, prev_len.max(1));
    let mut rotated = sched.rows_upto(rows);
    rotated.sort_by_key(|&v| {
        (
            sched.cb(v).unwrap_or(0),
            sched.pe(v).map(|p| p.index()).unwrap_or(0),
            v.index(),
        )
    });

    // Rotation (Definition 4.1). Legal by construction: a node in the
    // first `rows` rows can only have zero-delay in-edges from other
    // nodes in those rows (their producers finish even earlier), so
    // every in-edge from outside the set carries a delay.
    if rotate_in_place(g, &rotated).is_err() {
        // Unreachable for valid schedules; treat as a no-op pass
        // (`rotate_in_place` leaves `g` untouched on error).
        return InPlaceOutcome {
            rotated,
            reverted: true,
        };
    }
    if P::ACTIVE {
        probe.emit(Event::Rotate {
            nodes: rotated.iter().map(|&v| nid(v)).collect(),
        });
    }

    // Snapshot the rotated nodes' slots so a revert can restore them
    // without a table clone.
    let saved: Vec<(NodeId, Slot)> = rotated
        .iter()
        // INVARIANT: the rotation set came from rows_upto, which only
        // yields placed nodes, and nothing was removed since.
        .map(|&v| (v, sched.slot(v).expect("rotated nodes are placed")))
        .collect();
    sched.drop_and_shift_by(&rotated, rows);

    // Targets to try, in order of preference: one step shorter first.
    let targets: Vec<u32> = match config.mode {
        RemapMode::WithoutRelaxation => vec![prev_len.saturating_sub(1).max(1), prev_len],
        RemapMode::WithRelaxation => (0..=MAX_GROWTH + 1)
            .map(|d| (prev_len.saturating_sub(1).max(1)) + d)
            .collect(),
    };

    let mut failed = false;
    'remap: for &v in &rotated {
        let duration = g.time(v);
        // Placements only change between nodes, so neighbour slots can
        // be resolved once per node and reused across PEs and targets.
        scratch.resolve(g, v, sched);
        let mut attempts: u64 = 0;
        for &target in &targets {
            if P::ACTIVE {
                stats.scratch_reuses += u64::from(attempts > 0);
                attempts += 1;
            }
            let Scratch { resolved, buffers } = &mut *scratch;
            let sweep = Sweep {
                machine,
                table: sched,
                resolved,
                node: nid(v),
                duration,
                target,
            };
            if let Some(found) = best_position(&sweep, buffers, config, probe, &mut stats) {
                sched
                    .place(v, found.pe, found.cs, duration)
                    // INVARIANT: best_position only returns slots that
                    // earliest_free reported free for `duration`.
                    .expect("position checked free");
                if P::ACTIVE {
                    probe.emit(Event::Placed(Placed {
                        node: nid(v),
                        pe: found.pe.0,
                        cs: found.cs,
                        duration,
                        target,
                        impact: found.impact,
                        comm: found.comm,
                        runner_up: found.runner_up,
                    }));
                }
                continue 'remap;
            }
            if P::ACTIVE {
                probe.emit(Event::NoSlot {
                    node: nid(v),
                    target,
                });
            }
        }
        failed = true;
        break;
    }

    if !failed {
        // Cover the projected schedule lengths by appending empty steps.
        // Every other edge kept its PSL: both endpoints moved up by
        // `rows` steps, and its delay and PE pair are unchanged.
        for &v in &rotated {
            for e in g.in_deps(v).chain(g.out_deps(v)) {
                ledger.refresh(g, machine, sched, e);
            }
        }
        let required = ledger.required(sched);
        crate::oracle::verify_required(
            "rotate_remap_in_place: slack repair",
            g,
            machine,
            sched,
            required,
        );
        // Theorem 4.4: without relaxation every target is at most
        // `prev_len`, and each rotated node was placed inside its
        // target's `AN` window, `CE(v) <= ub <= target`, which bounds
        // the PSL of each of its edges to a node placed before it by
        // the target.  Edges to rotated nodes placed after it are
        // bounded when those are placed, edges touching no rotated
        // node keep their PSL (at most `prev_len`), and a self edge's
        // PSL is at most `t(v) <= CE(v)`.  So a pass that places every
        // node never grows the schedule.
        if crate::oracle::ENABLED && config.mode == RemapMode::WithoutRelaxation {
            assert!(
                required <= prev_len,
                "a pass without relaxation grew the schedule from {prev_len} to {required}"
            );
        }
        if P::ACTIVE && required > sched.length() {
            probe.emit(Event::SlackRepair {
                required,
                occupied: sched.length(),
            });
        }
        sched.pad_to(required);
        crate::oracle::verify("rotate_remap_in_place: accepted remap", g, machine, sched);
        // Attribution delta of the accepted placement: the edges whose
        // communication this pass moved to another PE pair.
        crate::traffic::emit_moved_edge_traffic(g, machine, sched, &saved, probe);
        if P::ACTIVE {
            stats.oracle_calls += u64::from(crate::oracle::ENABLED);
            probe.emit(Event::PassStats(stats));
        }
        return InPlaceOutcome {
            rotated,
            reverted: false,
        };
    }

    // Roll back in place: un-place whatever was re-placed so far (some
    // rotated nodes may not have been when the remap failed), undo the
    // renumbering shift, restore the saved first rows and the original
    // padding, and un-rotate the graph.  The ledger is refreshed only
    // once every node is placed, so it still describes the pre-pass
    // pair.
    for &(v, _) in &saved {
        sched.remove(v);
    }
    sched.shift_later(rows);
    for &(v, s) in &saved {
        sched
            .place(v, s.pe, s.start, s.duration)
            // INVARIANT: these exact cells were freed by the removes
            // above; restoring the pre-pass placement cannot collide.
            .expect("restoring original placement");
    }
    sched.trim_padding();
    sched.pad_to(prev_len);
    unrotate_in_place(g, &rotated);
    crate::oracle::verify("rotate_remap_in_place: rollback", g, machine, sched);
    if P::ACTIVE {
        stats.oracle_calls += u64::from(crate::oracle::ENABLED);
        probe.emit(Event::PassStats(stats));
    }
    InPlaceOutcome {
        rotated,
        reverted: true,
    }
}

/// One edge to an already-placed neighbour, resolved against the
/// current table: `step` is `CE(u)` for in-edges and `CB(w)` for
/// out-edges.
#[derive(Clone, Copy)]
struct PlacedEdge {
    /// Edge delay `d_r(e)`.
    k: i64,
    /// Data volume.
    vol: u32,
    /// The neighbour's processor.
    pe: Pe,
    /// `CE(u)` (in-edge) or `CB(w)` (out-edge).
    step: i64,
}

/// The candidate scan's buffers, reused by every node of every pass
/// of a run: the resolved neighbourhood of the node being placed, and
/// what its sweeps walk.
#[derive(Default)]
pub(crate) struct Scratch {
    resolved: Resolved,
    buffers: SweepBuffers,
}

/// What a sweep walks: the ring walker, and the per-PE `AN` window of
/// the PEs being ranked.
#[derive(Default)]
struct SweepBuffers {
    rings: Rings,
    window: Window,
}

/// One node's neighbourhood, resolved against the current table: its
/// placed neighbours, resolved once per node so they are shared across
/// every target the remapper tries.
#[derive(Default)]
struct Resolved {
    ins: Vec<PlacedEdge>,
    outs: Vec<PlacedEdge>,
}

impl Resolved {
    /// The PEs of the placed neighbours: the sources of the rings.
    fn pes(&self) -> impl Iterator<Item = Pe> + '_ {
        self.ins.iter().chain(&self.outs).map(|e| e.pe)
    }
}

/// The per-PE `AN` window of one ranked list of PEs: `lb` bounds
/// `CB(v)` from below, `ub` bounds `CE(v)` from above, and `comm` is
/// the total traffic, `Σ hops · c(e)` over the placed neighbours.
#[derive(Default)]
struct Window {
    lb: Vec<i64>,
    ub: Vec<i64>,
    comm: Vec<u32>,
}

impl Scratch {
    /// Resolves node `v`'s non-self edges against the current table,
    /// keeping only edges whose neighbour is placed (unplaced
    /// neighbours never constrain; self loops constrain only through
    /// the node's own PSL, which the slack repair covers).  Every
    /// buffer is `clear`ed before refilling, so a node with fewer
    /// resolved edges than its predecessor can never observe stale
    /// slots (regression-tested below).
    fn resolve(&mut self, g: &Csdfg, v: NodeId, table: &Schedule) {
        let r = &mut self.resolved;
        r.ins.clear();
        for e in g.in_deps(v) {
            let (u, _) = g.endpoints(e);
            if u == v {
                continue;
            }
            let (Some(ce_u), Some(pu)) = (table.ce(u), table.pe(u)) else {
                continue;
            };
            r.ins.push(PlacedEdge {
                k: i64::from(g.delay(e)),
                vol: g.volume(e),
                pe: pu,
                step: i64::from(ce_u),
            });
        }
        r.outs.clear();
        for e in g.out_deps(v) {
            let (_, w) = g.endpoints(e);
            if w == v {
                continue;
            }
            let (Some(cb_w), Some(pw)) = (table.cb(w), table.pe(w)) else {
                continue;
            };
            r.outs.push(PlacedEdge {
                k: i64::from(g.delay(e)),
                vol: g.volume(e),
                pe: pw,
                step: i64::from(cb_w),
            });
        }
    }
}

/// Projected schedule length of one loop-carried edge (Lemma 4.3):
/// `ceil((M + CE(u) - CB(w) + 1) / k)`.  The single-division fast
/// path is shared with the schedule checker so the scheduler and the
/// validator can never disagree on rounding.
#[inline]
fn psl(m: i64, ce: i64, cb: i64, k: i64) -> i64 {
    ccs_schedule::psl_value(m, ce, cb, k)
}

/// The PSL early exit's threshold for an edge of delay `k`: `k · I`
/// (saturating) against an incumbent of impact `I`, or `i64::MAX` —
/// never exceeded — without one.
fn psl_cap(incumbent: Option<CandKey>) -> impl Fn(i64) -> i64 {
    let impact = incumbent.map(|b| i64::from(b.0));
    move |k| impact.map_or(i64::MAX, |i| k.saturating_mul(i))
}

/// The winning placement found by [`best_position`], with the ranking
/// components the tracing layer reports (`impact`, `comm`) and the
/// second-best candidate for the `--explain` narrative.
struct Placement {
    /// Start control step.
    cs: u32,
    /// Chosen processor.
    pe: Pe,
    /// Schedule length this placement forces (Lemma 4.3).
    impact: u32,
    /// Total communication traffic.
    comm: u32,
    /// Second-best candidate under the same ranking (only tracked when
    /// the probe is active; always `None` otherwise).
    runner_up: Option<RunnerUp>,
}

/// A candidate's full ranking key `(impact, cs, comm, pe index)`;
/// lexicographic minimum wins, and the trailing PE index makes the
/// minimum unique, so the winner does not depend on the order in which
/// PEs are ranked.
type CandKey = (u32, u32, u32, u32);

/// The best and second-best keys ranked so far.
#[derive(Default)]
struct Ranked {
    best: Option<CandKey>,
    /// Runner-up for the explain narrative (probe-gated).
    second: Option<CandKey>,
}

/// What one candidate sweep reads: the node whose neighbourhood is
/// `resolved`, its duration, and the final-schedule-length `target` it
/// is placed under.
struct Sweep<'a> {
    machine: &'a Machine,
    table: &'a Schedule,
    resolved: &'a Resolved,
    node: u32,
    duration: u32,
    target: u32,
}

/// The ranking kernel: ranks every PE of `pes` for the sweep's node,
/// folding each key into `ranked`.
///
/// For every processor the anticipation function gives the first
/// control step that satisfies all *placed* predecessors:
///
/// `AN(v, p) = max_e { M(PE(u), p) + CE(u) + 1 - d_r(e) * target }`
///
/// (Lemma 4.2 with `L - 1` generalized to `target`; a zero-delay edge
/// contributes plain precedence `CE(u) + M + 1`).  Placed successors
/// bound `CE(v)` from above through their own projected schedule
/// lengths.
///
/// Candidates are ranked by `(length impact, cs, traffic, pe index)`.
/// The driving objective is the schedule length the placement forces —
/// the max of the node's own end step and the projected schedule
/// lengths (Lemma 4.3) of its loop-carried edges to placed neighbours.
/// Control step breaks ties (earlier leaves room for later rotations),
/// then total data movement, then processor index.  Ranking by length
/// impact rather than raw `cs` stops the greedy from scattering tasks
/// across dense machines: a remote slot one step earlier is worthless
/// if its communication inflates a projected schedule length.
///
/// The `AN` bounds and the traffic are computed column-major: one
/// tight loop per resolved edge over `pes`, reading the edge's
/// hop-distance row, instead of re-walking the edge list once per PE.
/// They are written into `window`, one entry per listed PE.
///
/// With `prune`, branch-and-bound decides per PE whether the expensive
/// part — the free-window scan and the PSL sweep — can be skipped:
/// every component of the eventual key is bounded below by what is
/// already fixed (`cs` by the anticipation bound and the PE's free
/// cursor, `impact` by the end step of that earliest window, `comm` and
/// `pe` exactly), and component-wise `>=` implies lexicographic `>=`.
/// A PE is pruned only when even its floor key fails to *strictly* beat
/// the incumbent — precisely the candidates the unpruned sweep would
/// discard too — so winner and tie-breaks are bit-identical.
///
/// Under an active probe every PE emits an [`Event::Candidate`] with
/// its `AN` window and verdict, `stats` tallies edges swept and slots
/// probed, and the second-best key is tracked for the
/// placement's `runner_up`.  [`best_position`] never prunes then, and
/// lists every PE in order, so the events describe the full sweep.
fn rank_pes<P: Probe>(
    sweep: &Sweep<'_>,
    pes: &[u32],
    prune: bool,
    window: &mut Window,
    ranked: &mut Ranked,
    probe: &mut P,
    stats: &mut PassStats,
) {
    let Sweep {
        machine,
        table,
        resolved,
        node,
        duration,
        target,
    } = *sweep;
    let target_len = i64::from(target);
    let dur = i64::from(duration);
    if P::ACTIVE {
        stats.edges_swept += (pes.len() * (resolved.ins.len() + resolved.outs.len())) as u64;
    }
    // Lower bound on CB(v) per PE from placed predecessors (Lemma 4.2),
    // upper bound on CE(v) from placed successors and the target, and
    // the traffic, accumulated column-major off each edge's hop row.
    let Window { lb, ub, comm } = window;
    lb.clear();
    lb.resize(pes.len(), 1);
    comm.clear();
    comm.resize(pes.len(), 0);
    for e in &resolved.ins {
        let base = e.step + 1 - e.k * target_len;
        let (vol, row) = (e.vol, machine.dist_row(e.pe));
        for ((l, c), &p) in lb.iter_mut().zip(comm.iter_mut()).zip(pes) {
            let m = row[p as usize] * vol;
            *l = (*l).max(i64::from(m) + base);
            *c += m;
        }
    }
    ub.clear();
    ub.resize(pes.len(), target_len);
    for e in &resolved.outs {
        let base = e.k * target_len + e.step - 1;
        let (vol, row) = (e.vol, machine.dist_row(e.pe));
        for ((u, c), &p) in ub.iter_mut().zip(comm.iter_mut()).zip(pes) {
            let m = row[p as usize] * vol;
            *u = (*u).min(base - i64::from(m));
            *c += m;
        }
    }
    let Ranked { best, second } = ranked;
    'pes: for (((&p, &lb), &ub), &comm) in pes.iter().zip(lb.iter()).zip(ub.iter()).zip(comm.iter())
    {
        let pe = Pe(p);
        if lb > ub {
            if P::ACTIVE {
                probe.emit(Event::Candidate(Candidate {
                    node,
                    target,
                    pe: p,
                    lb,
                    ub,
                    comm,
                    verdict: Verdict::Infeasible,
                }));
            }
            continue;
        }
        // INVARIANT: lb <= ub <= target at this point (checked above)
        // and target is a u32, so the clamped value always fits.
        let from = u32::try_from(lb.max(1)).expect("clamped positive");
        if let Some(incumbent) = best.filter(|_| prune) {
            let floor = from.max(table.free_cursor(pe));
            let impact_floor = u32::try_from(i64::from(floor) + dur - 1).unwrap_or(u32::MAX);
            if (impact_floor, floor, comm, p) >= incumbent {
                continue;
            }
        }
        let cs = table.earliest_free(pe, from, duration);
        if P::ACTIVE {
            stats.slots_probed += 1;
        }
        let ce_v = i64::from(cs) + dur - 1;
        if ce_v > ub {
            if P::ACTIVE {
                probe.emit(Event::Candidate(Candidate {
                    node,
                    target,
                    pe: p,
                    lb,
                    ub,
                    comm,
                    verdict: Verdict::NoFreeSlot,
                }));
            }
            continue;
        }
        // Length impact: the node's own end step and the PSL of every
        // loop-carried edge to a placed neighbour.  PSL early exit
        // (pruned sweeps only): against an incumbent of impact `I`, an
        // edge whose PSL numerator `x = m + ce - cb + 1` exceeds `k · I`
        // forces `ceil(x / k) > I`, so the PE loses and is skipped at
        // once.  An incumbent at `u32::MAX` never exits: impacts
        // saturate there, so a tie on it is still decided by `cs`.
        let cap = psl_cap(best.filter(|b| prune && b.0 < u32::MAX));
        let cb_v = i64::from(cs);
        let mut needed = ce_v;
        for e in &resolved.ins {
            if e.k > 0 {
                let m = i64::from(machine.dist_row(e.pe)[p as usize] * e.vol);
                if m + e.step - cb_v + 1 > cap(e.k) {
                    continue 'pes;
                }
                needed = needed.max(psl(m, e.step, cb_v, e.k));
            }
        }
        for e in &resolved.outs {
            if e.k > 0 {
                let m = i64::from(machine.dist_row(e.pe)[p as usize] * e.vol);
                if m + ce_v - e.step + 1 > cap(e.k) {
                    continue 'pes;
                }
                needed = needed.max(psl(m, ce_v, e.step, e.k));
            }
        }
        // Saturating conversion: PSL terms are sums of u32 quantities
        // and cannot meaningfully exceed u32::MAX; if one ever does,
        // the candidate simply ranks last instead of panicking.
        let impact = u32::try_from(needed.max(0)).unwrap_or(u32::MAX);
        let key = (impact, cs, comm, p);
        let leads = best.is_none_or(|b| key < b);
        if P::ACTIVE {
            probe.emit(Event::Candidate(Candidate {
                node,
                target,
                pe: p,
                lb,
                ub,
                comm,
                verdict: if leads {
                    Verdict::Leading { cs, impact }
                } else {
                    Verdict::Feasible { cs, impact }
                },
            }));
            // The displaced best (or the losing candidate) competes
            // for the runner-up slot.
            let contender = if leads { *best } else { Some(key) };
            if contender.is_some_and(|c| second.is_none_or(|s| c < s)) {
                *second = contender;
            }
        }
        if leads {
            *best = Some(key);
        }
    }
}

/// The engine's sweep: the pruned kernel over the PE lists of
/// [`Rings::search`], which stops on [`floor_key`].
struct Engine<'s, 'a> {
    sweep: &'s Sweep<'a>,
    window: &'s mut Window,
    ranked: Ranked,
}

impl RingSearch for Engine<'_, '_> {
    fn rank(&mut self, pes: &[u32]) {
        let stats = &mut PassStats::default();
        rank_pes(
            self.sweep,
            pes,
            true,
            self.window,
            &mut self.ranked,
            &mut Off,
            stats,
        );
    }

    fn beaten(&self, hops: u32) -> bool {
        match floor_key(self.sweep, hops) {
            None => true,
            Some(floor) => self
                .ranked
                .best
                .is_some_and(|(impact, cs, comm, _)| floor > (impact, cs, comm)),
        }
    }
}

/// The floor of `(impact, cs, comm)` over every PE at least `hops` hops
/// from each placed neighbour's PE, or `None` when none of them can
/// take the node.
///
/// A PE starts the node no earlier than its `AN` bound `lb`, and an
/// empty row makes `earliest_free(p, from, t) == from`, so an empty PE
/// starts it exactly there: its key depends only on its hop distances,
/// and the floor is exact for it.  With every distance at least `r`:
/// `lb >= L = max(1, max_in(r·c + CE(u) + 1 - k·T))`,
/// `ub <= U = min(T, min_out(k·T + CB(w) - 1 - r·c))`, so a PE fits
/// only when `L + t - 1 <= U`; `cs >= L`; the impact is at least the
/// end step `L + t - 1` and each out-edge's PSL at `r` hops; and
/// `comm >= r·Σc`.  The floors saturate at `u32::MAX`, as the keys do.
fn floor_key(sweep: &Sweep<'_>, hops: u32) -> Option<(u32, u32, u32)> {
    let Resolved { ins, outs } = sweep.resolved;
    let r = i64::from(hops);
    let target = i64::from(sweep.target);
    let lb = ins
        .iter()
        .map(|e| r * i64::from(e.vol) + e.step + 1 - e.k * target)
        .fold(1, i64::max);
    let ub = outs
        .iter()
        .map(|e| e.k * target + e.step - 1 - r * i64::from(e.vol))
        .fold(target, i64::min);
    let ce = lb + i64::from(sweep.duration) - 1;
    if ce > ub {
        return None;
    }
    let impact = outs
        .iter()
        .filter(|e| e.k > 0)
        .map(|e| psl(r * i64::from(e.vol), ce, e.step, e.k))
        .fold(ce, i64::max);
    let comm: i64 = ins.iter().chain(outs).map(|e| r * i64::from(e.vol)).sum();
    let clamp = |x: i64| u32::try_from(x).unwrap_or(u32::MAX);
    Some((clamp(impact), clamp(lb), clamp(comm)))
}

/// Finds the best feasible `(control step, processor)` for the sweep's
/// node, or `None`.
///
/// An unrecorded run under [`ScanPolicy::Engine`] prunes, and ranks the
/// PEs ring by ring around the placed neighbours' PEs
/// ([`Rings::search`]) when enough PEs are empty for that to pay
/// ([`Rings::worth_walking`]), every PE in order otherwise.  A recorded
/// run and [`ScanPolicy::Reference`] rank every PE in order, unpruned.
/// All return the same winner, bit-identically.
fn best_position<P: Probe>(
    sweep: &Sweep<'_>,
    buffers: &mut SweepBuffers,
    config: RemapConfig,
    probe: &mut P,
    stats: &mut PassStats,
) -> Option<Placement> {
    let SweepBuffers { rings, window } = buffers;
    let prune = !P::ACTIVE && config.scan == ScanPolicy::Engine;
    let ranked = if prune && rings.worth_walking(sweep.table) {
        let mut engine = Engine {
            sweep,
            window,
            ranked: Ranked::default(),
        };
        let sources = sweep.resolved.pes();
        rings.search(sweep.machine, sweep.table, sources, &mut engine);
        engine.ranked
    } else {
        let mut ranked = Ranked::default();
        let all = rings.every_pe(sweep.machine.num_pes());
        rank_pes(sweep, all, prune, window, &mut ranked, probe, stats);
        ranked
    };
    let (impact, cs, comm, pe) = ranked.best?;
    Some(Placement {
        cs,
        pe: Pe(pe),
        impact,
        comm,
        runner_up: ranked.second.map(|(impact, cs, comm, pe)| RunnerUp {
            pe,
            cs,
            impact,
            comm,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::startup::{startup_schedule, StartupConfig};
    use ccs_schedule::validate;
    use proptest::prelude::*;

    fn fig1() -> (Csdfg, Vec<NodeId>, Machine) {
        let mut g = Csdfg::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| {
                let t = if *n == "B" || *n == "E" { 2 } else { 1 };
                g.add_task(*n, t).unwrap()
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
        (g, ids, Machine::mesh(2, 2))
    }

    #[test]
    fn first_pass_rotates_a_and_shrinks() {
        let (mut g, n, m) = fig1();
        let mut s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        assert_eq!(s.length(), 7);
        let out = rotate_remap_in_place(&mut g, &m, &mut s, RemapConfig::default());
        assert!(!out.reverted);
        assert_eq!(out.rotated, vec![n[0]]); // A was the only cs1 node
                                             // The paper's first pass lands at 6 control steps.
        assert_eq!(s.length(), 6);
        assert!(validate(&g, &m, &s).is_ok());
        // Figure 1(c): D->A now carries 2 delays, A->B/C/E carry 1.
        let da = g.graph().find_edge(n[3], n[0]).unwrap();
        assert_eq!(g.delay(da), 2);
    }

    #[test]
    fn without_relaxation_never_grows() {
        let (mut graph, _, m) = fig1();
        let mut s = startup_schedule(&graph, &m, StartupConfig::default()).unwrap();
        let cfg = RemapConfig {
            mode: RemapMode::WithoutRelaxation,
            rows_per_pass: 1,
            ..Default::default()
        };
        for _ in 0..10 {
            let prev = s.length();
            let out = rotate_remap_in_place(&mut graph, &m, &mut s, cfg);
            assert!(s.length() <= prev, "grew from {prev}");
            assert!(validate(&graph, &m, &s).is_ok());
            if out.reverted {
                break;
            }
        }
    }

    #[test]
    fn repeated_passes_reach_paper_length_five() {
        // Figure 3(b): after three passes the example reaches 5 control
        // steps on the 2x2 mesh.
        let (mut graph, _, m) = fig1();
        let mut s = startup_schedule(&graph, &m, StartupConfig::default()).unwrap();
        let mut best = s.length();
        for _ in 0..8 {
            let out = rotate_remap_in_place(&mut graph, &m, &mut s, RemapConfig::default());
            if out.reverted {
                break;
            }
            best = best.min(s.length());
        }
        assert!(best <= 5, "expected <= 5 control steps, got {best}");
    }

    #[test]
    fn pass_preserves_task_count() {
        let (g, _, m) = fig1();
        let mut s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        rotate_remap_in_place(&mut g.clone(), &m, &mut s, RemapConfig::default());
        assert_eq!(s.placed_count(), g.task_count());
    }

    #[test]
    fn multi_row_rotation_is_valid_and_competitive() {
        let (g, _, m) = fig1();
        for rows in 1..=3u32 {
            let cfg = RemapConfig {
                rows_per_pass: rows,
                ..Default::default()
            };
            let mut graph = g.clone();
            let mut s = startup_schedule(&graph, &m, StartupConfig::default()).unwrap();
            let mut best = s.length();
            for _ in 0..12 {
                let out = rotate_remap_in_place(&mut graph, &m, &mut s, cfg);
                assert!(
                    validate(&graph, &m, &s).is_ok(),
                    "rows={rows}: invalid schedule"
                );
                if out.reverted {
                    break;
                }
                best = best.min(s.length());
            }
            assert!(best <= 6, "rows={rows}: best {best}");
        }
    }

    #[test]
    fn rotating_more_rows_than_length_rotates_everything() {
        let (g, _, m) = fig1();
        let mut s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let cfg = RemapConfig {
            rows_per_pass: 99,
            ..Default::default()
        };
        let mut graph = g.clone();
        let out = rotate_remap_in_place(&mut graph, &m, &mut s, cfg);
        if !out.reverted {
            assert_eq!(out.rotated.len(), g.task_count());
            assert!(validate(&graph, &m, &s).is_ok());
        }
    }

    #[test]
    fn scratch_resolve_cannot_leak_stale_slots() {
        // Regression: `resolve` once grew its per-edge cost buffers
        // with a bare `Vec::resize`, which never shrinks — a node with
        // fewer resolved edges than its predecessor would keep the old
        // tail alive and a later sweep could read stale costs.  Resolve
        // a fat node, then a thin one, and check every buffer is
        // exactly sized and freshly filled.
        let mut g = Csdfg::new();
        let hub = g.add_task("hub", 1).unwrap();
        let spokes: Vec<_> = (0..5)
            .map(|i| g.add_task(format!("s{i}"), 1).unwrap())
            .collect();
        for &s in &spokes {
            g.add_dep(s, hub, 1, 7).unwrap();
            g.add_dep(hub, s, 1, 7).unwrap();
        }
        let thin = g.add_task("thin", 1).unwrap();
        g.add_dep(spokes[0], thin, 1, 2).unwrap();
        g.add_dep(thin, spokes[0], 1, 2).unwrap();

        let m = Machine::mesh(2, 2);
        let mut sched = Schedule::new(m.num_pes());
        for (i, &s) in spokes.iter().enumerate() {
            // INVARIANT: distinct (pe, cs) cells by construction.
            sched
                .place(
                    s,
                    Pe::from_index(i % 4),
                    u32::try_from(i / 4 + 1).unwrap(),
                    1,
                )
                .unwrap();
        }

        let mut scratch = Scratch::default();
        scratch.resolve(&g, hub, &sched);
        let r = &scratch.resolved;
        assert_eq!(r.ins.len(), 5);
        assert_eq!(r.outs.len(), 5);

        scratch.resolve(&g, thin, &sched);
        let r = &scratch.resolved;
        assert_eq!(r.ins.len(), 1, "thin node resolves one in-edge");
        assert_eq!(r.outs.len(), 1);
        // Both are the thin node's own edges: to and from spoke0 on
        // PE 0, volume 2.
        for e in r.ins.iter().chain(&r.outs) {
            assert_eq!((e.pe, e.vol, e.k), (Pe(0), 2, 1));
        }
        // The window's traffic column is sized by the ranked list, and
        // filled afresh by each ranking.
        let Scratch { resolved, buffers } = &mut scratch;
        let window = &mut buffers.window;
        let sweep = Sweep {
            machine: &m,
            table: &sched,
            resolved,
            node: nid(thin),
            duration: 1,
            target: 9,
        };
        window.comm.fill(99);
        let mut ranked = Ranked::default();
        rank_pes(
            &sweep,
            &[3, 1],
            false,
            window,
            &mut ranked,
            &mut Off,
            &mut PassStats::default(),
        );
        let expect: Vec<u32> = [3, 1].iter().map(|&p| m.dist_row(Pe(0))[p] * 4).collect();
        assert_eq!(window.comm, expect);
    }

    #[test]
    fn psl_early_exit_skips_only_losing_pes() {
        // u on PE1 at cs 1 feeds v over a delay-2 edge of volume 3 on a
        // 4-PE line.  PE1 is busy at cs 1, so v lands at cs 2 there:
        // impact 2, the first incumbent.  On PE2 (1 hop) v starts at
        // cs 1 and the PSL numerator is x = 3 + 1 - 1 + 1 = 4 = k * I:
        // ceil(4/2) = 2 ties on impact, so no exit, and cs 1 wins.  On
        // PE3 (2 hops) x = 7 > 4, so ceil(7/2) = 4 > 2 and the exit
        // skips it; PE4 (x = 10) likewise.
        let mut g = Csdfg::new();
        let u = g.add_task("u", 1).unwrap();
        let v = g.add_task("v", 1).unwrap();
        g.add_dep(u, v, 2, 3).unwrap();
        let m = Machine::linear_array(4);
        let mut table = Schedule::new(m.num_pes());
        table.place(u, Pe(0), 1, 1).unwrap();
        let mut scratch = Scratch::default();
        scratch.resolve(&g, v, &table);
        let Scratch { resolved, buffers } = &mut scratch;
        let window = &mut buffers.window;
        let sweep = Sweep {
            machine: &m,
            table: &table,
            resolved,
            node: u32::try_from(v.index()).unwrap(),
            duration: 1,
            target: 10,
        };
        let mut scan = |prune| {
            let mut ranked = Ranked::default();
            rank_pes(
                &sweep,
                &[0, 1, 2, 3],
                prune,
                window,
                &mut ranked,
                &mut Off,
                &mut PassStats::default(),
            );
            ranked.best
        };
        let pruned = scan(true);
        let full = scan(false);
        assert_eq!(pruned, full, "the exit never changes the winner");
        let winner = full.expect("v fits");
        assert_eq!((winner.0, winner.1, winner.3), (2, 1, 1), "PE2 wins on cs");
        let cap = psl_cap(Some(winner));
        assert!(7 > cap(2), "the exit fires on PE3");
        assert_eq!(cap(2), 4, "x = k * I is a tie, not an exit");
        assert_eq!(psl_cap(None)(2), i64::MAX, "no incumbent, no exit");
        let huge = psl_cap(Some((u32::MAX - 1, 0, 0, 0)));
        assert_eq!(huge(i64::from(u32::MAX)), i64::MAX, "k * I saturates");
    }

    /// A placement's key, `(impact, cs, comm, pe)`.
    fn key(p: Placement) -> CandKey {
        (p.impact, p.cs, p.comm, p.pe.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The engine's ring search lands on the key of the full
        /// unpruned sweep, or finds nothing with it: on mostly-empty
        /// tables, with placed in- and out-neighbours anywhere, for
        /// every target.
        #[test]
        fn ring_search_matches_the_full_sweep(
            m in crate::startup::tests::arb_machine(),
            duration in 1u32..4,
            neighbours in proptest::collection::vec(
                (0u32..2, 0u32..3, 1u32..6, 0usize..64, 1u32..12, 1u32..3),
                0..6,
            ),
            others in proptest::collection::vec((0usize..64, 1u32..12, 1u32..3), 0..8),
            targets in proptest::collection::vec(1u32..24, 1..4),
        ) {
            let mut g = Csdfg::new();
            let v = g.add_task("v", duration).unwrap();
            let mut table = Schedule::new(m.num_pes());
            let mut put = |g: &mut Csdfg, name: String, pe: usize, from: u32, t: u32| {
                let u = g.add_task(name, t).unwrap();
                let pe = Pe::from_index(pe % m.num_pes());
                let cs = table.earliest_free(pe, from, t);
                table.place(u, pe, cs, t).unwrap();
                u
            };
            for (i, &(out, k, vol, pe, from, t)) in neighbours.iter().enumerate() {
                let u = put(&mut g, format!("n{i}"), pe, from, t);
                let (a, b) = if out == 1 { (v, u) } else { (u, v) };
                g.add_dep(a, b, k, vol).unwrap();
            }
            for (i, &(pe, from, t)) in others.iter().enumerate() {
                put(&mut g, format!("o{i}"), pe, from, t);
            }
            let mut scratch = Scratch::default();
            scratch.resolve(&g, v, &table);
            scratch.buffers.rings = Rings::walking();
            for &target in &targets {
                let Scratch { resolved, buffers } = &mut scratch;
                let sweep = Sweep { machine: &m, table: &table, resolved, node: nid(v), duration, target };
                let mut place = |scan| {
                    let config = RemapConfig { scan, ..Default::default() };
                    best_position(&sweep, buffers, config, &mut Off, &mut PassStats::default()).map(key)
                };
                let engine = place(ScanPolicy::Engine);
                let full = place(ScanPolicy::Reference);
                prop_assert_eq!(engine, full, "{} at target {}", m.name(), target);
            }
        }
    }

    #[test]
    fn engine_compactions_never_list_the_links_of_complete_or_ideal_machines() {
        // Both sweeps answer these machines without expanding a ring,
        // so their O(PEs²) neighbour lists are never built; nor does
        // the debug oracle's bound check at the end, whose witness
        // route joins two linked PEs.
        let (g, _, _) = fig1();
        let compact = |m: &Machine| {
            let r = crate::cyclo_compact(&g, m, crate::CompactConfig::default()).unwrap();
            assert!(validate(&r.graph, m, &r.schedule).is_ok());
        };
        for m in [Machine::complete(1024), Machine::ideal(64)] {
            compact(&m);
            assert!(!m.has_adjacency(), "{} listed its links", m.name());
        }
        // A mesh does walk its links.
        let m = Machine::mesh(8, 8);
        compact(&m);
        assert!(m.has_adjacency());
    }

    #[test]
    fn empty_first_row_pass_compresses() {
        // Hand-build a schedule whose first row is empty: the pass
        // shifts everything up for free.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        let m = Machine::complete(2);
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 2, 1).unwrap();
        s.place(b, Pe(0), 3, 1).unwrap();
        assert!(validate(&g, &m, &s).is_ok());
        let out = rotate_remap_in_place(&mut g, &m, &mut s, RemapConfig::default());
        assert!(!out.reverted);
        assert!(out.rotated.is_empty());
        assert_eq!(s.cb(a), Some(1));
        assert_eq!(s.length(), 2);
    }
}
