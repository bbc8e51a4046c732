//! # ccs-profile
//!
//! Communication profiling for the cyclo-compaction pipeline.
//!
//! The scheduler's whole premise is that schedule quality is governed
//! by *where communication lands*: every dependence edge `e = (u, v)`
//! pays `M(PE(u), PE(v)) = hops · c(e)` control steps.  The trace
//! layer (`ccs-trace`) emits per-edge attribution rows (`traffic.edge`:
//! full snapshots at start-up and for the final best schedule, and per
//! accepted pass only the edges it moved) and per-PE loads
//! (`traffic.pe`).  This crate upserts the rows into one running
//! [`TrafficLedger`] and folds the stream into a [`CommProfile`]:
//!
//! * a **per-edge traffic ledger** of the final best schedule (who
//!   talks to whom, over how many hops, at what cost), whose rows are
//!   the `traffic.edge` records ([`EdgeTraffic`]) as the trace carries
//!   them;
//! * a **hop-weighted link-load matrix** keyed by the machine's
//!   physical links (the machine's deterministic BFS routes,
//!   [`Machine::next_hop`], filled per destination on first use);
//! * **per-PE timelines** — tasks hosted, busy/idle cells, traffic
//!   sent and received;
//! * **per-pass comm/compute balance** — how crossing traffic and
//!   total comm cost evolve from the start-up schedule through every
//!   accepted compaction pass;
//! * **the pass story** — the start-up placement, and per pass the
//!   rotation set `J`, each re-placement with the candidate scan
//!   (`AN`-window verdicts per PE) of its winning attempt, and the
//!   failed attempts, which the HTML report draws.
//!
//! [`ProfileBuilder`] is the one structured fold of a recorded run:
//! the report pages read everything from its [`CommProfile`] and never
//! walk the stream themselves.
//!
//! The profile is a pure function of the (deterministic) event stream,
//! so its JSON export is byte-identical across runs and thread counts
//! — CI byte-compares it.  Renderers live in [`render`] (ASCII link
//! heatmap for `cyclosched schedule --profile out.json --heatmap`, and
//! the SVG heatmap embedded by `ccs-report` / `--heatmap-svg`).
//!
//! Beyond the final ledger, the builder retains the full ledger of
//! every *accepted* phase ([`PassLedger`]), as the running ledger
//! stands at its `pass.end`; [`diff_ledgers`] turns two ledgers into a
//! ranked list of [`LedgerDelta`] rows ("which edges' hop·volume
//! moved, where, and by how much") consumed by the HTML report and the
//! `--explain` narrative ([`explain_run`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod render;

use ccs_topology::{Machine, Pe};
use ccs_trace::{
    Candidate, Event, PeLoad, Placed, ScanBuffer, StartupPlace, TimedEvent, TrafficLedger,
};
use serde::Value;

/// One row of the per-edge traffic ledger: the `traffic.edge` record
/// itself.
pub use ccs_trace::EdgeTraffic;

/// One ledger row as a JSON object, keys in the profile's order.
fn edge_value(e: &EdgeTraffic) -> Value {
    Value::Object(vec![
        ("edge".to_string(), Value::UInt(u64::from(e.edge))),
        ("src".to_string(), Value::UInt(u64::from(e.src))),
        ("dst".to_string(), Value::UInt(u64::from(e.dst))),
        ("src_pe".to_string(), Value::UInt(u64::from(e.src_pe))),
        ("dst_pe".to_string(), Value::UInt(u64::from(e.dst_pe))),
        ("hops".to_string(), Value::UInt(u64::from(e.hops))),
        ("volume".to_string(), Value::UInt(u64::from(e.volume))),
        ("cost".to_string(), Value::UInt(e.cost())),
        ("crossing".to_string(), Value::Bool(e.crossing())),
    ])
}

/// Aggregated traffic over one physical machine link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Lower PE index of the undirected link.
    pub a: u32,
    /// Higher PE index of the undirected link.
    pub b: u32,
    /// Total data volume routed over the link.
    pub volume: u64,
    /// Number of edge messages routed over the link.
    pub messages: u64,
}

impl LinkLoad {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("a".to_string(), Value::UInt(u64::from(self.a))),
            ("b".to_string(), Value::UInt(u64::from(self.b))),
            ("volume".to_string(), Value::UInt(self.volume)),
            ("messages".to_string(), Value::UInt(self.messages)),
        ])
    }
}

/// The complete edge ledger of one accepted phase: the start-up
/// schedule (`pass` 0) or one accepted rotate-remap pass.
///
/// A reverted pass leaves the previous accepted phase's placement in
/// place, so it never appears here.  The ledgers feed the per-pass
/// heatmaps and ledger diffs of the HTML report; they are deliberately
/// *not* part of the profile's JSON export (the `version: 1` schema is
/// pinned by golden tests and `profile-check`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassLedger {
    /// Phase number: 0 = start-up, `k` = rotate-remap pass `k`.
    pub pass: u32,
    /// Schedule length after the phase.
    pub length: u32,
    /// Total hop-weighted comm cost of the ledger.
    pub comm: u64,
    /// The full per-edge ledger, in the graph's edge order.
    pub edges: Vec<EdgeTraffic>,
}

/// One accepted phase against the previous accepted phase: what the
/// `--explain` notes and the report's trajectory section both print.
#[derive(Clone, Debug)]
pub struct PhaseDiff<'a> {
    /// The previous accepted phase.
    pub prev: &'a PassLedger,
    /// The accepted phase.
    pub cur: &'a PassLedger,
    /// The rows [`diff_ledgers`] reports between the two.
    pub deltas: Vec<LedgerDelta>,
}

impl PhaseDiff<'_> {
    /// Signed change of the total comm cost.
    pub fn shift(&self) -> i64 {
        i64::try_from(self.cur.comm).unwrap_or(i64::MAX)
            - i64::try_from(self.prev.comm).unwrap_or(i64::MAX)
    }
}

/// One changed row between two edge ledgers: the same dependence edge
/// before and after a pass moved its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerDelta {
    /// The edge before the pass.
    pub before: EdgeTraffic,
    /// The edge after the pass.
    pub after: EdgeTraffic,
}

impl LedgerDelta {
    /// Signed change of the edge's hop-weighted cost.
    pub fn delta(&self) -> i64 {
        let b = i64::try_from(self.before.cost()).unwrap_or(i64::MAX);
        let a = i64::try_from(self.after.cost()).unwrap_or(i64::MAX);
        a.saturating_sub(b)
    }
}

/// A ledger's rows sorted by edge id, so each edge's partner is one
/// binary search away.  The sort is stable, so a repeated id finds its
/// first row, as a scan would; ledgers arrive in edge order, which the
/// sort passes through in linear time.
struct EdgeIndex<'a>(Vec<&'a EdgeTraffic>);

impl<'a> EdgeIndex<'a> {
    fn new(ledger: &'a [EdgeTraffic]) -> Self {
        let mut rows: Vec<&EdgeTraffic> = ledger.iter().collect();
        rows.sort_by_key(|e| e.edge);
        EdgeIndex(rows)
    }

    fn get(&self, edge: u32) -> Option<&'a EdgeTraffic> {
        let i = self.0.partition_point(|e| e.edge < edge);
        self.0.get(i).copied().filter(|e| e.edge == edge)
    }
}

/// Diffs two edge ledgers (snapshots of the same graph), returning the
/// rows whose placement or cost changed, ranked by `|Δcost|` descending
/// and then by edge index — the order a human wants to read them in.
pub fn diff_ledgers(before: &[EdgeTraffic], after: &[EdgeTraffic]) -> Vec<LedgerDelta> {
    let index = EdgeIndex::new(before);
    let mut out: Vec<LedgerDelta> = Vec::new();
    for a in after {
        let Some(b) = index.get(a.edge) else {
            continue;
        };
        if b.src_pe != a.src_pe || b.dst_pe != a.dst_pe || b.cost() != a.cost() {
            out.push(LedgerDelta {
                before: *b,
                after: *a,
            });
        }
    }
    out.sort_by_key(|d| (std::cmp::Reverse(d.delta().unsigned_abs()), d.after.edge));
    out
}

/// Edges [`diff_ledgers`] skips because only one ledger has them —
/// the comparison report lists these separately rather than inventing
/// a zero-cost phantom partner.  Returns `(only_in_before,
/// only_in_after)`, each in edge-index order.
pub fn one_sided_edges(
    before: &[EdgeTraffic],
    after: &[EdgeTraffic],
) -> (Vec<EdgeTraffic>, Vec<EdgeTraffic>) {
    let lone = |xs: &[EdgeTraffic], ys: &[EdgeTraffic]| {
        let index = EdgeIndex::new(ys);
        let mut out: Vec<EdgeTraffic> = xs
            .iter()
            .filter(|x| index.get(x.edge).is_none())
            .copied()
            .collect();
        out.sort_by_key(|e| e.edge);
        out
    };
    (lone(before, after), lone(after, before))
}

/// Renders the hop route one ledger row pays, 1-based to match the
/// paper's `PE1..PEm` convention: `"local@PE2"` for co-located
/// endpoints, otherwise the machine's deterministic BFS route
/// (`"PE1>PE2>PE4"`), falling back to `"PE1..PE4 (h hops)"` on a
/// machine that does not route (see [`routable`]).
pub fn route_label(machine: &Machine, e: &EdgeTraffic) -> String {
    if !e.crossing() {
        return format!("local@PE{}", e.src_pe + 1);
    }
    if routable(machine) {
        let path = machine.route(
            Pe::from_index(e.src_pe as usize),
            Pe::from_index(e.dst_pe as usize),
        );
        let hops: Vec<String> = path
            .iter()
            .map(|p| format!("PE{}", p.index() + 1))
            .collect();
        return hops.join(">");
    }
    format!("PE{}..PE{} ({} hops)", e.src_pe + 1, e.dst_pe + 1, e.hops)
}

/// One PE's row of the profile: load and traffic totals of the final
/// best schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeProfile {
    /// Processor index.
    pub pe: u32,
    /// Tasks hosted.
    pub tasks: u32,
    /// Occupied control-step cells.
    pub busy: u32,
    /// Free cells up to the schedule length.
    pub idle: u32,
    /// Hop-weighted cost of crossing traffic produced here.
    pub send: u64,
    /// Hop-weighted cost of crossing traffic consumed here.
    pub recv: u64,
}

impl PeProfile {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("pe".to_string(), Value::UInt(u64::from(self.pe))),
            ("tasks".to_string(), Value::UInt(u64::from(self.tasks))),
            ("busy".to_string(), Value::UInt(u64::from(self.busy))),
            ("idle".to_string(), Value::UInt(u64::from(self.idle))),
            ("send".to_string(), Value::UInt(self.send)),
            ("recv".to_string(), Value::UInt(self.recv)),
        ])
    }
}

/// One rotated node re-placed during a pass, with the candidate scan
/// of its winning target attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Remap {
    /// The re-placement.
    pub placed: Placed,
    /// Per-PE scan verdicts of the winning attempt, in scan order.
    pub candidates: Vec<Candidate>,
}

/// One phase of the run: the start-up schedule (`pass` 0) or one
/// rotate-remap pass, with its comm/compute balance and, for a pass,
/// its story.
///
/// A reverted pass rolled the schedule back to the previous accepted
/// phase, so its traffic fields repeat that phase's, `length` is the
/// restored pre-pass length, and `accepted` is `false`.  The story
/// fields stay empty on the start-up row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassProfile {
    /// Phase number: 0 = start-up, `k` = rotate-remap pass `k`.
    pub pass: u32,
    /// Whether the phase's schedule survived.
    pub accepted: bool,
    /// Schedule length after the phase.
    pub length: u32,
    /// Total hop-weighted comm cost of the phase's placement.
    pub comm: u64,
    /// Edges crossing PEs.
    pub crossing: u32,
    /// Edges local to one PE.
    pub local: u32,
    /// Schedule length entering the pass.
    pub prev_len: u32,
    /// The rotation set `J`, in remap order.
    pub rotated: Vec<u32>,
    /// Successful re-placements, in placement order.
    pub remaps: Vec<Remap>,
    /// Failed `(node, target)` attempts (the remap retried longer).
    pub no_slots: u32,
}

impl PassProfile {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("pass".to_string(), Value::UInt(u64::from(self.pass))),
            ("accepted".to_string(), Value::Bool(self.accepted)),
            ("length".to_string(), Value::UInt(u64::from(self.length))),
            ("comm".to_string(), Value::UInt(self.comm)),
            (
                "crossing".to_string(),
                Value::UInt(u64::from(self.crossing)),
            ),
            ("local".to_string(), Value::UInt(u64::from(self.local))),
        ])
    }
}

/// The communication profile of one scheduling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommProfile {
    /// Machine name the run targeted.
    pub machine: String,
    /// Number of processors.
    pub pes: u32,
    /// Tasks scheduled.
    pub tasks: u32,
    /// The start-up placement, in placement order.
    pub startup: Vec<StartupPlace>,
    /// Passes actually run.
    pub passes_run: u32,
    /// Start-up schedule length.
    pub initial_length: u32,
    /// Best schedule length.
    pub best_length: u32,
    /// The proven floor the run stops at (`compact.end`); the run met
    /// it when `best_length <= floor`.
    pub floor: u32,
    /// Total compute cells of the best schedule (Σ task durations).
    pub compute: u64,
    /// Total hop-weighted comm cost of the best schedule.
    pub total_comm: u64,
    /// Crossing edges in the best schedule.
    pub crossing_edges: u32,
    /// PE-local edges in the best schedule.
    pub local_edges: u32,
    /// The per-edge traffic ledger of the best schedule.
    pub edges: Vec<EdgeTraffic>,
    /// Hop-weighted load per physical link, in the machine's link
    /// order.  Empty for machines without meaningful routes (ideal
    /// zero-distance machines route nothing).
    pub links: Vec<LinkLoad>,
    /// Per-PE load/traffic rows, in PE order.
    pub pe_rows: Vec<PeProfile>,
    /// Comm/compute balance and story per phase (`pass` 0 = start-up).
    pub passes: Vec<PassProfile>,
    /// Full edge ledgers of the accepted phases, in pass order.
    /// Not part of the JSON export — see [`PassLedger`].
    pub pass_ledgers: Vec<PassLedger>,
}

impl CommProfile {
    /// The rotate-remap pass rows, in pass order: every phase but the
    /// start-up.
    pub fn remap_passes(&self) -> impl Iterator<Item = &PassProfile> {
        self.passes.iter().filter(|p| p.pass > 0)
    }

    /// Each accepted phase against the previous accepted phase, in pass
    /// order.
    pub fn phase_diffs(&self) -> impl Iterator<Item = PhaseDiff<'_>> {
        self.pass_ledgers.windows(2).map(|pair| PhaseDiff {
            prev: &pair[0],
            cur: &pair[1],
            deltas: diff_ledgers(&pair[0].edges, &pair[1].edges),
        })
    }

    /// Serializes the profile as an ordered JSON object.  Every field
    /// is a pure function of the event stream and the machine, so the
    /// output is deterministic.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), Value::UInt(1)),
            ("machine".to_string(), Value::String(self.machine.clone())),
            ("pes".to_string(), Value::UInt(u64::from(self.pes))),
            (
                "initial_length".to_string(),
                Value::UInt(u64::from(self.initial_length)),
            ),
            (
                "best_length".to_string(),
                Value::UInt(u64::from(self.best_length)),
            ),
            ("floor".to_string(), Value::UInt(u64::from(self.floor))),
            ("compute".to_string(), Value::UInt(self.compute)),
            ("total_comm".to_string(), Value::UInt(self.total_comm)),
            (
                "crossing_edges".to_string(),
                Value::UInt(u64::from(self.crossing_edges)),
            ),
            (
                "local_edges".to_string(),
                Value::UInt(u64::from(self.local_edges)),
            ),
            (
                "edges".to_string(),
                Value::Array(self.edges.iter().map(edge_value).collect()),
            ),
            (
                "links".to_string(),
                Value::Array(self.links.iter().map(|l| l.to_value()).collect()),
            ),
            (
                "pes_detail".to_string(),
                Value::Array(self.pe_rows.iter().map(|p| p.to_value()).collect()),
            ),
            (
                "passes".to_string(),
                Value::Array(self.passes.iter().map(|p| p.to_value()).collect()),
            ),
        ])
    }

    /// Pretty-printed deterministic JSON export.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Folds the event stream into a [`CommProfile`]: the one structured
/// fold of a recorded run.
///
/// [`build`] feeds it a recorded stream through
/// [`ProfileBuilder::observe`].  Every `traffic.edge` row is upserted
/// into one running [`TrafficLedger`]; the builder reads the ledger and
/// its totals at the stream's phase brackets: at `startup.end`, at
/// every `pass.end`, and at `compact.end`, after the final
/// best-schedule snapshot, where it becomes the authoritative ledger.
/// Between `pass.begin` and `pass.end` it keeps the pass's story, with
/// each attempt's candidate scan buffered in a [`ScanBuffer`].
#[derive(Default)]
pub struct ProfileBuilder {
    ledger: TrafficLedger,
    pe_loads: Vec<PeLoad>,
    /// The story of the pass in progress.
    open: PassProfile,
    /// The candidate scan of the attempt in progress.
    scan: ScanBuffer,
    /// What the stream says; [`ProfileBuilder::finish`] adds what
    /// needs the machine.
    profile: CommProfile,
}

/// Hop-weighted link loads of one edge ledger on `machine`: each
/// crossing edge charges its volume to every link on the deterministic
/// BFS route between its PEs.  Σ over links of one edge's volume =
/// hops · volume = the edge's cost, so link loads and the ledger agree
/// (the conservation invariant `report-check` verifies).  A machine
/// without meaningful routes (see [`routable`]) loads nothing.  Reads
/// the route rows of the destinations of the crossing edges only.
pub fn link_loads(machine: &Machine, edges: &[EdgeTraffic]) -> Vec<LinkLoad> {
    let mut links: Vec<LinkLoad> = machine
        .links()
        .iter()
        .map(|&(a, b)| LinkLoad {
            a: u32::try_from(a).unwrap_or(u32::MAX),
            b: u32::try_from(b).unwrap_or(u32::MAX),
            ..LinkLoad::default()
        })
        .collect();
    if !routable(machine) {
        return links;
    }
    for e in edges {
        if !e.crossing() || e.hops == 0 || e.hops == u32::MAX {
            continue;
        }
        let dst = Pe::from_index(e.dst_pe as usize);
        let mut cur = Pe::from_index(e.src_pe as usize);
        while cur != dst {
            let next = machine.next_hop(cur, dst);
            if let Some(ix) = machine.link_between(cur, next) {
                links[ix].volume = links[ix].volume.saturating_add(u64::from(e.volume));
                links[ix].messages += 1;
            }
            cur = next;
        }
    }
    links
}

/// `true` when link loads on `machine` are meaningful (it has physical
/// links and every pair of PEs is reachable over them).
pub fn routable(machine: &Machine) -> bool {
    machine.is_connected() && !machine.links().is_empty()
}

impl ProfileBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ProfileBuilder::default()
    }

    /// Folds one event.
    pub fn observe(&mut self, ev: &Event) {
        let p = &mut self.profile;
        match ev {
            Event::StartupBegin { tasks, .. } => {
                p.tasks = *tasks;
                self.ledger.observe(ev);
            }
            Event::EdgeTraffic(_) => self.ledger.observe(ev),
            Event::StartupPlace(s) => p.startup.push(*s),
            Event::StartupEnd { length } => {
                p.initial_length = *length;
                p.best_length = *length; // until compaction improves it
                self.close_phase(PassProfile {
                    accepted: true,
                    length: *length,
                    ..PassProfile::default()
                });
            }
            Event::PassBegin { pass, prev_len, .. } => {
                self.open = PassProfile {
                    pass: *pass,
                    prev_len: *prev_len,
                    ..PassProfile::default()
                };
            }
            Event::Rotate { nodes } => self.open.rotated.clone_from(nodes),
            Event::Candidate(c) => self.scan.push(*c),
            Event::Placed(placed) => {
                let candidates = self.scan.close(placed.node, placed.target).collect();
                self.open.remaps.push(Remap {
                    placed: *placed,
                    candidates,
                });
            }
            Event::NoSlot { node, target } => {
                self.scan.close(*node, *target);
                self.open.no_slots += 1;
            }
            // A reverted pass left the previous accepted phase's
            // placement in place, and its row reports that ledger.
            Event::PassEnd {
                pass,
                accepted,
                length,
            } => {
                let row = PassProfile {
                    pass: *pass,
                    accepted: *accepted,
                    length: *length,
                    ..std::mem::take(&mut self.open)
                };
                self.close_phase(row);
            }
            Event::PeLoad(l) => self.pe_loads.push(*l),
            Event::CompactEnd {
                initial,
                best,
                passes,
                floor,
            } => {
                p.initial_length = *initial;
                p.best_length = *best;
                p.passes_run = *passes;
                p.floor = *floor;
                // The final best-schedule snapshot precedes this event.
                p.edges = self.ledger.rows().to_vec();
                p.total_comm = self.ledger.cost();
                p.crossing_edges = self.ledger.crossing();
                p.local_edges = self.ledger.local();
            }
            // The profile keeps traffic, load, placements and phase
            // boundaries.  Everything else is deliberately skipped
            // (`cargo xtask lint` keeps this list honest):
            // EVENT-IGNORED: ReadyPick — start-up heuristic detail; the pick arrives as StartupPlace.
            // EVENT-IGNORED: StartupDefer — defers surface as later StartupPlace rows.
            // EVENT-IGNORED: CompactBegin — config echo; totals come from CompactEnd.
            // EVENT-IGNORED: SlackRepair — repair detail; the padded length arrives on PassEnd.
            // EVENT-IGNORED: PassStats — hot-path counters; MetricsSink keeps them.
            // EVENT-IGNORED: BestSnapshot — length trajectory; PassEnd carries it too.
            // EVENT-IGNORED: OccupancySnapshot — occupancy grid; load arrives as PeLoad.
            _ => {}
        }
    }

    /// Closes a phase with the running ledger's totals; an accepted
    /// phase also keeps the full ledger.
    fn close_phase(&mut self, mut row: PassProfile) {
        row.comm = self.ledger.cost();
        row.crossing = self.ledger.crossing();
        row.local = self.ledger.local();
        if row.accepted {
            self.profile.pass_ledgers.push(PassLedger {
                pass: row.pass,
                length: row.length,
                comm: row.comm,
                edges: self.ledger.rows().to_vec(),
            });
        }
        self.profile.passes.push(row);
    }

    /// Consumes the builder, resolving link routes against `machine`
    /// (the machine the profiled run was scheduled on).
    pub fn finish(self, machine: &Machine) -> CommProfile {
        let mut p = self.profile;
        p.machine = machine.name().to_string();
        p.pes = u32::try_from(machine.num_pes()).unwrap_or(u32::MAX);
        p.links = link_loads(machine, &p.edges);

        // Per-PE rows: loads from the traffic.pe events, send/recv
        // from the ledger.
        let mut pe_rows: Vec<PeProfile> = self
            .pe_loads
            .iter()
            .map(|l| PeProfile {
                pe: l.pe,
                tasks: l.tasks,
                busy: l.busy,
                idle: p.best_length.saturating_sub(l.busy),
                ..PeProfile::default()
            })
            .collect();
        pe_rows.sort_by_key(|r| r.pe);
        for e in &p.edges {
            if !e.crossing() {
                continue;
            }
            if let Some(row) = pe_rows.iter_mut().find(|r| r.pe == e.src_pe) {
                row.send = row.send.saturating_add(e.cost());
            }
            if let Some(row) = pe_rows.iter_mut().find(|r| r.pe == e.dst_pe) {
                row.recv = row.recv.saturating_add(e.cost());
            }
        }
        p.compute = pe_rows.iter().map(|r| u64::from(r.busy)).sum();
        p.pe_rows = pe_rows;
        p
    }
}

/// Folds a recorded event stream into a [`CommProfile`] for `machine`.
pub fn build(events: &[TimedEvent], machine: &Machine) -> CommProfile {
    let mut b = ProfileBuilder::new();
    for te in events {
        b.observe(&te.event);
    }
    b.finish(machine)
}

/// Prose ledger-diff notes for the `--explain` narrative: for every
/// accepted rotate-remap pass, the top-`k` edges whose communication
/// cost or placement changed relative to the previous accepted phase,
/// with before→after hop routes.  Returns `(pass, note)` pairs; the
/// note is pre-indented to sit under the explainer's `pass N accepted`
/// line.  Reads [`CommProfile::phase_diffs`], as the HTML report's
/// trajectory section does, so the two always tell the same story.
pub fn pass_diff_notes(
    p: &CommProfile,
    machine: &Machine,
    k: usize,
    mut name: impl FnMut(u32) -> String,
) -> Vec<(u32, String)> {
    use std::fmt::Write as _;
    let mut notes = Vec::new();
    for diff in p.phase_diffs() {
        let (prev, cur, deltas) = (diff.prev, diff.cur, &diff.deltas);
        let mut note = String::new();
        let _ = writeln!(
            note,
            "  ledger diff vs pass {}: comm {} -> {} ({:+}), {} of {} edge(s) moved",
            prev.pass,
            prev.comm,
            cur.comm,
            diff.shift(),
            deltas.len(),
            cur.edges.len()
        );
        for d in deltas.iter().take(k) {
            let _ = writeln!(
                note,
                "    e{} {}->{}: cost {} -> {} ({:+}), {} -> {}",
                d.after.edge,
                name(d.after.src),
                name(d.after.dst),
                d.before.cost(),
                d.after.cost(),
                d.delta(),
                route_label(machine, &d.before),
                route_label(machine, &d.after),
            );
        }
        if deltas.len() > k {
            let _ = writeln!(
                note,
                "    ({} more changed edge(s) not shown)",
                deltas.len() - k
            );
        }
        notes.push((cur.pass, note));
    }
    notes
}

/// The `cyclosched schedule --explain` narrative of one recorded run:
/// [`ccs_trace::explain::explain_with`] over `events`, with the top-5
/// [`pass_diff_notes`] of `p` spliced under each accepted pass.
pub fn explain_run(
    events: &[TimedEvent],
    p: &CommProfile,
    machine: &Machine,
    name: impl Fn(u32) -> String,
) -> String {
    let notes = pass_diff_notes(p, machine, 5, &name);
    ccs_trace::explain::explain_with(events, &name, |pass| {
        notes
            .iter()
            .find(|(p, _)| *p == pass)
            .map(|(_, note)| note.clone())
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use ccs_trace::Verdict;

    fn te(event: Event) -> TimedEvent {
        TimedEvent { ns: 0, event }
    }

    #[test]
    fn folds_the_pass_story() {
        let m = Machine::linear_array(2);
        let events = vec![
            te(Event::StartupBegin { tasks: 2, pes: 2 }),
            te(Event::StartupPlace(StartupPlace {
                node: 0,
                pe: 0,
                cs: 1,
                duration: 1,
            })),
            te(Event::StartupPlace(StartupPlace {
                node: 1,
                pe: 1,
                cs: 2,
                duration: 2,
            })),
            te(Event::StartupEnd { length: 3 }),
            te(Event::PassBegin {
                pass: 1,
                prev_len: 3,
                rows: 1,
            }),
            te(Event::Rotate { nodes: vec![0] }),
            te(Event::Candidate(Candidate {
                node: 0,
                target: 3,
                pe: 0,
                lb: 2,
                ub: 1,
                comm: 0,
                verdict: Verdict::Infeasible,
            })),
            te(Event::Candidate(Candidate {
                node: 0,
                target: 3,
                pe: 1,
                lb: 0,
                ub: 2,
                comm: 1,
                verdict: Verdict::Leading { cs: 2, impact: 3 },
            })),
            te(Event::Placed(Placed {
                node: 0,
                pe: 1,
                cs: 2,
                duration: 1,
                target: 3,
                impact: 3,
                comm: 1,
                runner_up: None,
            })),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 3,
            }),
            te(Event::CompactEnd {
                initial: 3,
                best: 3,
                passes: 1,
                floor: 1,
            }),
        ];
        let p = build(&events, &m);
        assert_eq!((p.tasks, p.pes, p.passes_run), (2, 2, 1));
        assert_eq!(p.startup.len(), 2);
        assert_eq!(p.startup[1].duration, 2);
        assert_eq!(p.passes.len(), 2);
        let start = &p.passes[0];
        assert!(start.rotated.is_empty() && start.remaps.is_empty());
        let passes: Vec<&PassProfile> = p.remap_passes().collect();
        assert_eq!(passes.len(), 1, "the start-up row is no remap pass");
        let pass = passes[0];
        assert!(pass.accepted);
        assert_eq!((pass.pass, pass.prev_len, pass.length), (1, 3, 3));
        assert_eq!(pass.rotated, vec![0]);
        assert_eq!(pass.remaps.len(), 1);
        assert_eq!(pass.remaps[0].placed.pe, 1);
        assert_eq!(pass.remaps[0].candidates.len(), 2);
        assert_eq!(pass.remaps[0].candidates[0].verdict, Verdict::Infeasible);
    }

    #[test]
    fn failed_attempts_clear_the_scan_buffer() {
        let m = Machine::linear_array(1);
        let cand = |target, ub, verdict| {
            te(Event::Candidate(Candidate {
                node: 0,
                target,
                pe: 0,
                lb: 0,
                ub,
                comm: 0,
                verdict,
            }))
        };
        let events = vec![
            te(Event::PassBegin {
                pass: 1,
                prev_len: 4,
                rows: 1,
            }),
            cand(4, 3, Verdict::NoFreeSlot),
            te(Event::NoSlot { node: 0, target: 4 }),
            cand(5, 4, Verdict::Leading { cs: 1, impact: 5 }),
            te(Event::Placed(Placed {
                node: 0,
                pe: 0,
                cs: 1,
                duration: 1,
                target: 5,
                impact: 5,
                comm: 0,
                runner_up: None,
            })),
            te(Event::PassEnd {
                pass: 1,
                accepted: false,
                length: 4,
            }),
        ];
        let p = build(&events, &m);
        let pass = p.remap_passes().next().expect("one pass");
        assert_eq!(pass.no_slots, 1);
        assert_eq!(pass.remaps.len(), 1);
        assert_eq!(
            pass.remaps[0].candidates.len(),
            1,
            "only the winning target's scan survives"
        );
        assert_eq!(pass.remaps[0].candidates[0].ub, 4);
        assert!(!pass.accepted);
    }

    fn traffic(edge: u32, src_pe: u32, dst_pe: u32, hops: u32, volume: u32) -> Event {
        Event::EdgeTraffic(EdgeTraffic {
            edge,
            src: edge,
            dst: edge + 1,
            src_pe,
            dst_pe,
            hops,
            volume,
        })
    }

    /// A linear scan of the link list per hop of each whole route,
    /// kept as the oracle of [`link_loads`]' link index.
    fn link_loads_by_scan(machine: &Machine, edges: &[EdgeTraffic]) -> Vec<LinkLoad> {
        let mut links: Vec<LinkLoad> = machine
            .links()
            .iter()
            .map(|&(a, b)| LinkLoad {
                a: a as u32,
                b: b as u32,
                ..LinkLoad::default()
            })
            .collect();
        if !routable(machine) {
            return links;
        }
        for e in edges {
            if !e.crossing() || e.hops == 0 || e.hops == u32::MAX {
                continue;
            }
            for w in machine.route(Pe(e.src_pe), Pe(e.dst_pe)).windows(2) {
                let (a, b) = (w[0].index(), w[1].index());
                let link = (a.min(b), a.max(b));
                if let Some(ix) = machine.links().iter().position(|&l| l == link) {
                    links[ix].volume += u64::from(e.volume);
                    links[ix].messages += 1;
                }
            }
        }
        links
    }

    #[test]
    fn indexed_link_loads_match_the_linear_scan() {
        let mut machines = Machine::paper_suite();
        for spec in ["mesh:8x8", "complete:64", "hypercube:6", "random:24:7"] {
            machines.push(ccs_topology::parse_spec(spec).expect("spec"));
        }
        for m in &machines {
            // Every ordered PE pair once, with volumes that tell the
            // pairs apart, plus a local and a zero-hop row.
            let n = m.num_pes() as u32;
            let mut edges = vec![
                EdgeTraffic {
                    edge: 0,
                    src: 0,
                    dst: 1,
                    src_pe: 0,
                    dst_pe: 0,
                    hops: 0,
                    volume: 9,
                },
                EdgeTraffic {
                    edge: 1,
                    src: 0,
                    dst: 1,
                    src_pe: 0,
                    dst_pe: n - 1,
                    hops: 0,
                    volume: 9,
                },
            ];
            for s in 0..n {
                for d in (0..n).filter(|&d| d != s) {
                    edges.push(EdgeTraffic {
                        edge: edges.len() as u32,
                        src: s,
                        dst: d,
                        src_pe: s,
                        dst_pe: d,
                        hops: m.distance(Pe(s), Pe(d)),
                        volume: 1 + (s * 7 + d) % 5,
                    });
                }
            }
            let loads = link_loads(m, &edges);
            assert_eq!(loads, link_loads_by_scan(m, &edges), "{}", m.name());
            // Conservation: the links carry the ledger's hop-weighted cost.
            if routable(m) {
                let charged: u64 = loads.iter().map(|l| l.volume).sum();
                let cost: u64 = edges
                    .iter()
                    .filter(|e| e.crossing())
                    .map(|e| e.cost())
                    .sum();
                assert_eq!(charged, cost, "{}", m.name());
            }
        }
    }

    #[test]
    fn folds_phases_and_final_ledger() {
        let m = Machine::linear_array(3);
        let events = vec![
            te(Event::StartupBegin { tasks: 3, pes: 3 }),
            te(traffic(0, 0, 2, 2, 3)),
            te(traffic(1, 1, 1, 0, 4)),
            te(Event::StartupEnd { length: 6 }),
            te(Event::PassBegin {
                pass: 1,
                prev_len: 6,
                rows: 1,
            }),
            // The pass's delta: only edge 0 moved.
            te(traffic(0, 0, 1, 1, 3)),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 5,
            }),
            // Final best snapshot.
            te(traffic(0, 0, 1, 1, 3)),
            te(traffic(1, 1, 1, 0, 4)),
            te(Event::PeLoad(PeLoad {
                pe: 0,
                tasks: 1,
                busy: 2,
            })),
            te(Event::PeLoad(PeLoad {
                pe: 1,
                tasks: 2,
                busy: 3,
            })),
            te(Event::PeLoad(PeLoad {
                pe: 2,
                tasks: 0,
                busy: 0,
            })),
            te(Event::CompactEnd {
                initial: 6,
                best: 5,
                passes: 1,
                floor: 1,
            }),
        ];
        let p = build(&events, &m);
        assert_eq!(p.initial_length, 6);
        assert_eq!(p.best_length, 5);
        assert_eq!(p.total_comm, 3);
        assert_eq!(p.crossing_edges, 1);
        assert_eq!(p.local_edges, 1);
        assert_eq!(p.compute, 5);
        assert_eq!(p.passes.len(), 2);
        assert_eq!(p.passes[0].pass, 0);
        assert_eq!(p.passes[0].comm, 6);
        assert_eq!(p.passes[1].comm, 3);
        // The delta upserts into the start-up ledger: edge 1 carries over.
        assert_eq!(p.pass_ledgers[1].edges.len(), 2);
        assert_eq!(p.pass_ledgers[1].edges[0].dst_pe, 1);
        assert_eq!(p.pass_ledgers[1].edges[1], p.pass_ledgers[0].edges[1]);
        // linear 3 has links (0,1) and (1,2); edge 0 crosses 0->1.
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.links[0].volume, 3);
        assert_eq!(p.links[0].messages, 1);
        assert_eq!(p.links[1].volume, 0);
        // Per-PE rows.
        assert_eq!(p.pe_rows[0].send, 3);
        assert_eq!(p.pe_rows[1].recv, 3);
        assert_eq!(p.pe_rows[2].idle, 5);
        // Link loads conserve the ledger: Σ link volume·(charged hops)
        // equals total comm when every hop is a physical link.
        let link_vol: u64 = p.links.iter().map(|l| l.volume).sum();
        assert_eq!(link_vol, 3);
    }

    #[test]
    fn reverted_pass_reports_the_ledger_it_leaves_in_place() {
        let m = Machine::linear_array(3);
        let events = vec![
            te(Event::StartupBegin { tasks: 3, pes: 3 }),
            te(traffic(0, 0, 2, 2, 3)),
            te(traffic(1, 1, 1, 0, 4)),
            te(Event::StartupEnd { length: 6 }),
            te(Event::PassBegin {
                pass: 1,
                prev_len: 6,
                rows: 1,
            }),
            te(traffic(0, 0, 1, 1, 3)),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 5,
            }),
            te(Event::PassBegin {
                pass: 2,
                prev_len: 5,
                rows: 1,
            }),
            te(Event::PassEnd {
                pass: 2,
                accepted: false,
                length: 5,
            }),
        ];
        let p = build(&events, &m);
        assert_eq!(p.passes.len(), 3);
        let traffic = |r: &PassProfile| (r.comm, r.crossing, r.local);
        assert!(!p.passes[2].accepted);
        assert_eq!(traffic(&p.passes[1]), (3, 1, 1));
        assert_eq!(
            traffic(&p.passes[2]),
            traffic(&p.passes[1]),
            "a reverted pass carries the previous accepted phase's totals"
        );
        assert_eq!(p.pass_ledgers.len(), 2, "reverted passes keep no ledger");
    }

    #[test]
    fn accepted_phases_keep_their_ledgers() {
        let m = Machine::linear_array(3);
        let events = vec![
            te(Event::StartupBegin { tasks: 2, pes: 3 }),
            te(traffic(0, 0, 2, 2, 3)),
            te(Event::StartupEnd { length: 6 }),
            te(Event::PassBegin {
                pass: 1,
                prev_len: 6,
                rows: 1,
            }),
            te(traffic(0, 0, 1, 1, 3)),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 5,
            }),
            te(Event::PassBegin {
                pass: 2,
                prev_len: 5,
                rows: 1,
            }),
            te(Event::PassEnd {
                pass: 2,
                accepted: false,
                length: 5,
            }),
            te(traffic(0, 0, 1, 1, 3)),
            te(Event::CompactEnd {
                initial: 6,
                best: 5,
                passes: 2,
                floor: 1,
            }),
        ];
        let p = build(&events, &m);
        assert_eq!(p.pass_ledgers.len(), 2, "start-up + one accepted pass");
        assert_eq!(p.pass_ledgers[0].pass, 0);
        assert_eq!(p.pass_ledgers[0].length, 6);
        assert_eq!(p.pass_ledgers[0].edges[0].dst_pe, 2);
        assert_eq!(p.pass_ledgers[1].pass, 1);
        assert_eq!(p.pass_ledgers[1].edges[0].dst_pe, 1);
        // The final snapshot is still the authoritative ledger.
        assert_eq!(p.edges.len(), 1);
        // JSON schema unchanged: ledgers never serialize.
        assert!(!p.to_json_pretty().contains("pass_ledgers"));
    }

    #[test]
    fn diff_ledgers_ranks_by_cost_shift() {
        let before = vec![
            EdgeTraffic {
                edge: 0,
                src: 0,
                dst: 1,
                src_pe: 0,
                dst_pe: 2,
                hops: 2,
                volume: 3,
            },
            EdgeTraffic {
                edge: 1,
                src: 1,
                dst: 2,
                src_pe: 1,
                dst_pe: 2,
                hops: 1,
                volume: 1,
            },
            EdgeTraffic {
                edge: 2,
                src: 2,
                dst: 0,
                src_pe: 2,
                dst_pe: 2,
                hops: 0,
                volume: 5,
            },
        ];
        let mut after = before.clone();
        after[0].dst_pe = 0; // 6 -> 0: biggest shift
        after[0].hops = 0;
        after[1].dst_pe = 0; // 1 -> 2: smaller shift
        after[1].hops = 2;
        let deltas = diff_ledgers(&before, &after);
        assert_eq!(deltas.len(), 2, "unchanged edge 2 is not reported");
        assert_eq!(deltas[0].after.edge, 0);
        assert_eq!(deltas[0].delta(), -6);
        assert_eq!(deltas[1].after.edge, 1);
        assert_eq!(deltas[1].delta(), 1);
    }

    #[test]
    fn diff_ledgers_skips_one_sided_edges_and_the_helper_reports_them() {
        let e = |edge: u32| EdgeTraffic {
            edge,
            src: edge,
            dst: edge + 1,
            src_pe: 0,
            dst_pe: 1,
            hops: 1,
            volume: 2,
        };
        let before = vec![e(0), e(2), e(5)];
        let mut moved = e(0);
        moved.dst_pe = 2;
        moved.hops = 2;
        let after = vec![moved, e(3), e(4)];
        let deltas = diff_ledgers(&before, &after);
        assert_eq!(deltas.len(), 1, "only the shared edge 0 is diffed");
        assert_eq!(deltas[0].after.edge, 0);
        let (only_a, only_b) = one_sided_edges(&before, &after);
        assert_eq!(
            only_a.iter().map(|e| e.edge).collect::<Vec<_>>(),
            vec![2, 5]
        );
        assert_eq!(
            only_b.iter().map(|e| e.edge).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn indexed_ledger_diff_matches_the_linear_scan() {
        // The per-row `find` scans the edge index replaced, as oracles.
        let diff_by_scan = |before: &[EdgeTraffic], after: &[EdgeTraffic]| {
            let mut out: Vec<LedgerDelta> = Vec::new();
            for a in after {
                let Some(b) = before.iter().find(|b| b.edge == a.edge) else {
                    continue;
                };
                if b.src_pe != a.src_pe || b.dst_pe != a.dst_pe || b.cost() != a.cost() {
                    out.push(LedgerDelta {
                        before: *b,
                        after: *a,
                    });
                }
            }
            out.sort_by_key(|d| (std::cmp::Reverse(d.delta().unsigned_abs()), d.after.edge));
            out
        };
        let lone_by_scan = |xs: &[EdgeTraffic], ys: &[EdgeTraffic]| {
            let mut out: Vec<EdgeTraffic> = xs
                .iter()
                .filter(|x| !ys.iter().any(|y| y.edge == x.edge))
                .copied()
                .collect();
            out.sort_by_key(|e| e.edge);
            out
        };
        // Ledgers in edge order, out of order, with gaps and with a
        // repeated id (the first row must win, as in a scan).
        let mut seed = 7u64;
        let mut next = |m: u32| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            u32::try_from(seed >> 33).unwrap_or(0) % m
        };
        for round in 0..40 {
            let mut ledger = |n: u32| -> Vec<EdgeTraffic> {
                (0..n)
                    .map(|i| EdgeTraffic {
                        edge: if round % 2 == 0 { i } else { next(n + 4) },
                        src: i,
                        dst: i + 1,
                        src_pe: next(4),
                        dst_pe: next(4),
                        hops: next(3),
                        volume: next(5),
                    })
                    .collect()
            };
            let (before, mut after) = (ledger(12), ledger(12));
            if round % 3 == 0 {
                after.reverse();
            }
            assert_eq!(
                diff_ledgers(&before, &after),
                diff_by_scan(&before, &after),
                "round {round}"
            );
            assert_eq!(
                one_sided_edges(&before, &after),
                (lone_by_scan(&before, &after), lone_by_scan(&after, &before)),
                "round {round}"
            );
        }
    }

    #[test]
    fn diff_ledgers_of_identical_ledgers_is_empty() {
        let ledger = vec![EdgeTraffic {
            edge: 0,
            src: 0,
            dst: 1,
            src_pe: 0,
            dst_pe: 2,
            hops: 2,
            volume: 3,
        }];
        assert!(diff_ledgers(&ledger, &ledger).is_empty());
        let (a, b) = one_sided_edges(&ledger, &ledger);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn route_label_handles_zero_cost_routes() {
        // A crossing edge with zero charged hops (ideal machine: every
        // pair adjacent at distance 0) must not claim a local route.
        let zero = EdgeTraffic {
            edge: 0,
            src: 0,
            dst: 1,
            src_pe: 0,
            dst_pe: 2,
            hops: 0,
            volume: 4,
        };
        let unlinked = Machine::from_links("no links", 3, &[]);
        assert_eq!(route_label(&unlinked, &zero), "PE1..PE3 (0 hops)");
        // Zero volume still routes: the label names the path, the cost
        // model charges nothing.
        let m = Machine::linear_array(3);
        let free = EdgeTraffic {
            hops: 2,
            volume: 0,
            ..zero
        };
        assert_eq!(route_label(&m, &free), "PE1>PE2>PE3");
        assert_eq!(free.cost(), 0);
    }

    #[test]
    fn route_labels_name_hops() {
        let m = Machine::linear_array(4);
        let crossing = EdgeTraffic {
            edge: 0,
            src: 0,
            dst: 1,
            src_pe: 0,
            dst_pe: 3,
            hops: 3,
            volume: 1,
        };
        assert_eq!(route_label(&m, &crossing), "PE1>PE2>PE3>PE4");
        let local = EdgeTraffic {
            src_pe: 1,
            dst_pe: 1,
            hops: 0,
            ..crossing
        };
        assert_eq!(route_label(&m, &local), "local@PE2");
        let islands = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(route_label(&islands, &crossing), "PE1..PE4 (3 hops)");
    }

    #[test]
    fn pass_diff_notes_name_the_moved_edges() {
        let m = Machine::linear_array(3);
        let events = vec![
            te(Event::StartupBegin { tasks: 2, pes: 3 }),
            te(traffic(0, 0, 2, 2, 3)),
            te(Event::StartupEnd { length: 6 }),
            te(Event::PassBegin {
                pass: 1,
                prev_len: 6,
                rows: 1,
            }),
            te(traffic(0, 0, 1, 1, 3)),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 5,
            }),
            te(traffic(0, 0, 1, 1, 3)),
            te(Event::CompactEnd {
                initial: 6,
                best: 5,
                passes: 1,
                floor: 1,
            }),
        ];
        let p = build(&events, &m);
        let notes = pass_diff_notes(&p, &m, 5, |n| format!("n{n}"));
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].0, 1);
        let note = &notes[0].1;
        assert!(
            note.contains("ledger diff vs pass 0: comm 6 -> 3 (-3), 1 of 1 edge(s) moved"),
            "{note}"
        );
        assert!(
            note.contains("e0 n0->n1: cost 6 -> 3 (-3), PE1>PE2>PE3 -> PE1>PE2"),
            "{note}"
        );
    }

    #[test]
    fn json_is_deterministic() {
        let m = Machine::ring(4);
        let events = vec![
            te(Event::StartupBegin { tasks: 2, pes: 4 }),
            te(traffic(0, 0, 2, 2, 5)),
            te(Event::StartupEnd { length: 3 }),
            te(traffic(0, 0, 2, 2, 5)),
            te(Event::PeLoad(PeLoad {
                pe: 0,
                tasks: 1,
                busy: 1,
            })),
            te(Event::CompactEnd {
                initial: 3,
                best: 3,
                passes: 0,
                floor: 3,
            }),
        ];
        let a = build(&events, &m).to_json_pretty();
        let b = build(&events, &m).to_json_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"total_comm\": 10"), "{a}");
    }

    #[test]
    fn ideal_machine_routes_nothing() {
        // Ideal machines have zero hop distance everywhere: edges may
        // cross PEs but cost nothing and charge no link.
        let m = Machine::ideal(3);
        let events = vec![
            te(traffic(0, 0, 2, 0, 7)),
            te(Event::CompactEnd {
                initial: 2,
                best: 2,
                passes: 0,
                floor: 2,
            }),
        ];
        let p = build(&events, &m);
        assert_eq!(p.total_comm, 0);
        assert_eq!(p.crossing_edges, 1);
        assert!(p.links.iter().all(|l| l.volume == 0));
    }
}
