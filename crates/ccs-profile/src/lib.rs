//! # ccs-profile
//!
//! Communication profiling for the cyclo-compaction pipeline.
//!
//! The scheduler's whole premise is that schedule quality is governed
//! by *where communication lands*: every dependence edge `e = (u, v)`
//! pays `M(PE(u), PE(v)) = hops · c(e)` control steps.  The trace
//! layer (`ccs-trace`) emits per-edge attribution snapshots
//! (`traffic.edge` / `traffic.pe` events); this crate folds that
//! stream into a [`CommProfile`]:
//!
//! * a **per-edge traffic ledger** of the final best schedule (who
//!   talks to whom, over how many hops, at what cost);
//! * a **hop-weighted link-load matrix** keyed by the machine's
//!   physical links (deterministic BFS routes from
//!   [`ccs_topology::RoutingTable`]);
//! * **per-PE timelines** — tasks hosted, busy/idle cells, traffic
//!   sent and received;
//! * **per-pass comm/compute balance** — how crossing traffic and
//!   total comm cost evolve from the start-up schedule through every
//!   accepted compaction pass.
//!
//! The profile is a pure function of the (deterministic) event stream,
//! so its JSON export is byte-identical across runs and thread counts
//! — CI byte-compares it.  Renderers live in [`render`] (ASCII link
//! heatmap for `cyclosched schedule --profile out.json --heatmap`, and
//! the SVG heatmap embedded by `ccs-report` / `--heatmap-svg`).
//!
//! Beyond the final ledger, the builder retains the full edge snapshot
//! of every *accepted* phase ([`PassLedger`]); [`diff_ledgers`] turns
//! two snapshots into a ranked list of [`LedgerDelta`] rows ("which
//! edges' hop·volume moved, where, and by how much") consumed by the
//! HTML report and the `--explain` narrative.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod render;

use ccs_topology::{Machine, Pe, RoutingTable};
use ccs_trace::{Event, Sink, TimedEvent};
use serde::Value;

/// One row of the per-edge traffic ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeTraffic {
    /// Edge index in the graph's edge order.
    pub edge: u32,
    /// Producer node.
    pub src: u32,
    /// Consumer node.
    pub dst: u32,
    /// PE hosting the producer.
    pub src_pe: u32,
    /// PE hosting the consumer.
    pub dst_pe: u32,
    /// Hop distance between the two PEs.
    pub hops: u32,
    /// Data volume of the edge (`c(e)`).
    pub volume: u32,
}

impl EdgeTraffic {
    /// Hop-weighted cost `hops · volume` (saturating).
    pub fn cost(&self) -> u64 {
        u64::from(self.hops).saturating_mul(u64::from(self.volume))
    }

    /// `true` when the edge crosses PEs.
    pub fn crossing(&self) -> bool {
        self.src_pe != self.dst_pe
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("edge".to_string(), Value::UInt(u64::from(self.edge))),
            ("src".to_string(), Value::UInt(u64::from(self.src))),
            ("dst".to_string(), Value::UInt(u64::from(self.dst))),
            ("src_pe".to_string(), Value::UInt(u64::from(self.src_pe))),
            ("dst_pe".to_string(), Value::UInt(u64::from(self.dst_pe))),
            ("hops".to_string(), Value::UInt(u64::from(self.hops))),
            ("volume".to_string(), Value::UInt(u64::from(self.volume))),
            ("cost".to_string(), Value::UInt(self.cost())),
            ("crossing".to_string(), Value::Bool(self.crossing())),
        ])
    }
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

/// The complete edge snapshot of one accepted phase: the start-up
/// schedule (`pass` 0) or one accepted rotate-remap pass.
///
/// Reverted passes emit no snapshot, so they never appear here.  The
/// ledgers feed the per-pass heatmaps and ledger diffs of the HTML
/// report; they are deliberately *not* part of the profile's JSON
/// export (the `version: 1` schema is pinned by golden tests and
/// `profile-check`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassLedger {
    /// Phase number: 0 = start-up, `k` = rotate-remap pass `k`.
    pub pass: u32,
    /// Schedule length after the phase.
    pub length: u32,
    /// The full per-edge snapshot, in the graph's edge order.
    pub edges: Vec<EdgeTraffic>,
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

/// Diffs two edge ledgers (snapshots of the same graph), returning the
/// rows whose placement or cost changed, ranked by `|Δcost|` descending
/// and then by edge index — the order a human wants to read them in.
pub fn diff_ledgers(before: &[EdgeTraffic], after: &[EdgeTraffic]) -> Vec<LedgerDelta> {
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
        let mut out: Vec<EdgeTraffic> = xs
            .iter()
            .filter(|x| !ys.iter().any(|y| y.edge == x.edge))
            .copied()
            .collect();
        out.sort_by_key(|e| e.edge);
        out
    };
    (lone(before, after), lone(after, before))
}

/// Renders the hop route one ledger row pays, 1-based to match the
/// paper's `PE1..PEm` convention: `"local@PE2"` for co-located
/// endpoints, otherwise the deterministic BFS path (`"PE1>PE2>PE4"`),
/// falling back to `"PE1..PE4 (h hops)"` when no route table applies.
pub fn route_label(routes: Option<&RoutingTable>, e: &EdgeTraffic) -> String {
    if !e.crossing() {
        return format!("local@PE{}", e.src_pe + 1);
    }
    if let Some(rt) = routes {
        let path = rt.path(
            Pe::from_index(e.src_pe as usize),
            Pe::from_index(e.dst_pe as usize),
        );
        if path.len() >= 2 {
            let hops: Vec<String> = path
                .iter()
                .map(|p| format!("PE{}", p.index() + 1))
                .collect();
            return hops.join(">");
        }
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

/// Comm/compute balance of one phase: the start-up schedule (`pass` 0)
/// or one rotate-remap pass.
///
/// Reverted passes emit no attribution snapshot (the schedule rolled
/// back to its pre-pass state), so their traffic fields are zero and
/// `accepted` is `false`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
}

impl PassProfile {
    fn to_value(self) -> Value {
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
    /// Start-up schedule length.
    pub initial_length: u32,
    /// Best schedule length.
    pub best_length: u32,
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
    /// Comm/compute balance per phase (`pass` 0 = start-up).
    pub passes: Vec<PassProfile>,
    /// Full edge snapshots of the accepted phases, in pass order.
    /// Not part of the JSON export — see [`PassLedger`].
    pub pass_ledgers: Vec<PassLedger>,
}

fn fold(edges: &[EdgeTraffic]) -> (u64, u32, u32) {
    let mut comm = 0u64;
    let (mut crossing, mut local) = (0u32, 0u32);
    for e in edges {
        comm = comm.saturating_add(e.cost());
        if e.crossing() {
            crossing += 1;
        } else {
            local += 1;
        }
    }
    (comm, crossing, local)
}

impl CommProfile {
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
                Value::Array(self.edges.iter().map(|e| e.to_value()).collect()),
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

/// Folds the event stream into a [`CommProfile`].
///
/// Install one as a sink (it implements [`Sink`]) or feed it a
/// recorded stream via [`build`].  The builder tracks the stream's
/// phase brackets: each `traffic.edge` snapshot belongs to the
/// start-up schedule, one rotate-remap pass, or (after the last pass)
/// the final best schedule, whose snapshot becomes the authoritative
/// ledger.
#[derive(Default)]
pub struct ProfileBuilder {
    cur_edges: Vec<EdgeTraffic>,
    pe_loads: Vec<(u32, u32, u32)>,
    passes: Vec<PassProfile>,
    pass_ledgers: Vec<PassLedger>,
    initial_length: u32,
    best_length: u32,
}

/// A routable machine's deterministic BFS routes plus an index from
/// each hop to its physical link.  Build it once per machine and share
/// it across every [`link_loads`] and [`route_label`] call: the route
/// table is `O(PEs²)` to build, and the index replaces a scan of the
/// machine's link list per hop.
pub struct LinkRoutes {
    table: RoutingTable,
    /// Every physical link as `((min, max), position in
    /// machine.links())`, sorted by link for binary search.
    index: Vec<((usize, usize), usize)>,
}

impl LinkRoutes {
    /// Routes for `machine`, or `None` when link loads are not
    /// meaningful on it (see [`routable`]).
    pub fn new(machine: &Machine) -> Option<Self> {
        if !routable(machine) {
            return None;
        }
        let mut index: Vec<_> = machine
            .links()
            .iter()
            .enumerate()
            .map(|(ix, &link)| (link, ix))
            .collect();
        index.sort_unstable();
        Some(LinkRoutes {
            table: RoutingTable::new(machine),
            index,
        })
    }

    /// The deterministic route table ([`route_label`] takes it).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Position in `machine.links()` of the link joining `a` and `b`.
    fn link(&self, a: Pe, b: Pe) -> Option<usize> {
        let (a, b) = (a.index(), b.index());
        let key = (a.min(b), a.max(b));
        self.index
            .binary_search_by_key(&key, |&(link, _)| link)
            .ok()
            .map(|i| self.index[i].1)
    }
}

/// Hop-weighted link loads of one edge ledger on `machine`: each
/// crossing edge charges its volume to every link on the deterministic
/// BFS route between its PEs.  Σ over links of one edge's volume =
/// hops · volume = the edge's cost, so link loads and the ledger agree
/// (the conservation invariant `report-check` verifies).  `routes` is
/// [`LinkRoutes::new`] of the same machine; a machine without
/// meaningful routes (no links, or disconnected) has none and loads
/// nothing.
pub fn link_loads(
    machine: &Machine,
    routes: Option<&LinkRoutes>,
    edges: &[EdgeTraffic],
) -> Vec<LinkLoad> {
    let mut links: Vec<LinkLoad> = machine
        .links()
        .iter()
        .map(|&(a, b)| LinkLoad {
            a: u32::try_from(a).unwrap_or(u32::MAX),
            b: u32::try_from(b).unwrap_or(u32::MAX),
            ..LinkLoad::default()
        })
        .collect();
    let Some(routes) = routes else {
        return links;
    };
    for e in edges {
        if !e.crossing() || e.hops == 0 || e.hops == u32::MAX {
            continue;
        }
        let dst = Pe::from_index(e.dst_pe as usize);
        let mut cur = Pe::from_index(e.src_pe as usize);
        while cur != dst {
            let next = routes.table.next_hop(cur, dst);
            if let Some(ix) = routes.link(cur, next) {
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

    /// Consumes the builder, resolving link routes against `machine`
    /// (the machine the profiled run was scheduled on).
    pub fn finish(self, machine: &Machine) -> CommProfile {
        let edges = self.cur_edges;
        let (total_comm, crossing_edges, local_edges) = fold(&edges);
        let links = link_loads(machine, LinkRoutes::new(machine).as_ref(), &edges);

        // Per-PE rows: loads from the traffic.pe events, send/recv
        // from the ledger.
        let mut pe_rows: Vec<PeProfile> = self
            .pe_loads
            .iter()
            .map(|&(pe, tasks, busy)| PeProfile {
                pe,
                tasks,
                busy,
                idle: self.best_length.saturating_sub(busy),
                ..PeProfile::default()
            })
            .collect();
        pe_rows.sort_by_key(|r| r.pe);
        for e in &edges {
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
        let compute = pe_rows.iter().map(|r| u64::from(r.busy)).sum();

        CommProfile {
            machine: machine.name().to_string(),
            pes: u32::try_from(machine.num_pes()).unwrap_or(u32::MAX),
            initial_length: self.initial_length,
            best_length: self.best_length,
            compute,
            total_comm,
            crossing_edges,
            local_edges,
            edges,
            links,
            pe_rows,
            passes: self.passes,
            pass_ledgers: self.pass_ledgers,
        }
    }
}

impl Sink for ProfileBuilder {
    fn event(&mut self, ev: Event) {
        match ev {
            Event::StartupBegin { .. } | Event::PassBegin { .. } => self.cur_edges.clear(),
            Event::EdgeTraffic {
                edge,
                src,
                dst,
                src_pe,
                dst_pe,
                hops,
                volume,
            } => self.cur_edges.push(EdgeTraffic {
                edge,
                src,
                dst,
                src_pe,
                dst_pe,
                hops,
                volume,
            }),
            Event::StartupEnd { length } => {
                self.initial_length = length;
                self.best_length = length; // until compaction improves it
                let (comm, crossing, local) = fold(&self.cur_edges);
                self.passes.push(PassProfile {
                    pass: 0,
                    accepted: true,
                    length,
                    comm,
                    crossing,
                    local,
                });
                self.pass_ledgers.push(PassLedger {
                    pass: 0,
                    length,
                    edges: std::mem::take(&mut self.cur_edges),
                });
            }
            Event::PassEnd {
                pass,
                accepted,
                length,
            } => {
                let (comm, crossing, local) = fold(&self.cur_edges);
                self.passes.push(PassProfile {
                    pass,
                    accepted,
                    length,
                    comm,
                    crossing,
                    local,
                });
                if accepted {
                    self.pass_ledgers.push(PassLedger {
                        pass,
                        length,
                        edges: std::mem::take(&mut self.cur_edges),
                    });
                } else {
                    self.cur_edges.clear();
                }
            }
            Event::PeLoad { pe, tasks, busy } => self.pe_loads.push((pe, tasks, busy)),
            Event::CompactEnd { initial, best, .. } => {
                self.initial_length = initial;
                self.best_length = best;
                // cur_edges now holds the final best-schedule snapshot;
                // finish() adopts it as the ledger.
            }
            // The communication profile needs only traffic, load, and
            // phase boundaries.  Everything else is deliberately
            // skipped (`cargo xtask lint` keeps this list honest):
            // EVENT-IGNORED: ReadyPick — startup heuristic detail, no traffic.
            // EVENT-IGNORED: StartupPlace — placement narrative; fold.rs renders it.
            // EVENT-IGNORED: StartupDefer — placement narrative, no traffic.
            // EVENT-IGNORED: CompactBegin — config echo; bounds come from CompactEnd.
            // EVENT-IGNORED: Rotate — per-pass detail below this profile's grain.
            // EVENT-IGNORED: Candidate — scan detail below this profile's grain.
            // EVENT-IGNORED: Placed — scan detail below this profile's grain.
            // EVENT-IGNORED: NoSlot — scan detail below this profile's grain.
            // EVENT-IGNORED: SlackRepair — repair detail, traffic arrives as EdgeTraffic.
            // EVENT-IGNORED: PassStats — derived counters; the profile re-derives its own.
            // EVENT-IGNORED: BestSnapshot — length trajectory; PassEnd carries it too.
            // EVENT-IGNORED: OccupancySnapshot — occupancy grid; load arrives as PeLoad.
            _ => {}
        }
    }
}

/// Folds a recorded event stream into a [`CommProfile`] for `machine`.
pub fn build(events: &[TimedEvent], machine: &Machine) -> CommProfile {
    let mut b = ProfileBuilder::new();
    for te in events {
        b.event(te.event.clone());
    }
    b.finish(machine)
}

/// Prose ledger-diff notes for the `--explain` narrative: for every
/// accepted rotate-remap pass, the top-`k` edges whose communication
/// cost or placement changed relative to the previous accepted phase,
/// with before→after hop routes.  Returns `(pass, note)` pairs; the
/// note is pre-indented to sit under the explainer's `pass N accepted`
/// line.  Shares [`diff_ledgers`] with the HTML report, so the two
/// always tell the same story.
pub fn pass_diff_notes(
    p: &CommProfile,
    machine: &Machine,
    k: usize,
    mut name: impl FnMut(u32) -> String,
) -> Vec<(u32, String)> {
    use std::fmt::Write as _;
    let routes = routable(machine).then(|| RoutingTable::new(machine));
    let mut notes = Vec::new();
    for pair in p.pass_ledgers.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        let deltas = diff_ledgers(&prev.edges, &cur.edges);
        let (prev_comm, _, _) = fold(&prev.edges);
        let (cur_comm, _, _) = fold(&cur.edges);
        let mut note = String::new();
        let shift = i64::try_from(cur_comm).unwrap_or(i64::MAX)
            - i64::try_from(prev_comm).unwrap_or(i64::MAX);
        let _ = writeln!(
            note,
            "  ledger diff vs pass {}: comm {prev_comm} -> {cur_comm} ({shift:+}), {} of {} edge(s) moved",
            prev.pass,
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
                route_label(routes.as_ref(), &d.before),
                route_label(routes.as_ref(), &d.after),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn te(event: Event) -> TimedEvent {
        TimedEvent { ns: 0, event }
    }

    fn traffic(edge: u32, src_pe: u32, dst_pe: u32, hops: u32, volume: u32) -> Event {
        Event::EdgeTraffic {
            edge,
            src: edge,
            dst: edge + 1,
            src_pe,
            dst_pe,
            hops,
            volume,
        }
    }

    /// The per-call table and linear link scan [`link_loads`] used
    /// before [`LinkRoutes`], kept as the oracle.
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
        let routes = RoutingTable::new(machine);
        for e in edges {
            if !e.crossing() || e.hops == 0 || e.hops == u32::MAX {
                continue;
            }
            let (sp, dp) = (Pe(e.src_pe), Pe(e.dst_pe));
            for (a, b) in routes.links_on_path(sp, dp) {
                if let Some(ix) = machine.links().iter().position(|&l| l == (a, b)) {
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
            let routes = LinkRoutes::new(m);
            assert_eq!(routes.is_some(), routable(m), "{}", m.name());
            let loads = link_loads(m, routes.as_ref(), &edges);
            assert_eq!(loads, link_loads_by_scan(m, &edges), "{}", m.name());
            // Conservation: the links carry the ledger's hop-weighted cost.
            if routes.is_some() {
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
            te(traffic(0, 0, 1, 1, 3)),
            te(traffic(1, 1, 1, 0, 4)),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 5,
            }),
            // Final best snapshot.
            te(traffic(0, 0, 1, 1, 3)),
            te(traffic(1, 1, 1, 0, 4)),
            te(Event::PeLoad {
                pe: 0,
                tasks: 1,
                busy: 2,
            }),
            te(Event::PeLoad {
                pe: 1,
                tasks: 2,
                busy: 3,
            }),
            te(Event::PeLoad {
                pe: 2,
                tasks: 0,
                busy: 0,
            }),
            te(Event::CompactEnd {
                initial: 6,
                best: 5,
                passes: 1,
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
    fn reverted_pass_records_zero_traffic() {
        let m = Machine::linear_array(2);
        let events = vec![
            te(Event::PassBegin {
                pass: 1,
                prev_len: 4,
                rows: 1,
            }),
            te(Event::PassEnd {
                pass: 1,
                accepted: false,
                length: 4,
            }),
        ];
        let p = build(&events, &m);
        assert_eq!(p.passes.len(), 1);
        assert!(!p.passes[0].accepted);
        assert_eq!(p.passes[0].comm, 0);
        assert!(
            p.pass_ledgers.is_empty(),
            "reverted passes keep no ledger snapshot"
        );
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
        assert_eq!(route_label(None, &zero), "PE1..PE3 (0 hops)");
        // Zero volume still routes: the label names the path, the cost
        // model charges nothing.
        let m = Machine::linear_array(3);
        let routes = RoutingTable::new(&m);
        let free = EdgeTraffic {
            hops: 2,
            volume: 0,
            ..zero
        };
        assert_eq!(route_label(Some(&routes), &free), "PE1>PE2>PE3");
        assert_eq!(free.cost(), 0);
    }

    #[test]
    fn route_labels_name_hops() {
        let m = Machine::linear_array(4);
        let routes = RoutingTable::new(&m);
        let crossing = EdgeTraffic {
            edge: 0,
            src: 0,
            dst: 1,
            src_pe: 0,
            dst_pe: 3,
            hops: 3,
            volume: 1,
        };
        assert_eq!(route_label(Some(&routes), &crossing), "PE1>PE2>PE3>PE4");
        let local = EdgeTraffic {
            src_pe: 1,
            dst_pe: 1,
            hops: 0,
            ..crossing
        };
        assert_eq!(route_label(Some(&routes), &local), "local@PE2");
        assert_eq!(route_label(None, &crossing), "PE1..PE4 (3 hops)");
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
            te(Event::PeLoad {
                pe: 0,
                tasks: 1,
                busy: 1,
            }),
            te(Event::CompactEnd {
                initial: 3,
                best: 3,
                passes: 0,
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
            }),
        ];
        let p = build(&events, &m);
        assert_eq!(p.total_comm, 0);
        assert_eq!(p.crossing_edges, 1);
        assert!(p.links.iter().all(|l| l.volume == 0));
    }
}
