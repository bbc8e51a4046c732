//! The structured event taxonomy of the cyclo-compaction pipeline.
//!
//! Events are emitted by three scheduler layers (see `DESIGN.md` §10):
//!
//! * **startup** — `PF` ready-list picks and per-node placements of the
//!   start-up list scheduler;
//! * **remap** — per-pass rotation sets, the per-PE candidate scan of
//!   `best_position` (anticipation-function components and rejection
//!   reasons), `PSL` slack repairs, and per-pass hot-path counters;
//! * **compact** — driver pass boundaries, best-snapshot updates, and
//!   slot-occupancy snapshots.
//!
//! Every event is plain data over raw node / PE indices (`u32`), so the
//! crate depends on nothing but the serde stand-in.  Events are fully
//! deterministic: no wall-clock quantities ever appear in an event
//! (sinks that want timing keep their own clocks), which is what makes
//! golden-pinning the stream and byte-identical `--trace` output across
//! thread counts possible.

use std::fmt::{self, Write as _};

/// The runner-up candidate of a remap placement: the second-best
/// `(PE, control step)` under the `(impact, cs, comm, pe)` ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunnerUp {
    /// Processor index of the runner-up slot.
    pub pe: u32,
    /// Start control step of the runner-up slot.
    pub cs: u32,
    /// Length impact the runner-up would have forced.
    pub impact: u32,
    /// Total communication traffic of the runner-up.
    pub comm: u32,
}

impl fmt::Display for RunnerUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pe{}@cs{}(impact={},comm={})",
            self.pe + 1,
            self.cs,
            self.impact,
            self.comm
        )
    }
}

/// Outcome of scanning one candidate PE in `best_position`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The anticipation-function bounds crossed (`AN(v, p) > ub`): no
    /// control step on this PE can satisfy both the placed predecessors
    /// and the placed successors at this target length.
    Infeasible,
    /// Bounds were satisfiable but the earliest free slot at or after
    /// the lower bound ends past the upper bound — the PE's occupancy
    /// row is too busy.
    NoFreeSlot,
    /// A legal slot exists but ranked worse than the current best.
    Feasible {
        /// The slot's start control step.
        cs: u32,
        /// Schedule length this placement would force (Lemma 4.3).
        impact: u32,
    },
    /// A legal slot that became the best seen so far in this scan.
    Leading {
        /// The slot's start control step.
        cs: u32,
        /// Schedule length this placement would force (Lemma 4.3).
        impact: u32,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Infeasible => write!(f, "infeasible"),
            Verdict::NoFreeSlot => write!(f, "busy"),
            Verdict::Feasible { cs, impact } => write!(f, "feasible cs={cs} impact={impact}"),
            Verdict::Leading { cs, impact } => write!(f, "leading cs={cs} impact={impact}"),
        }
    }
}

/// One structured event from the scheduler pipeline.
///
/// Node and PE identifiers are raw indices (0-based); renderers that
/// want human names resolve them through a caller-provided lookup.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Start-up scheduling begins.
    StartupBegin {
        /// Number of tasks to place.
        tasks: u32,
        /// Number of processors of the machine.
        pes: u32,
    },
    /// One ready-list entry at a control step, in `PF`-sorted order.
    ReadyPick {
        /// Control step being filled.
        cs: u32,
        /// Rank in the sorted ready list (0 = scheduled first).
        rank: u32,
        /// The ready node.
        node: u32,
        /// Its priority value under the active policy.
        priority: i64,
    },
    /// The start-up scheduler placed a node.
    StartupPlace {
        /// The placed node.
        node: u32,
        /// Chosen processor.
        pe: u32,
        /// Start control step.
        cs: u32,
        /// Execution time (control steps occupied).
        duration: u32,
    },
    /// A ready node could not start at this control step (no feasible
    /// PE under the `cm < cs` rule) and was deferred.
    StartupDefer {
        /// The deferred node.
        node: u32,
        /// Control step at which it was deferred.
        cs: u32,
    },
    /// Start-up scheduling finished.
    StartupEnd {
        /// Final (padded) start-up schedule length.
        length: u32,
    },
    /// The cyclo-compaction driver begins.
    CompactBegin {
        /// Number of tasks.
        tasks: u32,
        /// Number of processors.
        pes: u32,
        /// Configured maximum number of passes.
        max_passes: u32,
    },
    /// A rotate-remap pass begins.
    PassBegin {
        /// 1-based pass number.
        pass: u32,
        /// Schedule length entering the pass.
        prev_len: u32,
        /// Leading rows rotated this pass.
        rows: u32,
    },
    /// The rotation set `J` of the current pass (nodes deallocated from
    /// the leading rows and retimed by +1).
    Rotate {
        /// Rotated nodes, in remap order.
        nodes: Vec<u32>,
    },
    /// One candidate PE scanned by `best_position` for one node at one
    /// target length, with the anticipation-function components.
    Candidate {
        /// Node being re-placed.
        node: u32,
        /// Target final schedule length of this attempt.
        target: u32,
        /// Candidate processor.
        pe: u32,
        /// Lower bound on `CB(v)` from placed predecessors (`AN(v, p)`).
        lb: i64,
        /// Upper bound on `CE(v)` from placed successors and the target.
        ub: i64,
        /// Total communication traffic of this PE choice.
        comm: u32,
        /// Scan outcome.
        verdict: Verdict,
    },
    /// A rotated node was re-placed.
    Placed {
        /// The node.
        node: u32,
        /// Chosen processor.
        pe: u32,
        /// Start control step.
        cs: u32,
        /// Execution time.
        duration: u32,
        /// Target length of the successful attempt.
        target: u32,
        /// Schedule length this placement forces.
        impact: u32,
        /// Total communication traffic of the placement.
        comm: u32,
        /// Second-best candidate, if any other PE was feasible.
        runner_up: Option<RunnerUp>,
    },
    /// No PE could host the node at this target length (the remap moves
    /// on to the next target, or gives up and reverts).
    NoSlot {
        /// The node that could not be placed.
        node: u32,
        /// The target length that failed.
        target: u32,
    },
    /// Projected-schedule-length slack repair: the table is padded so
    /// the length covers every loop-carried edge's `PSL` (Lemma 4.3).
    SlackRepair {
        /// Length the PSL terms require.
        required: u32,
        /// Length before padding.
        occupied: u32,
    },
    /// Per-pass hot-path counters, emitted once per rotate-remap pass.
    PassStats {
        /// Resolved edges swept in `best_position` (per PE × target).
        edges_swept: u64,
        /// Candidate `(PE, target)` slots probed.
        slots_probed: u64,
        /// Per-node scratch resolutions reused across PEs and targets.
        scratch_reuses: u64,
        /// Invariant-oracle invocations on this pass's mutations.
        oracle_calls: u64,
    },
    /// A rotate-remap pass ended.
    PassEnd {
        /// 1-based pass number.
        pass: u32,
        /// `false` when the pass was rolled back.
        accepted: bool,
        /// Schedule length after the pass (pre-pass length on revert).
        length: u32,
    },
    /// The driver snapshotted a new best schedule (the one clone on the
    /// per-pass hot path).
    BestSnapshot {
        /// Pass that produced the improvement.
        pass: u32,
        /// New best length.
        length: u32,
    },
    /// Slot-occupancy statistics of the working schedule after an
    /// accepted pass (from `Schedule::occupancy`).
    OccupancySnapshot {
        /// Pass number.
        pass: u32,
        /// Occupied cells across all PEs.
        busy_cells: u64,
        /// Free cells below each PE's last occupied step (fragmentation).
        holes: u64,
        /// PEs hosting at least one task.
        used_pes: u32,
        /// Current schedule length.
        length: u32,
    },
    /// The driver finished.
    CompactEnd {
        /// Start-up schedule length.
        initial: u32,
        /// Best length found.
        best: u32,
        /// Passes actually run.
        passes: u32,
    },
    /// Per-edge traffic attribution: where one dependence edge's
    /// communication lands on the machine under the current placement
    /// (`M(p_i, p_j) = hops · volume`).  Emitted as a full-graph
    /// snapshot after start-up placement, after every accepted
    /// rotate-remap pass, and once for the final best schedule.
    EdgeTraffic {
        /// Edge index in the graph's edge order.
        edge: u32,
        /// Producer node.
        src: u32,
        /// Consumer node.
        dst: u32,
        /// Processor hosting the producer.
        src_pe: u32,
        /// Processor hosting the consumer.
        dst_pe: u32,
        /// Hop count between the two PEs (0 when co-located).
        hops: u32,
        /// Data volume carried by the edge (`c(e)`).
        volume: u32,
    },
    /// Per-PE load summary of the final best schedule: how many tasks a
    /// processor hosts and how many control-step cells they occupy.
    PeLoad {
        /// Processor index.
        pe: u32,
        /// Tasks placed on this PE.
        tasks: u32,
        /// Occupied control-step cells on this PE.
        busy: u32,
    },
}

impl Event {
    /// Short dotted name of the event kind (stable; used as the Chrome
    /// trace event name and the first token of [`Event`]'s `Display`).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::StartupBegin { .. } => "startup.begin",
            Event::ReadyPick { .. } => "startup.pick",
            Event::StartupPlace { .. } => "startup.place",
            Event::StartupDefer { .. } => "startup.defer",
            Event::StartupEnd { .. } => "startup.end",
            Event::CompactBegin { .. } => "compact.begin",
            Event::PassBegin { .. } => "pass.begin",
            Event::Rotate { .. } => "pass.rotate",
            Event::Candidate { .. } => "remap.candidate",
            Event::Placed { .. } => "remap.place",
            Event::NoSlot { .. } => "remap.noslot",
            Event::SlackRepair { .. } => "psl.pad",
            Event::PassStats { .. } => "pass.stats",
            Event::PassEnd { .. } => "pass.end",
            Event::BestSnapshot { .. } => "compact.best",
            Event::OccupancySnapshot { .. } => "schedule.occupancy",
            Event::CompactEnd { .. } => "compact.end",
            Event::EdgeTraffic { .. } => "traffic.edge",
            Event::PeLoad { .. } => "traffic.pe",
        }
    }

    /// The hop-weighted communication cost carried by an
    /// [`Event::EdgeTraffic`] event (`hops · volume`, saturating);
    /// `0` for every other event kind.
    pub fn traffic_cost(&self) -> u64 {
        match self {
            Event::EdgeTraffic { hops, volume, .. } => {
                u64::from(*hops).saturating_mul(u64::from(*volume))
            }
            _ => 0,
        }
    }

    /// Appends the event's payload to `out` as one compact JSON object
    /// (the Chrome trace `args` field).  Keys keep the field order;
    /// integers print as integers, `accepted`/`crossing` as booleans,
    /// `runner_up` as `null` or an object, and `verdict` as a string
    /// with serde_json's string escapes.
    pub fn write_args(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = match self {
            Event::StartupBegin { tasks, pes } => write!(out, r#"{{"tasks":{tasks},"pes":{pes}}}"#),
            Event::ReadyPick {
                cs,
                rank,
                node,
                priority,
            } => write!(
                out,
                r#"{{"cs":{cs},"rank":{rank},"node":{node},"priority":{priority}}}"#
            ),
            Event::StartupPlace {
                node,
                pe,
                cs,
                duration,
            } => write!(
                out,
                r#"{{"node":{node},"pe":{pe},"cs":{cs},"duration":{duration}}}"#
            ),
            Event::StartupDefer { node, cs } => write!(out, r#"{{"node":{node},"cs":{cs}}}"#),
            Event::StartupEnd { length } => write!(out, r#"{{"length":{length}}}"#),
            Event::CompactBegin {
                tasks,
                pes,
                max_passes,
            } => write!(
                out,
                r#"{{"tasks":{tasks},"pes":{pes},"max_passes":{max_passes}}}"#
            ),
            Event::PassBegin {
                pass,
                prev_len,
                rows,
            } => write!(
                out,
                r#"{{"pass":{pass},"prev_len":{prev_len},"rows":{rows}}}"#
            ),
            Event::Rotate { nodes } => {
                out.push_str(r#"{"nodes":["#);
                for (i, n) in nodes.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(out, "{sep}{n}");
                }
                out.push_str("]}");
                Ok(())
            }
            Event::Candidate {
                node,
                target,
                pe,
                lb,
                ub,
                comm,
                verdict,
            } => write!(
                out,
                r#"{{"node":{node},"target":{target},"pe":{pe},"lb":{lb},"ub":{ub},"comm":{comm},"verdict":{}}}"#,
                json_str(verdict)
            ),
            Event::Placed {
                node,
                pe,
                cs,
                duration,
                target,
                impact,
                comm,
                runner_up,
            } => {
                let _ = write!(
                    out,
                    r#"{{"node":{node},"pe":{pe},"cs":{cs},"duration":{duration},"target":{target},"impact":{impact},"comm":{comm},"runner_up":"#
                );
                match runner_up {
                    Some(r) => write!(
                        out,
                        r#"{{"pe":{},"cs":{},"impact":{},"comm":{}}}}}"#,
                        r.pe, r.cs, r.impact, r.comm
                    ),
                    None => {
                        out.push_str("null}");
                        Ok(())
                    }
                }
            }
            Event::NoSlot { node, target } => write!(out, r#"{{"node":{node},"target":{target}}}"#),
            Event::SlackRepair { required, occupied } => {
                write!(out, r#"{{"required":{required},"occupied":{occupied}}}"#)
            }
            Event::PassStats {
                edges_swept,
                slots_probed,
                scratch_reuses,
                oracle_calls,
            } => write!(
                out,
                r#"{{"edges_swept":{edges_swept},"slots_probed":{slots_probed},"scratch_reuses":{scratch_reuses},"oracle_calls":{oracle_calls}}}"#
            ),
            Event::PassEnd {
                pass,
                accepted,
                length,
            } => write!(
                out,
                r#"{{"pass":{pass},"accepted":{accepted},"length":{length}}}"#
            ),
            Event::BestSnapshot { pass, length } => {
                write!(out, r#"{{"pass":{pass},"length":{length}}}"#)
            }
            Event::OccupancySnapshot {
                pass,
                busy_cells,
                holes,
                used_pes,
                length,
            } => write!(
                out,
                r#"{{"pass":{pass},"busy_cells":{busy_cells},"holes":{holes},"used_pes":{used_pes},"length":{length}}}"#
            ),
            Event::CompactEnd {
                initial,
                best,
                passes,
            } => write!(
                out,
                r#"{{"initial":{initial},"best":{best},"passes":{passes}}}"#
            ),
            Event::EdgeTraffic {
                edge,
                src,
                dst,
                src_pe,
                dst_pe,
                hops,
                volume,
            } => write!(
                out,
                r#"{{"edge":{edge},"src":{src},"dst":{dst},"src_pe":{src_pe},"dst_pe":{dst_pe},"hops":{hops},"volume":{volume},"cost":{},"crossing":{}}}"#,
                self.traffic_cost(),
                src_pe != dst_pe
            ),
            Event::PeLoad { pe, tasks, busy } => {
                write!(out, r#"{{"pe":{pe},"tasks":{tasks},"busy":{busy}}}"#)
            }
        };
    }
}

/// Formats `x` as a JSON string literal, quotes included, applying the
/// escapes of `serde_json`'s writer as it formats: `"`, `\`, `\n`,
/// `\r` and `\t` get their short forms, every other control character
/// below U+0020 becomes `\u00XX`, and all other text passes through.
pub(crate) fn json_str<T: fmt::Display>(x: T) -> impl fmt::Display {
    struct JsonStr<T>(T);
    /// Escapes each chunk the inner value writes.
    struct Escape<'a, 'b>(&'a mut fmt::Formatter<'b>);
    impl fmt::Write for Escape<'_, '_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let mut plain = 0;
            for (i, b) in s.bytes().enumerate() {
                if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                    continue;
                }
                self.0.write_str(&s[plain..i])?;
                match b {
                    b'"' => self.0.write_str("\\\""),
                    b'\\' => self.0.write_str("\\\\"),
                    b'\n' => self.0.write_str("\\n"),
                    b'\r' => self.0.write_str("\\r"),
                    b'\t' => self.0.write_str("\\t"),
                    _ => write!(self.0, "\\u{b:04x}"),
                }?;
                plain = i + 1;
            }
            self.0.write_str(&s[plain..])
        }
    }
    impl<T: fmt::Display> fmt::Display for JsonStr<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("\"")?;
            write!(Escape(f), "{}", self.0)?;
            f.write_str("\"")
        }
    }
    JsonStr(x)
}

impl fmt::Display for Event {
    /// One stable line per event — the format golden tests pin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind())?;
        match self {
            Event::StartupBegin { tasks, pes } => write!(f, " tasks={tasks} pes={pes}"),
            Event::ReadyPick {
                cs,
                rank,
                node,
                priority,
            } => write!(f, " cs={cs} rank={rank} node=n{node} pf={priority}"),
            Event::StartupPlace {
                node,
                pe,
                cs,
                duration,
            } => write!(f, " node=n{node} pe={pe} cs={cs} dur={duration}"),
            Event::StartupDefer { node, cs } => write!(f, " node=n{node} cs={cs}"),
            Event::StartupEnd { length } => write!(f, " len={length}"),
            Event::CompactBegin {
                tasks,
                pes,
                max_passes,
            } => write!(f, " tasks={tasks} pes={pes} max_passes={max_passes}"),
            Event::PassBegin {
                pass,
                prev_len,
                rows,
            } => write!(f, " pass={pass} len={prev_len} rows={rows}"),
            Event::Rotate { nodes } => {
                write!(f, " nodes=[")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "n{n}")?;
                }
                write!(f, "]")
            }
            Event::Candidate {
                node,
                target,
                pe,
                lb,
                ub,
                comm,
                verdict,
            } => write!(
                f,
                " node=n{node} target={target} pe={pe} lb={lb} ub={ub} comm={comm} verdict={verdict}"
            ),
            Event::Placed {
                node,
                pe,
                cs,
                duration,
                target,
                impact,
                comm,
                runner_up,
            } => {
                write!(
                    f,
                    " node=n{node} pe={pe} cs={cs} dur={duration} target={target} impact={impact} comm={comm} runner_up="
                )?;
                match runner_up {
                    Some(r) => write!(f, "{r}"),
                    None => write!(f, "none"),
                }
            }
            Event::NoSlot { node, target } => write!(f, " node=n{node} target={target}"),
            Event::SlackRepair { required, occupied } => {
                write!(f, " required={required} occupied={occupied}")
            }
            Event::PassStats {
                edges_swept,
                slots_probed,
                scratch_reuses,
                oracle_calls,
            } => write!(
                f,
                " edges={edges_swept} slots={slots_probed} scratch={scratch_reuses} oracle={oracle_calls}"
            ),
            Event::PassEnd {
                pass,
                accepted,
                length,
            } => write!(f, " pass={pass} accepted={accepted} len={length}"),
            Event::BestSnapshot { pass, length } => write!(f, " pass={pass} len={length}"),
            Event::OccupancySnapshot {
                pass,
                busy_cells,
                holes,
                used_pes,
                length,
            } => write!(
                f,
                " pass={pass} busy={busy_cells} holes={holes} used_pes={used_pes} len={length}"
            ),
            Event::CompactEnd {
                initial,
                best,
                passes,
            } => write!(f, " init={initial} best={best} passes={passes}"),
            Event::EdgeTraffic {
                edge,
                src,
                dst,
                src_pe,
                dst_pe,
                hops,
                volume,
            } => write!(
                f,
                " edge=e{edge} n{src}->n{dst} pe={src_pe}->{dst_pe} hops={hops} vol={volume} cost={} crossing={}",
                self.traffic_cost(),
                src_pe != dst_pe
            ),
            Event::PeLoad { pe, tasks, busy } => write!(f, " pe={pe} tasks={tasks} busy={busy}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The appended args object, parsed back with serde_json.
    fn args(ev: &Event) -> Value {
        let mut out = String::new();
        ev.write_args(&mut out);
        serde_json::from_str(&out).unwrap_or_else(|e| panic!("{out}: {e}"))
    }

    #[test]
    fn display_is_stable_one_liner() {
        let ev = Event::Placed {
            node: 0,
            pe: 1,
            cs: 2,
            duration: 1,
            target: 6,
            impact: 6,
            comm: 3,
            runner_up: Some(RunnerUp {
                pe: 2,
                cs: 3,
                impact: 7,
                comm: 1,
            }),
        };
        assert_eq!(
            ev.to_string(),
            "remap.place node=n0 pe=1 cs=2 dur=1 target=6 impact=6 comm=3 runner_up=pe3@cs3(impact=7,comm=1)"
        );
        assert!(!ev.to_string().contains('\n'));
    }

    #[test]
    fn verdict_rendering() {
        assert_eq!(Verdict::Infeasible.to_string(), "infeasible");
        assert_eq!(Verdict::NoFreeSlot.to_string(), "busy");
        assert_eq!(
            Verdict::Leading { cs: 2, impact: 5 }.to_string(),
            "leading cs=2 impact=5"
        );
    }

    #[test]
    fn args_are_objects() {
        let ev = Event::PassStats {
            edges_swept: 10,
            slots_probed: 4,
            scratch_reuses: 2,
            oracle_calls: 1,
        };
        let v = args(&ev);
        assert!(v.as_object().is_some());
        assert_eq!(v["edges_swept"].as_u64(), Some(10));
        assert_eq!(ev.kind(), "pass.stats");
    }

    #[test]
    fn edge_traffic_display_and_args() {
        let ev = Event::EdgeTraffic {
            edge: 4,
            src: 0,
            dst: 3,
            src_pe: 1,
            dst_pe: 2,
            hops: 2,
            volume: 3,
        };
        assert_eq!(
            ev.to_string(),
            "traffic.edge edge=e4 n0->n3 pe=1->2 hops=2 vol=3 cost=6 crossing=true"
        );
        assert_eq!(ev.kind(), "traffic.edge");
        assert_eq!(ev.traffic_cost(), 6);
        let v = args(&ev);
        assert_eq!(v["cost"].as_u64(), Some(6));
        assert_eq!(v["hops"].as_u64(), Some(2));

        let local = Event::EdgeTraffic {
            edge: 0,
            src: 1,
            dst: 2,
            src_pe: 0,
            dst_pe: 0,
            hops: 0,
            volume: 9,
        };
        assert_eq!(
            local.to_string(),
            "traffic.edge edge=e0 n1->n2 pe=0->0 hops=0 vol=9 cost=0 crossing=false"
        );
        assert_eq!(local.traffic_cost(), 0);
    }

    #[test]
    fn traffic_cost_saturates() {
        let ev = Event::EdgeTraffic {
            edge: 0,
            src: 0,
            dst: 1,
            src_pe: 0,
            dst_pe: 1,
            hops: u32::MAX,
            volume: u32::MAX,
        };
        // u32::MAX² fits in u64, so no saturation needed here — but the
        // product must not panic and non-traffic events report zero.
        assert_eq!(ev.traffic_cost(), u64::from(u32::MAX) * u64::from(u32::MAX));
        assert_eq!(Event::StartupEnd { length: 1 }.traffic_cost(), 0);
    }

    #[test]
    fn pe_load_display() {
        let ev = Event::PeLoad {
            pe: 2,
            tasks: 3,
            busy: 5,
        };
        assert_eq!(ev.to_string(), "traffic.pe pe=2 tasks=3 busy=5");
        assert_eq!(ev.kind(), "traffic.pe");
        assert_eq!(args(&ev)["busy"].as_u64(), Some(5));
    }

    #[test]
    fn negative_priority_serializes_as_int() {
        let ev = Event::ReadyPick {
            cs: 1,
            rank: 0,
            node: 3,
            priority: -4,
        };
        assert_eq!(args(&ev)["priority"].as_i64(), Some(-4));
    }

    /// Every variant's exact args bytes: keys in field order, integers
    /// as integers (negative ones signed), booleans, `null` and nested
    /// objects, and empty and non-empty arrays.
    #[test]
    fn every_variant_writes_its_args_object() {
        let ru = RunnerUp {
            pe: 2,
            cs: 3,
            impact: 7,
            comm: 1,
        };
        let placed = |runner_up| Event::Placed {
            node: 0,
            pe: 1,
            cs: 2,
            duration: 1,
            target: 6,
            impact: 6,
            comm: 3,
            runner_up,
        };
        let cases = [
            (
                Event::StartupBegin { tasks: 6, pes: 4 },
                r#"{"tasks":6,"pes":4}"#,
            ),
            (
                Event::ReadyPick {
                    cs: 1,
                    rank: 0,
                    node: 3,
                    priority: -4,
                },
                r#"{"cs":1,"rank":0,"node":3,"priority":-4}"#,
            ),
            (
                Event::StartupPlace {
                    node: 1,
                    pe: 0,
                    cs: 2,
                    duration: 2,
                },
                r#"{"node":1,"pe":0,"cs":2,"duration":2}"#,
            ),
            (
                Event::StartupDefer { node: 2, cs: 2 },
                r#"{"node":2,"cs":2}"#,
            ),
            (Event::StartupEnd { length: 7 }, r#"{"length":7}"#),
            (
                Event::CompactBegin {
                    tasks: 6,
                    pes: 4,
                    max_passes: 2,
                },
                r#"{"tasks":6,"pes":4,"max_passes":2}"#,
            ),
            (
                Event::PassBegin {
                    pass: 1,
                    prev_len: 7,
                    rows: 1,
                },
                r#"{"pass":1,"prev_len":7,"rows":1}"#,
            ),
            (Event::Rotate { nodes: vec![] }, r#"{"nodes":[]}"#),
            (
                Event::Rotate {
                    nodes: vec![1, 0, 12],
                },
                r#"{"nodes":[1,0,12]}"#,
            ),
            (
                Event::Candidate {
                    node: 0,
                    target: 6,
                    pe: 1,
                    lb: -3,
                    ub: -1,
                    comm: 5,
                    verdict: Verdict::Leading { cs: 1, impact: 3 },
                },
                r#"{"node":0,"target":6,"pe":1,"lb":-3,"ub":-1,"comm":5,"verdict":"leading cs=1 impact=3"}"#,
            ),
            (
                Event::Candidate {
                    node: 0,
                    target: 6,
                    pe: 0,
                    lb: 1,
                    ub: 6,
                    comm: 1,
                    verdict: Verdict::NoFreeSlot,
                },
                r#"{"node":0,"target":6,"pe":0,"lb":1,"ub":6,"comm":1,"verdict":"busy"}"#,
            ),
            (
                placed(Some(ru)),
                r#"{"node":0,"pe":1,"cs":2,"duration":1,"target":6,"impact":6,"comm":3,"runner_up":{"pe":2,"cs":3,"impact":7,"comm":1}}"#,
            ),
            (
                placed(None),
                r#"{"node":0,"pe":1,"cs":2,"duration":1,"target":6,"impact":6,"comm":3,"runner_up":null}"#,
            ),
            (
                Event::NoSlot { node: 4, target: 5 },
                r#"{"node":4,"target":5}"#,
            ),
            (
                Event::SlackRepair {
                    required: 6,
                    occupied: 5,
                },
                r#"{"required":6,"occupied":5}"#,
            ),
            (
                Event::PassStats {
                    edges_swept: u64::MAX,
                    slots_probed: 8,
                    scratch_reuses: 0,
                    oracle_calls: 2,
                },
                r#"{"edges_swept":18446744073709551615,"slots_probed":8,"scratch_reuses":0,"oracle_calls":2}"#,
            ),
            (
                Event::PassEnd {
                    pass: 2,
                    accepted: false,
                    length: 6,
                },
                r#"{"pass":2,"accepted":false,"length":6}"#,
            ),
            (
                Event::BestSnapshot { pass: 1, length: 6 },
                r#"{"pass":1,"length":6}"#,
            ),
            (
                Event::OccupancySnapshot {
                    pass: 1,
                    busy_cells: 8,
                    holes: 0,
                    used_pes: 2,
                    length: 6,
                },
                r#"{"pass":1,"busy_cells":8,"holes":0,"used_pes":2,"length":6}"#,
            ),
            (
                Event::CompactEnd {
                    initial: 7,
                    best: 5,
                    passes: 2,
                },
                r#"{"initial":7,"best":5,"passes":2}"#,
            ),
            (
                Event::EdgeTraffic {
                    edge: 4,
                    src: 0,
                    dst: 3,
                    src_pe: 1,
                    dst_pe: 2,
                    hops: 2,
                    volume: 3,
                },
                r#"{"edge":4,"src":0,"dst":3,"src_pe":1,"dst_pe":2,"hops":2,"volume":3,"cost":6,"crossing":true}"#,
            ),
            (
                Event::PeLoad {
                    pe: 2,
                    tasks: 3,
                    busy: 5,
                },
                r#"{"pe":2,"tasks":3,"busy":5}"#,
            ),
        ];
        for (ev, expected) in &cases {
            let mut out = String::from("prefix");
            ev.write_args(&mut out);
            assert_eq!(out, format!("prefix{expected}"), "{}", ev.kind());
            // Valid JSON that serde_json writes back byte for byte.
            assert_eq!(serde_json::to_string(&args(ev)).unwrap(), *expected);
        }
    }

    #[test]
    fn json_str_escapes_like_serde_json_and_round_trips() {
        let inputs = [
            "plain",
            "",
            "quote \" here",
            "back\\slash",
            "line\nfeed",
            "carriage\rreturn",
            "tab\there",
            "bell \u{1} and \u{1f}",
            "PE\u{2081} — Δ ≥ 3 \u{1F600}",
            "\"\\\n\r\t\u{1}",
        ];
        for s in inputs {
            let ours = json_str(s).to_string();
            assert_eq!(ours, serde_json::to_string(&s).unwrap(), "{s:?}");
            let back: String = serde_json::from_str(&ours).unwrap();
            assert_eq!(back, s);
        }
        assert_eq!(json_str("a\"b").to_string(), r#""a\"b""#);
        assert_eq!(json_str("\u{1}").to_string(), r#""\u0001""#);
        assert_eq!(
            json_str(format_args!("{}{}", "a\\", "\n")).to_string(),
            r#""a\\\n""#
        );
    }
}
