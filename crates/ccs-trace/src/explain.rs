//! Human-readable decision narrative.
//!
//! [`explain`] replays a recorded event stream and renders, per pass
//! and per node, *why* the scheduler did what it did: which `(PE,
//! control step)` each rotated node landed on, what the runner-up slot
//! was, which candidate PEs were rejected and for which reason
//! (anticipation-function bounds crossed vs. occupancy-row full), where
//! `PSL` slack forced padding, and which passes were accepted or
//! reverted.  The `cyclosched schedule --explain` flag pipes the
//! recorded stream of a real run through this renderer.
//!
//! A `traffic:` line totals the running [`TrafficLedger`] after
//! start-up, after every accepted pass and for the final best
//! schedule.  An accepted pass carries only the `traffic.edge` rows of
//! the edges it moved, often none, and still gets its line.
//!
//! The closing `compaction done:` line adds `length L meets the proven
//! floor F` when the best length reached the floor `compact.end`
//! carries: that is where the driver stopped.
//!
//! The renderer is a pure function of the event stream, so its output
//! is as deterministic as the events themselves.

use crate::event::{
    Candidate, Event, PassStats, PeLoad, Placed, ScanBuffer, StartupPlace, TrafficLedger, Verdict,
};
use crate::TimedEvent;
use std::fmt::Write as _;

/// Appends the narrative line of one candidate of a closed attempt.
fn candidate_line(out: &mut String, c: &Candidate) {
    let (pe, lb, ub, comm) = (c.pe + 1, c.lb, c.ub, c.comm);
    let _ = match c.verdict {
        Verdict::Infeasible => {
            writeln!(
                out,
                "      PE{pe}: rejected — AN bounds cross (lb {lb} > ub {ub})"
            )
        }
        Verdict::NoFreeSlot => {
            writeln!(out, "      PE{pe}: rejected — no free slot in [{lb}, {ub}]")
        }
        Verdict::Feasible { cs, impact } => writeln!(
            out,
            "      PE{pe}: feasible @ cs {cs} (impact {impact}, comm {comm}) — outranked"
        ),
        Verdict::Leading { cs, impact } => writeln!(
            out,
            "      PE{pe}: feasible @ cs {cs} (impact {impact}, comm {comm}) — leading"
        ),
    };
}

/// Appends the one-line summary of `ledger`.
fn traffic_line(out: &mut String, ledger: &TrafficLedger) {
    let _ = writeln!(
        out,
        "  traffic: {} edge(s), {} crossing, comm cost {}",
        ledger.rows().len(),
        ledger.crossing(),
        ledger.cost()
    );
}

/// Renders the decision narrative for `events`.
///
/// `name` maps a raw node index to a display name (pass
/// `|n| format!("n{n}")` when no graph is at hand).  PEs are shown
/// 1-based to match the paper's `PE1..PEm` convention; control steps
/// are printed as the events carry them, 1-based like the schedule
/// table's rows.
pub fn explain(events: &[TimedEvent], name: impl FnMut(u32) -> String) -> String {
    explain_with(events, name, |_| None)
}

/// [`explain`] with a per-pass annotation hook: after every *accepted*
/// pass line, `annotate(pass)` may contribute extra narrative — the
/// CLI splices in the per-pass ledger diffs computed by `ccs-profile`
/// here ("which edges' hop·volume moved, where, and by how much"),
/// keeping this crate free of any topology dependency.
///
/// The annotation is appended verbatim, so it should be pre-indented
/// and newline-terminated to match the surrounding narrative.
pub fn explain_with(
    events: &[TimedEvent],
    mut name: impl FnMut(u32) -> String,
    mut annotate: impl FnMut(u32) -> Option<String>,
) -> String {
    let mut out = String::new();
    // Candidates of the attempt being scanned; its `Placed`/`NoSlot`
    // line is followed by them.
    let mut scan = ScanBuffer::default();
    let mut in_pass = false;
    let mut ledger = TrafficLedger::default();
    // A full snapshot (start-up or final, outside any pass) is being
    // read; its `traffic:` line follows its last row.
    let mut snapshot = false;

    for (i, te) in events.iter().enumerate() {
        if snapshot && !matches!(te.event, Event::EdgeTraffic(_)) {
            snapshot = false;
            traffic_line(&mut out, &ledger);
        }
        ledger.observe(&te.event);
        match &te.event {
            Event::StartupBegin { tasks, pes } => {
                let _ = writeln!(out, "startup: {tasks} tasks on {pes} PEs");
            }
            Event::ReadyPick {
                cs,
                rank,
                node,
                priority,
            } => {
                let _ = writeln!(
                    out,
                    "  cs {cs}: ready[{rank}] = {} (PF={priority})",
                    name(*node)
                );
            }
            Event::StartupPlace(StartupPlace {
                node,
                pe,
                cs,
                duration,
            }) => {
                let _ = writeln!(
                    out,
                    "  place {} -> PE{} @ cs {cs} (dur {duration})",
                    name(*node),
                    pe + 1
                );
            }
            Event::StartupDefer { node, cs } => {
                let _ = writeln!(out, "  defer {} at cs {cs} (no feasible PE)", name(*node));
            }
            Event::StartupEnd { length } => {
                let _ = writeln!(out, "startup done: length {length}");
            }
            Event::CompactBegin {
                tasks,
                pes,
                max_passes,
            } => {
                let _ = writeln!(
                    out,
                    "cyclo-compact: {tasks} tasks, {pes} PEs, up to {max_passes} passes"
                );
            }
            Event::PassBegin {
                pass,
                prev_len,
                rows,
            } => {
                in_pass = true;
                let _ = writeln!(
                    out,
                    "pass {pass}: length {prev_len}, rotating {rows} leading row(s)"
                );
            }
            Event::Rotate { nodes } => {
                let names: Vec<String> = nodes.iter().map(|&n| name(n)).collect();
                let _ = writeln!(out, "  rotated J = {{{}}}", names.join(", "));
            }
            Event::Candidate(c) => scan.push(*c),
            Event::Placed(Placed {
                node,
                pe,
                cs,
                duration,
                target,
                impact,
                comm,
                runner_up,
            }) => {
                let _ = writeln!(
                    out,
                    "    {} -> PE{} @ cs {cs} (dur {duration}, target {target}, impact {impact}, comm {comm})",
                    name(*node),
                    pe + 1
                );
                match runner_up {
                    Some(r) => {
                        let _ = writeln!(
                            out,
                            "      runner-up: PE{} @ cs {} (impact {}, comm {})",
                            r.pe + 1,
                            r.cs,
                            r.impact,
                            r.comm
                        );
                    }
                    None => {
                        let _ = writeln!(out, "      runner-up: none (only feasible slot)");
                    }
                }
                for c in scan.close(*node, *target) {
                    candidate_line(&mut out, &c);
                }
            }
            Event::NoSlot { node, target } => {
                let _ = writeln!(
                    out,
                    "    {}: no slot at target {target} — retrying longer",
                    name(*node)
                );
                for c in scan.close(*node, *target) {
                    candidate_line(&mut out, &c);
                }
            }
            Event::SlackRepair { required, occupied } => {
                let indent = if in_pass { "    " } else { "  " };
                let _ = writeln!(
                    out,
                    "{indent}PSL pad: occupied {occupied} -> required {required}"
                );
            }
            Event::PassStats(PassStats {
                edges_swept,
                slots_probed,
                scratch_reuses,
                oracle_calls,
            }) => {
                // The stats record is the last event of a pass, so the
                // next one says whether its placement stands.
                let accepted = matches!(
                    events.get(i + 1).map(|t| &t.event),
                    Some(Event::PassEnd { accepted: true, .. })
                );
                if accepted && !ledger.rows().is_empty() {
                    traffic_line(&mut out, &ledger);
                }
                let _ = writeln!(
                    out,
                    "  stats: {edges_swept} edges swept, {slots_probed} slots probed, {scratch_reuses} scratch reuses, {oracle_calls} oracle calls"
                );
            }
            Event::PassEnd {
                pass,
                accepted,
                length,
            } => {
                in_pass = false;
                let verdict = if *accepted { "accepted" } else { "reverted" };
                let _ = writeln!(out, "pass {pass} {verdict}: length {length}");
                if *accepted {
                    if let Some(note) = annotate(*pass) {
                        out.push_str(&note);
                    }
                }
            }
            Event::BestSnapshot { pass, length } => {
                let _ = writeln!(out, "  new best: length {length} (pass {pass})");
            }
            Event::OccupancySnapshot {
                pass: _,
                busy_cells,
                holes,
                used_pes,
                length,
            } => {
                let _ = writeln!(
                    out,
                    "  occupancy: {busy_cells} busy cells, {holes} holes, {used_pes} PEs used, length {length}"
                );
            }
            Event::CompactEnd {
                initial,
                best,
                passes,
                floor,
            } => {
                let _ = write!(
                    out,
                    "compaction done: {initial} -> {best} after {passes} pass(es)"
                );
                if best <= floor {
                    let _ = write!(out, "; length {best} meets the proven floor {floor}");
                }
                out.push('\n');
            }
            Event::EdgeTraffic(_) => snapshot |= !in_pass,
            Event::PeLoad(PeLoad { pe, tasks, busy }) => {
                let _ = writeln!(out, "  PE{}: {tasks} task(s), {busy} busy cell(s)", pe + 1);
            }
        }
    }
    if snapshot {
        traffic_line(&mut out, &ledger);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EdgeTraffic, RunnerUp};

    fn timed(events: Vec<Event>) -> Vec<TimedEvent> {
        events
            .into_iter()
            .map(|event| TimedEvent { ns: 0, event })
            .collect()
    }

    #[test]
    fn narrates_placement_with_runner_up_and_rejections() {
        let events = timed(vec![
            Event::PassBegin {
                pass: 1,
                prev_len: 6,
                rows: 1,
            },
            Event::Rotate { nodes: vec![0] },
            Event::Candidate(Candidate {
                node: 0,
                target: 6,
                pe: 0,
                lb: 2,
                ub: 1,
                comm: 0,
                verdict: Verdict::Infeasible,
            }),
            Event::Candidate(Candidate {
                node: 0,
                target: 6,
                pe: 1,
                lb: 0,
                ub: 5,
                comm: 2,
                verdict: Verdict::Leading { cs: 3, impact: 6 },
            }),
            Event::Placed(Placed {
                node: 0,
                pe: 1,
                cs: 3,
                duration: 1,
                target: 6,
                impact: 6,
                comm: 2,
                runner_up: Some(RunnerUp {
                    pe: 2,
                    cs: 4,
                    impact: 6,
                    comm: 3,
                }),
            }),
            Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 5,
            },
        ]);
        let text = explain(&events, |n| format!("n{n}"));
        assert!(text.contains("rotated J = {n0}"), "{text}");
        assert!(text.contains("n0 -> PE2 @ cs 3"), "{text}");
        assert!(text.contains("runner-up: PE3 @ cs 4"), "{text}");
        assert!(text.contains("PE1: rejected — AN bounds cross"), "{text}");
        assert!(text.contains("pass 1 accepted: length 5"), "{text}");
    }

    #[test]
    fn no_slot_keeps_rejection_detail() {
        let events = timed(vec![
            Event::Candidate(Candidate {
                node: 4,
                target: 5,
                pe: 0,
                lb: 0,
                ub: 4,
                comm: 1,
                verdict: Verdict::NoFreeSlot,
            }),
            Event::NoSlot { node: 4, target: 5 },
        ]);
        let text = explain(&events, |n| format!("n{n}"));
        assert!(text.contains("no slot at target 5"), "{text}");
        assert!(text.contains("PE1: rejected — no free slot"), "{text}");
    }

    #[test]
    fn empty_stream_renders_empty() {
        assert!(explain(&[], |n| format!("n{n}")).is_empty());
    }

    #[test]
    fn the_closing_line_names_a_floor_the_run_met() {
        let end = |best, floor| {
            explain(
                &timed(vec![Event::CompactEnd {
                    initial: 7,
                    best,
                    passes: 13,
                    floor,
                }]),
                |n| format!("n{n}"),
            )
        };
        assert_eq!(
            end(3, 3),
            "compaction done: 7 -> 3 after 13 pass(es); length 3 meets the proven floor 3\n"
        );
        assert_eq!(end(4, 3), "compaction done: 7 -> 4 after 13 pass(es)\n");
    }

    #[test]
    fn annotations_splice_under_accepted_passes_only() {
        let events = timed(vec![
            Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 6,
            },
            Event::PassEnd {
                pass: 2,
                accepted: false,
                length: 6,
            },
            Event::PassEnd {
                pass: 3,
                accepted: true,
                length: 5,
            },
        ]);
        let mut asked = Vec::new();
        let text = explain_with(
            &events,
            |n| format!("n{n}"),
            |pass| {
                asked.push(pass);
                (pass == 3).then(|| "  ledger diff: e0 moved\n".to_string())
            },
        );
        assert_eq!(asked, vec![1, 3], "reverted passes are never annotated");
        assert!(
            text.contains("pass 3 accepted: length 5\n  ledger diff: e0 moved\n"),
            "{text}"
        );
        assert!(
            !text.contains("pass 1 accepted: length 6\n  ledger"),
            "{text}"
        );
    }

    #[test]
    fn traffic_snapshots_summarize_and_pe_loads_render() {
        let events = timed(vec![
            Event::EdgeTraffic(EdgeTraffic {
                edge: 0,
                src: 0,
                dst: 1,
                src_pe: 0,
                dst_pe: 1,
                hops: 2,
                volume: 3,
            }),
            Event::EdgeTraffic(EdgeTraffic {
                edge: 1,
                src: 1,
                dst: 2,
                src_pe: 1,
                dst_pe: 1,
                hops: 0,
                volume: 4,
            }),
            Event::PeLoad(PeLoad {
                pe: 0,
                tasks: 2,
                busy: 3,
            }),
            Event::CompactEnd {
                initial: 7,
                best: 5,
                passes: 2,
                floor: 1,
            },
        ]);
        let text = explain(&events, |n| format!("n{n}"));
        assert!(
            text.contains("traffic: 2 edge(s), 1 crossing, comm cost 6"),
            "{text}"
        );
        assert!(text.contains("PE1: 2 task(s), 3 busy cell(s)"), "{text}");
    }

    #[test]
    fn every_accepted_pass_prints_the_running_ledger() {
        let row = |edge, dst_pe, hops| {
            Event::EdgeTraffic(EdgeTraffic {
                edge,
                src: edge,
                dst: edge + 1,
                src_pe: 0,
                dst_pe,
                hops,
                volume: 2,
            })
        };
        let pass = |pass, accepted, rows: Vec<Event>| {
            let mut evs = vec![Event::PassBegin {
                pass,
                prev_len: 4,
                rows: 1,
            }];
            evs.extend(rows);
            evs.push(Event::PassStats(PassStats::default()));
            evs.push(Event::PassEnd {
                pass,
                accepted,
                length: 4,
            });
            evs
        };
        let mut events = vec![
            Event::StartupBegin { tasks: 3, pes: 2 },
            row(0, 1, 1),
            row(1, 0, 0),
            Event::StartupEnd { length: 4 },
        ];
        events.extend(pass(1, true, vec![row(1, 1, 1)]));
        events.extend(pass(2, false, vec![]));
        events.extend(pass(3, true, vec![]));
        let text = explain(&timed(events), |n| format!("n{n}"));
        let lines: Vec<&str> = text.lines().collect();
        let at = |needle: &str| lines.iter().position(|l| l.contains(needle)).unwrap();
        assert_eq!(
            lines[at("startup done") - 1],
            "  traffic: 2 edge(s), 1 crossing, comm cost 2"
        );
        // The moved edge shows in pass 1; pass 3 moved none and repeats
        // the ledger; the reverted pass 2 prints no line.
        for p in [1, 3] {
            let end = at(&format!("pass {p} accepted"));
            assert_eq!(
                lines[end - 2],
                "  traffic: 2 edge(s), 2 crossing, comm cost 4",
                "{text}"
            );
        }
        assert_eq!(text.matches("traffic:").count(), 3, "{text}");
    }
}
