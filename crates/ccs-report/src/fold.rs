//! Folds a recorded event stream into the [`RunStory`] the report
//! panels render: the complete start-up placement, and per pass the
//! rotation set, each successful re-placement with the candidate-scan
//! verdicts (`AN`-window bounds per PE) of its winning attempt, and
//! the accept/revert outcome.
//!
//! This is the report's own fold consumer over `ccs-trace` — a sibling
//! of the explainer, but structured (it keeps the data, not prose) so
//! the SVG renderers can place rectangles and attach hover titles.
//! The story keeps the trace's own records (`StartupPlace`, `Placed`,
//! `Candidate`), and buffers candidate scans in the same
//! [`ScanBuffer`] the explainer uses.

use ccs_trace::event::{Candidate, Event, Placed, ScanBuffer, StartupPlace};
use ccs_trace::TimedEvent;

/// One rotated node successfully re-placed during a pass, with the
/// candidate scan of the winning target attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct Remap {
    /// The re-placement.
    pub placed: Placed,
    /// Per-PE scan verdicts of the winning attempt, in scan order.
    pub candidates: Vec<Candidate>,
}

/// One rotate-remap pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassStory {
    /// 1-based pass number.
    pub pass: u32,
    /// Schedule length entering the pass.
    pub prev_len: u32,
    /// The rotation set `J`, in remap order.
    pub rotated: Vec<u32>,
    /// Successful re-placements, in placement order.
    pub remaps: Vec<Remap>,
    /// Failed `(node, target)` attempts (the remap retried longer).
    pub no_slots: u32,
    /// Whether the pass survived.
    pub accepted: bool,
    /// Schedule length after the pass.
    pub length: u32,
}

/// Everything the schedule panels need, folded from one event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStory {
    /// Tasks scheduled.
    pub tasks: u32,
    /// Processors of the machine.
    pub pes: u32,
    /// The complete start-up placement, in placement order.
    pub startup: Vec<StartupPlace>,
    /// Start-up schedule length.
    pub startup_length: u32,
    /// Every rotate-remap pass, in pass order.
    pub passes: Vec<PassStory>,
    /// Best schedule length after compaction.
    pub best_length: u32,
    /// Passes actually run.
    pub passes_run: u32,
}

impl RunStory {
    /// The accepted passes, in pass order.
    pub fn accepted_passes(&self) -> impl Iterator<Item = &PassStory> {
        self.passes.iter().filter(|p| p.accepted)
    }
}

/// Folds `events` into a [`RunStory`].
pub fn fold(events: &[TimedEvent]) -> RunStory {
    let mut story = RunStory::default();
    let mut cur: Option<PassStory> = None;
    let mut scan = ScanBuffer::default();
    for te in events {
        match &te.event {
            Event::StartupBegin { tasks, pes } => {
                story.tasks = *tasks;
                story.pes = *pes;
            }
            Event::StartupPlace(s) => story.startup.push(*s),
            Event::StartupEnd { length } => {
                story.startup_length = *length;
                story.best_length = *length;
            }
            Event::PassBegin {
                pass,
                prev_len,
                rows: _,
            } => {
                cur = Some(PassStory {
                    pass: *pass,
                    prev_len: *prev_len,
                    ..PassStory::default()
                });
            }
            Event::Rotate { nodes } => {
                if let Some(p) = cur.as_mut() {
                    p.rotated = nodes.clone();
                }
            }
            Event::Candidate(c) => scan.push(*c),
            Event::Placed(placed) => {
                let candidates = scan.close(placed.node, placed.target).collect();
                if let Some(p) = cur.as_mut() {
                    p.remaps.push(Remap {
                        placed: *placed,
                        candidates,
                    });
                }
            }
            Event::NoSlot { node, target } => {
                scan.close(*node, *target);
                if let Some(p) = cur.as_mut() {
                    p.no_slots += 1;
                }
            }
            Event::PassEnd {
                pass,
                accepted,
                length,
            } => {
                let mut p = cur.take().unwrap_or_default();
                p.pass = *pass;
                p.accepted = *accepted;
                p.length = *length;
                story.passes.push(p);
            }
            Event::CompactEnd {
                initial,
                best,
                passes,
                floor: _,
            } => {
                story.startup_length = *initial;
                story.best_length = *best;
                story.passes_run = *passes;
            }
            // The flight-recorder story tracks placements and pass
            // outcomes.  Everything else is deliberately skipped
            // (`cargo xtask lint` keeps this list honest):
            // EVENT-IGNORED: ReadyPick — pick rationale, too fine for the report.
            // EVENT-IGNORED: StartupDefer — defers surface as later StartupPlace rows.
            // EVENT-IGNORED: CompactBegin — config echo; totals come from CompactEnd.
            // EVENT-IGNORED: SlackRepair — repair detail, below the story's grain.
            // EVENT-IGNORED: PassStats — derived counters; the story re-derives its own.
            // EVENT-IGNORED: BestSnapshot — PassEnd already carries the trajectory.
            // EVENT-IGNORED: OccupancySnapshot — occupancy belongs to the profile pages.
            // EVENT-IGNORED: EdgeTraffic — traffic feeds ccs-profile, not this story.
            // EVENT-IGNORED: PeLoad — load feeds ccs-profile, not this story.
            _ => {}
        }
    }
    story
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_trace::Verdict;

    fn te(event: Event) -> TimedEvent {
        TimedEvent { ns: 0, event }
    }

    #[test]
    fn folds_startup_and_passes() {
        let events = vec![
            te(Event::StartupBegin { tasks: 2, pes: 2 }),
            te(Event::StartupPlace(StartupPlace {
                node: 0,
                pe: 0,
                cs: 0,
                duration: 1,
            })),
            te(Event::StartupPlace(StartupPlace {
                node: 1,
                pe: 1,
                cs: 1,
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
        let s = fold(&events);
        assert_eq!((s.tasks, s.pes), (2, 2));
        assert_eq!(s.startup.len(), 2);
        assert_eq!(s.startup[1].duration, 2);
        assert_eq!(s.passes.len(), 1);
        let p = &s.passes[0];
        assert!(p.accepted);
        assert_eq!(p.rotated, vec![0]);
        assert_eq!(p.remaps.len(), 1);
        assert_eq!(p.remaps[0].placed.pe, 1);
        assert_eq!(p.remaps[0].candidates.len(), 2);
        assert_eq!(p.remaps[0].candidates[0].verdict, Verdict::Infeasible);
        assert_eq!(s.accepted_passes().count(), 1);
    }

    #[test]
    fn failed_attempts_clear_the_scan_buffer() {
        let events = vec![
            te(Event::PassBegin {
                pass: 1,
                prev_len: 4,
                rows: 1,
            }),
            te(Event::Candidate(Candidate {
                node: 0,
                target: 4,
                pe: 0,
                lb: 0,
                ub: 3,
                comm: 0,
                verdict: Verdict::NoFreeSlot,
            })),
            te(Event::NoSlot { node: 0, target: 4 }),
            te(Event::Candidate(Candidate {
                node: 0,
                target: 5,
                pe: 0,
                lb: 0,
                ub: 4,
                comm: 0,
                verdict: Verdict::Leading { cs: 1, impact: 5 },
            })),
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
        let s = fold(&events);
        let p = &s.passes[0];
        assert_eq!(p.no_slots, 1);
        assert_eq!(p.remaps.len(), 1);
        assert_eq!(
            p.remaps[0].candidates.len(),
            1,
            "only the winning target's scan survives"
        );
        assert_eq!(p.remaps[0].candidates[0].ub, 4);
        assert!(!p.accepted);
    }
}
