//! Deterministic single-file HTML/SVG flight recorder for one
//! cyclo-compaction scheduling run.
//!
//! [`render_report`] renders the [`CommProfile`] of one recorded run
//! (the one fold of its `ccs-trace` event stream) and, optionally, its
//! `ccs-bounds` optimality certificate into one self-contained HTML
//! document with four panels:
//!
//! 1. `#schedule` — a start-up Gantt SVG and one strip per accepted
//!    rotate-remap pass showing the rotated nodes' new placements,
//!    with hover titles naming the candidate scan's `AN`-window
//!    verdicts for every PE considered.
//! 2. `#heatmaps` — one link-load heatmap SVG per accepted phase,
//!    sized by the traffic rather than the machine: the start-up
//!    ledger in full, each later accepted pass as the signed shift
//!    from the previous accepted phase (only the cells and links that
//!    changed), and the final best ledger in full.
//! 3. `#trajectory` — the pass trajectory table (length, comm/compute
//!    balance), a line saying the run stopped when its best length met
//!    the proven floor, and per-pass ledger diffs: which edges'
//!    hop·volume moved, where, and by how much.
//! 4. `#certificate` — the schedule graded against the proven period
//!    floors, witnesses inline.
//!
//! Everything is a pure function of the inputs: no wall-clock content,
//! no randomness, byte-identical across thread counts.  All dynamic
//! text passes through the one audited [`html::esc`] helper; the
//! rendered artifact is re-validated by `report-check`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod diff;
pub mod grid;
pub mod html;

use ccs_bounds::{OptimalityReport, Verdict as BoundsVerdict, Witness};
use ccs_profile::render::{heatmap_panel, PanelOptions, Traffic};
use ccs_profile::{link_loads, routable, route_label, CommProfile, PassLedger, PassProfile, Remap};
use ccs_topology::Machine;
use ccs_trace::TimedEvent;
use html::esc;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Ledger-diff rows shown per pass in the trajectory panel.
pub const DIFF_TOP_K: usize = 8;

/// Everything one report needs, borrowed from the caller.
pub struct ReportInput<'a> {
    /// Report title (workload + machine, typically).
    pub title: &'a str,
    /// The recorded event stream of the run.  Not read: the page is
    /// drawn from `profile`, the fold of this stream.
    pub events: &'a [TimedEvent],
    /// The machine the run targeted.
    pub machine: &'a Machine,
    /// The communication profile folded from the run's events.
    pub profile: &'a CommProfile,
    /// The optimality certificate for the achieved period, if graded.
    pub certificate: Option<&'a OptimalityReport>,
}

/// Gantt geometry: control-step cell width, PE row height, margins.
const CW: u32 = 16;
const RH: u32 = 18;
const G_LEFT: u32 = 44;
const G_TOP: u32 = 24;

/// One bar of a Gantt strip.
pub struct Bar {
    /// 0-based processor row.
    pub pe: u32,
    /// First control step, 1-based like the schedule table and every
    /// recorded event.
    pub cs: u32,
    /// Control steps occupied.
    pub duration: u32,
    /// Drawn in the rotated-node colour.
    pub rotated: bool,
    /// Text inside the bar (shown when the bar is wide enough).
    pub label: String,
    /// Hover text.
    pub title: String,
}

/// Renders one Gantt strip: a row per PE and a column per control
/// step, labelled `1..` like the paper's tables, so step `cs` is
/// column `cs`.  The strip spans `length` steps, widened to the last
/// step any bar occupies.  A `standalone` strip is a file of its own:
/// it declares the SVG namespace and carries the Gantt rules of
/// [`html::GANTT_STYLE`]; an embedded one takes them from the report
/// stylesheet.  The strip is appended to `out`.
pub fn gantt_svg(
    out: &mut String,
    caption: &str,
    pes: u32,
    length: u32,
    bars: &[Bar],
    standalone: bool,
) {
    let length = bars
        .iter()
        .map(|b| b.cs + b.duration.max(1) - 1)
        .fold(length, u32::max)
        .max(1);
    let width = G_LEFT + length * CW + 8;
    let height = G_TOP + pes.max(1) * RH + 6;
    let xmlns = if standalone {
        " xmlns=\"http://www.w3.org/2000/svg\""
    } else {
        ""
    };
    let _ = writeln!(
        out,
        "<svg{xmlns} class=\"gantt\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" role=\"img\">"
    );
    if standalone {
        let _ = writeln!(out, "<style>\n{}</style>", html::GANTT_STYLE);
    }
    let _ = writeln!(
        out,
        "<text class=\"g-cap\" x=\"4\" y=\"14\">{}</text>",
        esc(caption)
    );
    // Control-step grid and axis labels (thinned on long schedules).
    let tick = (length / 12).max(1);
    for col in 0..=length {
        let x = G_LEFT + col * CW;
        let _ = writeln!(
            out,
            "<line class=\"g-grid\" x1=\"{x}\" y1=\"{G_TOP}\" x2=\"{x}\" y2=\"{}\"/>",
            G_TOP + pes * RH
        );
        if col % tick == 0 && col < length {
            let _ = writeln!(
                out,
                "<text class=\"g-ax\" x=\"{}\" y=\"{}\">{}</text>",
                x + 2,
                G_TOP - 4,
                esc(col + 1)
            );
        }
    }
    for pe in 0..pes {
        let _ = writeln!(
            out,
            "<text class=\"g-ax\" x=\"2\" y=\"{}\">{}</text>",
            G_TOP + pe * RH + 12,
            esc(format_args!("PE{}", pe + 1))
        );
    }
    for b in bars {
        let x = G_LEFT + b.cs.saturating_sub(1) * CW;
        let y = G_TOP + b.pe * RH + 2;
        let w = (b.duration.max(1) * CW).saturating_sub(1).max(2);
        let class = if b.rotated { "g-rot" } else { "g-rect" };
        let _ = writeln!(
            out,
            "<rect class=\"{class}\" x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{}\">\
             <title>{}</title></rect>",
            RH - 4,
            esc(&b.title)
        );
        if w >= 18 {
            let _ = writeln!(
                out,
                "<text class=\"g-lbl\" x=\"{}\" y=\"{}\">{}</text>",
                x + 3,
                y + 11,
                esc(&b.label)
            );
        }
    }
    out.push_str("</svg>\n");
}

fn remap_title(r: &Remap, mut name: impl FnMut(u32) -> String) -> String {
    let p = &r.placed;
    let mut t = format!(
        "{} -> PE{}, cs {}..{} (target {}, impact {}, comm {})",
        name(p.node),
        p.pe + 1,
        p.cs,
        p.cs + p.duration,
        p.target,
        p.impact,
        p.comm
    );
    if let Some(ru) = &p.runner_up {
        let _ = write!(t, "\nrunner-up: {ru}");
    }
    if !r.candidates.is_empty() {
        t.push_str("\ncandidate scan (AN windows):");
        for c in &r.candidates {
            let _ = write!(
                t,
                "\n  PE{}: window [{}, {}], comm {} -> {}",
                c.pe + 1,
                c.lb,
                c.ub,
                c.comm,
                c.verdict
            );
        }
    }
    t
}

fn names_of(nodes: &[u32], mut name: impl FnMut(u32) -> String) -> String {
    let v: Vec<String> = nodes.iter().map(|&n| name(n)).collect();
    v.join(", ")
}

fn schedule_section(out: &mut String, profile: &CommProfile, mut name: impl FnMut(u32) -> String) {
    let rotated_ever: BTreeSet<u32> = profile
        .remap_passes()
        .flat_map(|p| p.rotated.iter().copied())
        .collect();
    let bars: Vec<Bar> = profile
        .startup
        .iter()
        .map(|s| {
            let n = name(s.node);
            let mut title = format!(
                "{} -> PE{}, cs {}..{}",
                n,
                s.pe + 1,
                s.cs,
                s.cs + s.duration
            );
            let rotated = rotated_ever.contains(&s.node);
            if rotated {
                title.push_str("\nrotated during compaction");
            }
            Bar {
                pe: s.pe,
                cs: s.cs,
                duration: s.duration,
                rotated,
                label: n,
                title,
            }
        })
        .collect();
    gantt_svg(
        out,
        &format!(
            "start-up schedule (pass 0): length {}",
            profile.initial_length
        ),
        profile.pes,
        profile.initial_length,
        &bars,
        false,
    );
    for p in profile.remap_passes() {
        if p.accepted {
            pass_strip(out, p, profile.pes, &mut name);
        } else {
            // A reverted pass restores the pre-pass schedule, so its
            // length is the one the rollback kept.
            let _ = writeln!(
                out,
                "<p>pass {} <span class=\"reverted\">reverted</span>: \
                 length stays at {}, rotated J = {{{}}} rolled back</p>",
                esc(p.pass),
                esc(p.length),
                esc(names_of(&p.rotated, &mut name))
            );
        }
    }
}

fn pass_strip(out: &mut String, p: &PassProfile, pes: u32, mut name: impl FnMut(u32) -> String) {
    let bars: Vec<Bar> = p
        .remaps
        .iter()
        .map(|r| Bar {
            pe: r.placed.pe,
            cs: r.placed.cs,
            duration: r.placed.duration,
            rotated: true,
            label: name(r.placed.node),
            title: remap_title(r, &mut name),
        })
        .collect();
    let mut caption = format!(
        "pass {} accepted: length {} -> {}, rotated J = {{{}}}",
        p.pass,
        p.prev_len,
        p.length,
        names_of(&p.rotated, &mut name)
    );
    if p.no_slots > 0 {
        let _ = write!(
            caption,
            " ({} failed attempt(s) retried longer)",
            p.no_slots
        );
    }
    gantt_svg(out, &caption, pes, p.length, &bars, false);
}

fn phase_label(pass: u32) -> String {
    if pass == 0 {
        "start-up (pass 0)".to_string()
    } else {
        format!("pass {pass}")
    }
}

/// The start-up ledger in full, each later accepted pass as the signed
/// shift from the previous accepted phase (the edges [`diff_ledgers`]
/// reports), and the final best ledger in full.  Every panel carries
/// its own phase's full conservation totals.
fn heatmaps_section(out: &mut String, profile: &CommProfile, machine: &Machine) {
    let Some((first, passes)) = profile.pass_ledgers.split_first() else {
        out.push_str("<p>no accepted phases recorded</p>\n");
        return;
    };
    let opts = PanelOptions {
        routable: routable(machine),
        ..PanelOptions::default()
    };
    let caption = |l: &PassLedger| {
        format!(
            "{}: length {}, comm {}",
            phase_label(l.pass),
            l.length,
            l.comm
        )
    };
    let mut prev_loads = link_loads(machine, &first.edges);
    let start = Traffic {
        edges: &first.edges,
        links: &prev_loads,
    };
    heatmap_panel(out, &caption(first), start, opts);
    let mut prev = first;
    for l in passes {
        let loads = link_loads(machine, &l.edges);
        let shift = PanelOptions {
            baseline: Some(Traffic {
                edges: &prev.edges,
                links: &prev_loads,
            }),
            ..opts
        };
        let what = format!("{}, shift from {}", caption(l), phase_label(prev.pass));
        let traffic = Traffic {
            edges: &l.edges,
            links: &loads,
        };
        heatmap_panel(out, &what, traffic, shift);
        (prev, prev_loads) = (l, loads);
    }
    let final_caption = format!(
        "final best schedule: length {}, comm {}",
        profile.best_length, profile.total_comm
    );
    heatmap_panel(out, &final_caption, profile.traffic(), opts);
}

fn trajectory_section(
    out: &mut String,
    profile: &CommProfile,
    machine: &Machine,
    mut name: impl FnMut(u32) -> String,
) {
    out.push_str(
        "<table>\n<thead><tr><th class=\"l\">phase</th><th class=\"l\">outcome</th>\
         <th>length</th><th>comm</th><th>crossing</th><th>local</th></tr></thead>\n<tbody>\n",
    );
    for p in &profile.passes {
        let outcome = if p.accepted {
            "<span class=\"accepted\">accepted</span>"
        } else {
            "<span class=\"reverted\">reverted</span>"
        };
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td class=\"l\">{outcome}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(phase_label(p.pass)),
            esc(p.length),
            esc(p.comm),
            esc(p.crossing),
            esc(p.local)
        );
    }
    out.push_str("</tbody>\n</table>\n");
    if profile.best_length <= profile.floor {
        let _ = writeln!(
            out,
            "<p>compaction stopped: length {} meets the proven floor {}</p>",
            esc(profile.best_length),
            esc(profile.floor)
        );
    }
    let _ = writeln!(
        out,
        "<p>compute {} cells, best-schedule comm {} (hop-weighted)</p>",
        esc(profile.compute),
        esc(profile.total_comm)
    );

    for diff in profile.phase_diffs() {
        let (prev, cur, deltas) = (diff.prev, diff.cur, &diff.deltas);
        let _ = writeln!(
            out,
            "<h3>ledger diff: {} -> {}</h3>",
            esc(phase_label(prev.pass)),
            esc(phase_label(cur.pass))
        );
        let _ = writeln!(
            out,
            "<p>comm {} -> {} ({}), {} of {} edge(s) moved</p>",
            esc(prev.comm),
            esc(cur.comm),
            esc(format_args!("{:+}", diff.shift())),
            esc(deltas.len()),
            esc(cur.edges.len())
        );
        if deltas.is_empty() {
            continue;
        }
        out.push_str(
            "<table>\n<thead><tr><th class=\"l\">edge</th><th class=\"l\">route before</th>\
             <th class=\"l\">route after</th><th>cost before</th><th>cost after</th>\
             <th>shift</th></tr></thead>\n<tbody>\n",
        );
        for d in deltas.iter().take(DIFF_TOP_K) {
            let _ = writeln!(
                out,
                "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(format_args!(
                    "e{} {}->{}",
                    d.after.edge,
                    name(d.after.src),
                    name(d.after.dst)
                )),
                esc(route_label(machine, &d.before)),
                esc(route_label(machine, &d.after)),
                esc(d.before.cost()),
                esc(d.after.cost()),
                esc(format_args!("{:+}", d.delta()))
            );
        }
        out.push_str("</tbody>\n</table>\n");
        if deltas.len() > DIFF_TOP_K {
            let _ = writeln!(
                out,
                "<p>({} more changed edge(s) not shown)</p>",
                esc(deltas.len() - DIFF_TOP_K)
            );
        }
    }
}

fn witness_label(w: &Witness) -> String {
    match w {
        Witness::Cycle { nodes, ratio } => {
            format!("cycle {} (ratio {ratio})", nodes.join(" -> "))
        }
        Witness::Resource {
            total_compute,
            usable_pes,
            heaviest,
            shared_pair,
        } => {
            let mut s = format!("W={total_compute} over {usable_pes} PE(s), heaviest {heaviest}");
            if let Some((a, b)) = shared_pair {
                let _ = write!(s, "; {a} and {b} must share a PE");
            }
            s
        }
        Witness::Chain { nodes, total_time } => {
            format!(
                "zero-delay chain {} (time {total_time})",
                nodes.join(" -> ")
            )
        }
        Witness::Cut {
            pes_used,
            compute_floor,
            comm_floor,
            edge,
            route,
        } => {
            let mut s =
                format!("{pes_used} PE(s): compute floor {compute_floor}, comm floor {comm_floor}");
            if let Some((a, b)) = edge {
                // ESCAPED: builds a plain-text label; the certificate
                // table routes it through esc() at the render site.
                let _ = write!(s, "; cheapest crossing {a}->{b}");
            }
            if !route.is_empty() {
                let hops: Vec<String> = route.iter().map(|p| format!("PE{}", p + 1)).collect();
                let _ = write!(s, " via {}", hops.join(">"));
            }
            s
        }
    }
}

fn certificate_section(out: &mut String, report: Option<&OptimalityReport>) {
    let Some(r) = report else {
        out.push_str("<p>no certificate was computed for this run</p>\n");
        return;
    };
    let best = r.bounds.best_value();
    out.push_str(
        "<table>\n<thead><tr><th class=\"l\">bound</th><th>floor</th>\
         <th class=\"l\">witness</th></tr></thead>\n<tbody>\n",
    );
    for c in r.bounds.certificates() {
        let binding = if c.value == best {
            " class=\"binding\""
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "<tr{binding}><td class=\"l\">{}</td><td>{}</td><td class=\"l\">{}</td></tr>",
            esc(c.kind.name()),
            esc(c.value),
            esc(witness_label(&c.witness))
        );
    }
    out.push_str("</tbody>\n</table>\n");
    match r.verdict {
        BoundsVerdict::Optimal => {
            let _ = writeln!(
                out,
                "<p>period {}: <span class=\"accepted\">PROVABLY OPTIMAL</span> \
                 — meets the strongest floor {}</p>",
                esc(r.period),
                esc(best)
            );
        }
        BoundsVerdict::Gap => {
            let _ = writeln!(
                out,
                "<p>period {}: within {} step(s) of the strongest proven floor {} (gap {}%)</p>",
                esc(r.period),
                esc(r.gap),
                esc(best),
                esc(format_args!("{:.1}", r.gap_pct))
            );
        }
        BoundsVerdict::BoundExceeded => {
            let _ = writeln!(
                out,
                "<p>period {}: <span class=\"reverted\">BELOW A PROVEN BOUND</span> \
                 — certifier or scheduler bug</p>",
                esc(r.period)
            );
        }
    }
    let _ = writeln!(
        out,
        "<details><summary>full certificate</summary>\n<pre>{}</pre>\n</details>",
        esc(r.render_human())
    );
}

/// Renders the complete report document.  `name` resolves node indices
/// to human names (the graph's node names, typically).
pub fn render_report(input: &ReportInput<'_>, mut name: impl FnMut(u32) -> String) -> String {
    let profile = input.profile;
    let accepted = profile.remap_passes().filter(|p| p.accepted).count();
    let meta = format!(
        "{} task(s) on {} PE(s) ({}); start-up length {} -> best {} after {} pass(es), {} accepted",
        profile.tasks,
        profile.pes,
        input.machine.name(),
        profile.initial_length,
        profile.best_length,
        profile.passes_run,
        accepted
    );
    let mut page = html::Page::new(input.title, &meta);
    page.section(
        "schedule",
        "Schedule: start-up placement and accepted passes",
        |out| schedule_section(out, profile, &mut name),
    );
    page.section("heatmaps", "Link-load heatmaps per accepted phase", |out| {
        heatmaps_section(out, profile, input.machine)
    });
    page.section("trajectory", "Pass trajectory and ledger diffs", |out| {
        trajectory_section(out, profile, input.machine, &mut name)
    });
    page.section("certificate", "Optimality certificate", |out| {
        certificate_section(out, input.certificate)
    });
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_trace::{Event, StartupPlace};

    fn te(event: Event) -> TimedEvent {
        TimedEvent { ns: 0, event }
    }

    fn tiny_events() -> Vec<TimedEvent> {
        vec![
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
                duration: 1,
            })),
            te(Event::StartupEnd { length: 2 }),
            te(Event::CompactEnd {
                initial: 2,
                best: 2,
                passes: 0,
                floor: 2,
            }),
        ]
    }

    #[test]
    fn report_shell_carries_all_four_sections() {
        let m = Machine::linear_array(2);
        let events = tiny_events();
        let profile = ccs_profile::build(&events, &m);
        let html = render_report(
            &ReportInput {
                title: "tiny on line2",
                events: &events,
                machine: &m,
                profile: &profile,
                certificate: None,
            },
            |n| format!("n{n}"),
        );
        for id in ["schedule", "heatmaps", "trajectory", "certificate"] {
            assert!(
                html.contains(&format!("<section id=\"{id}\">")),
                "missing section {id}"
            );
        }
        assert!(html.contains("start-up schedule (pass 0): length 2"));
        assert!(html.contains("no certificate was computed"));
        assert!(html.contains("<p>compaction stopped: length 2 meets the proven floor 2</p>"));
        let mut above = profile.clone();
        above.floor = 1;
        let html = render_report(
            &ReportInput {
                title: "tiny on line2",
                events: &events,
                machine: &m,
                profile: &above,
                certificate: None,
            },
            |n| format!("n{n}"),
        );
        assert!(!html.contains("compaction stopped"));
    }

    #[test]
    fn hostile_node_names_are_escaped_everywhere() {
        let m = Machine::linear_array(2);
        let events = tiny_events();
        let profile = ccs_profile::build(&events, &m);
        let html = render_report(
            &ReportInput {
                title: "t",
                events: &events,
                machine: &m,
                profile: &profile,
                certificate: None,
            },
            |n| format!("<b>&n{n}</b>"),
        );
        assert!(!html.contains("<b>"), "raw node name leaked into markup");
        assert!(html.contains("&lt;b&gt;&amp;n0&lt;/b&gt;"));
    }

    #[test]
    fn reverted_pass_keeps_the_restored_length() {
        let m = Machine::linear_array(2);
        let mut events = tiny_events();
        let end = events.pop().expect("compact.end");
        events.extend([
            te(Event::PassBegin {
                pass: 1,
                prev_len: 2,
                rows: 1,
            }),
            te(Event::Rotate { nodes: vec![0] }),
            te(Event::NoSlot { node: 0, target: 2 }),
            te(Event::PassEnd {
                pass: 1,
                accepted: false,
                length: 2,
            }),
            end,
        ]);
        let profile = ccs_profile::build(&events, &m);
        let html = render_report(
            &ReportInput {
                title: "t",
                events: &events,
                machine: &m,
                profile: &profile,
                certificate: None,
            },
            |n| format!("n{n}"),
        );
        assert!(
            html.contains(
                "<p>pass 1 <span class=\"reverted\">reverted</span>: length stays at 2, \
                 rotated J = {n0} rolled back</p>"
            ),
            "{html}"
        );
    }

    #[test]
    fn gantt_viewbox_matches_width_and_height() {
        let mut svg = String::new();
        gantt_svg(&mut svg, "cap", 2, 3, &[], false);
        let w = G_LEFT + 3 * CW + 8;
        let h = G_TOP + 2 * RH + 6;
        assert!(svg.contains(&format!(
            "width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\""
        )));
    }
}
