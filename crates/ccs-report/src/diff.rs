//! Multi-run diff report: two recorded runs of the *same workload* on
//! different machines (or scheduler policies), folded into one page.
//!
//! Panel anatomy (`cyclosched schedule --report-diff`):
//!
//! 1. `#schedule` — side-by-side start-up Gantts and pass-outcome
//!    tables, with the first pass whose rotation set differs between
//!    the runs highlighted on both sides (rows from the divergence
//!    point onward carry `tr.diverge`).
//! 2. `#heatmaps` — each side's final link-load heatmap (tagged
//!    `data-side="a"`/`"b"` so `report-check` can demand conservation
//!    on *both* sides), plus a signed per-link delta heatmap.
//! 3. `#ledger` — the edge-ledger delta table: top movers by `|Δcost|`
//!    with each side's route rendered against its own machine's
//!    routing table, edges only one side charged listed separately,
//!    and a stable "no movement" row when the ledgers agree.
//! 4. `#certificate` — both runs graded against their `ccs-bounds`
//!    floors in one comparison table.
//!
//! Same determinism contract as the single-run report: pure function
//! of the inputs, no wall-clock content, every interpolation through
//! [`crate::html::esc`].

use crate::fold::{self, RunStory};
use crate::html::{self, esc};
use crate::{gantt_svg, ledger_comm, names_of, phase_label, Bar, DIFF_TOP_K};
use ccs_bounds::OptimalityReport;
use ccs_profile::render::{delta_heatmap_svg, heatmap_panel, PanelOptions};
use ccs_profile::{diff_ledgers, one_sided_edges, routable, route_label, CommProfile, EdgeTraffic};
use ccs_topology::{Machine, RoutingTable};
use ccs_trace::TimedEvent;
use std::fmt::Write as _;

/// One run of the comparison, borrowed from the caller.
pub struct DiffSide<'a> {
    /// Short run label ("mesh:2x2", "complete:4 (reference scan)", …).
    pub label: &'a str,
    /// The recorded event stream of this run.
    pub events: &'a [TimedEvent],
    /// The machine this run targeted.
    pub machine: &'a Machine,
    /// The communication profile folded from the same events.
    pub profile: &'a CommProfile,
    /// The optimality certificate for the achieved period, if graded.
    pub certificate: Option<&'a OptimalityReport>,
}

/// Everything one diff report needs.
pub struct DiffInput<'a> {
    /// Report title (workload + the two specs, typically).
    pub title: &'a str,
    /// Side A (the baseline run).
    pub a: DiffSide<'a>,
    /// Side B (the comparison run).
    pub b: DiffSide<'a>,
}

/// First pass number whose rotation set differs between the runs, if
/// any: the point where the two schedules stop telling the same story.
fn divergence_pass(a: &RunStory, b: &RunStory) -> Option<u32> {
    let len = a.passes.len().max(b.passes.len());
    for i in 0..len {
        match (a.passes.get(i), b.passes.get(i)) {
            (Some(pa), Some(pb)) => {
                if pa.rotated != pb.rotated {
                    return Some(pa.pass.min(pb.pass));
                }
            }
            (Some(p), None) | (None, Some(p)) => return Some(p.pass),
            (None, None) => unreachable!("index below max of both lengths"),
        }
    }
    None
}

/// One side's column of the schedule panel: the start-up Gantt plus a
/// pass-outcome table with rows highlighted from the divergence point.
fn side_schedule(
    out: &mut String,
    side: &DiffSide<'_>,
    story: &RunStory,
    diverge: Option<u32>,
    mut name: impl FnMut(u32) -> String,
) {
    let _ = writeln!(out, "<h3>{}</h3>", esc(side.label));
    let bars: Vec<Bar> = story
        .startup
        .iter()
        .map(|s| {
            let n = name(s.node);
            Bar {
                pe: s.pe,
                cs: s.cs,
                duration: s.duration,
                rotated: false,
                title: format!(
                    "{} -> PE{}, cs {}..{}",
                    n,
                    s.pe + 1,
                    s.cs,
                    s.cs + s.duration
                ),
                label: n,
            }
        })
        .collect();
    gantt_svg(
        out,
        &format!("start-up (pass 0): length {}", story.startup_length),
        story.pes,
        story.startup_length,
        &bars,
        false,
    );
    out.push_str(
        "<table>\n<thead><tr><th>pass</th><th class=\"l\">outcome</th><th>length</th>\
         <th class=\"l\">rotated J</th></tr></thead>\n<tbody>\n",
    );
    for p in &story.passes {
        let outcome = if p.accepted {
            "<span class=\"accepted\">accepted</span>"
        } else {
            "<span class=\"reverted\">reverted</span>"
        };
        let cls = if diverge.is_some_and(|d| p.pass >= d) {
            " class=\"diverge\""
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "<tr{cls}><td>{}</td><td class=\"l\">{outcome}</td><td>{}</td>\
             <td class=\"l\">{{{}}}</td></tr>",
            esc(p.pass),
            esc(p.length),
            esc(names_of(&p.rotated, &mut name))
        );
    }
    out.push_str("</tbody>\n</table>\n");
    let _ = writeln!(
        out,
        "<p>best length {} after {} pass(es)</p>",
        esc(story.best_length),
        esc(story.passes_run)
    );
}

fn schedule_section(
    out: &mut String,
    input: &DiffInput<'_>,
    sa: &RunStory,
    sb: &RunStory,
    mut name: impl FnMut(u32) -> String,
) {
    let diverge = divergence_pass(sa, sb);
    match diverge {
        Some(d) => {
            let _ = writeln!(
                out,
                "<p>runs diverge at {}: first pass whose rotation set differs \
                 (highlighted below)</p>",
                esc(phase_label(d))
            );
        }
        None => out.push_str("<p>the runs rotate identical node sets in every pass</p>\n"),
    }
    out.push_str("<div class=\"cols\">\n<div class=\"col\">\n");
    side_schedule(out, &input.a, sa, diverge, &mut name);
    out.push_str("</div>\n<div class=\"col\">\n");
    side_schedule(out, &input.b, sb, diverge, &mut name);
    out.push_str("</div>\n</div>\n");
}

fn side_heatmap(out: &mut String, side: &DiffSide<'_>, tag: &str) {
    heatmap_panel(
        out,
        &format!(
            "{} — final best schedule: comm {}, length {} -> {}",
            side.label,
            side.profile.total_comm,
            side.profile.initial_length,
            side.profile.best_length
        ),
        side.profile.pes,
        &side.profile.edges,
        &side.profile.links,
        PanelOptions {
            routable: routable(side.machine),
            side: Some(tag),
            ..PanelOptions::default()
        },
    );
}

fn heatmaps_section(out: &mut String, input: &DiffInput<'_>) {
    out.push_str("<div class=\"cols\">\n<div class=\"col\">\n");
    side_heatmap(out, &input.a, "a");
    out.push_str("</div>\n<div class=\"col\">\n");
    side_heatmap(out, &input.b, "b");
    out.push_str("</div>\n</div>\n");
    delta_heatmap_svg(
        out,
        "link-load delta (B minus A)",
        input.a.profile.pes.max(input.b.profile.pes),
        &input.a.profile.edges,
        &input.b.profile.edges,
        &input.a.profile.links,
        &input.b.profile.links,
    );
}

fn one_sided_list(out: &mut String, label: &str, edges: &[EdgeTraffic]) {
    if edges.is_empty() {
        return;
    }
    let _ = write!(out, "<p>{} only: ", esc(label));
    for (i, e) in edges.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}{}",
            esc(format_args!("e{} (cost {})", e.edge, e.cost()))
        );
    }
    out.push_str(" — no counterpart to diff against</p>\n");
}

fn ledger_section(out: &mut String, input: &DiffInput<'_>, mut name: impl FnMut(u32) -> String) {
    let (ea, eb) = (&input.a.profile.edges, &input.b.profile.edges);
    let deltas = diff_ledgers(ea, eb);
    let (lone_a, lone_b) = one_sided_edges(ea, eb);
    let routes_a = routable(input.a.machine).then(|| RoutingTable::new(input.a.machine));
    let routes_b = routable(input.b.machine).then(|| RoutingTable::new(input.b.machine));
    let (ca, cb) = (ledger_comm(ea), ledger_comm(eb));
    let shift = i64::try_from(cb).unwrap_or(i64::MAX) - i64::try_from(ca).unwrap_or(i64::MAX);

    let _ = writeln!(
        out,
        "<p>final best-schedule comm: A {} / B {} ({}), {} shared edge(s) moved</p>",
        esc(ca),
        esc(cb),
        esc(format_args!("{shift:+}")),
        esc(deltas.len())
    );
    out.push_str(
        "<table>\n<thead><tr><th class=\"l\">edge</th><th class=\"l\">route A</th>\
         <th>cost A</th><th class=\"l\">route B</th><th>cost B</th><th>shift</th>\
         </tr></thead>\n<tbody>\n",
    );
    if deltas.is_empty() {
        out.push_str(
            "<tr><td class=\"l\">no movement</td><td class=\"l\">-</td><td>-</td>\
             <td class=\"l\">-</td><td>-</td><td>+0</td></tr>\n",
        );
    }
    for d in deltas.iter().take(DIFF_TOP_K) {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td>\
             <td class=\"l\">{}</td><td>{}</td><td>{}</td></tr>",
            esc(format_args!(
                "e{} {}->{}",
                d.after.edge,
                name(d.after.src),
                name(d.after.dst)
            )),
            esc(route_label(routes_a.as_ref(), &d.before)),
            esc(d.before.cost()),
            esc(route_label(routes_b.as_ref(), &d.after)),
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
    one_sided_list(out, "A", &lone_a);
    one_sided_list(out, "B", &lone_b);
}

fn cert_cell(c: Option<&OptimalityReport>) -> [String; 5] {
    match c {
        Some(r) => [
            r.period.to_string(),
            r.bounds.best_value().to_string(),
            r.verdict.name().to_string(),
            format!("{:+}", r.gap),
            format!("{:.1}%", r.gap_pct),
        ],
        None => std::array::from_fn(|_| "-".to_string()),
    }
}

fn certificate_section(out: &mut String, input: &DiffInput<'_>) {
    if input.a.certificate.is_none() && input.b.certificate.is_none() {
        out.push_str("<p>no certificate was computed for either run</p>\n");
        return;
    }
    let a = cert_cell(input.a.certificate);
    let b = cert_cell(input.b.certificate);
    out.push_str(
        "<table>\n<thead><tr><th class=\"l\">run</th><th>period</th><th>strongest floor</th>\
         <th class=\"l\">verdict</th><th>gap</th><th>gap %</th></tr></thead>\n<tbody>\n",
    );
    for (label, row) in [(input.a.label, &a), (input.b.label, &b)] {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td>\
             <td class=\"l\">{}</td><td>{}</td><td>{}</td></tr>",
            esc(label),
            esc(&row[0]),
            esc(&row[1]),
            esc(&row[2]),
            esc(&row[3]),
            esc(&row[4])
        );
    }
    out.push_str("</tbody>\n</table>\n");
}

/// Renders the complete two-run comparison document.  `name` resolves
/// node indices to human names; both runs schedule the same workload,
/// so one resolver serves both sides.
pub fn render_diff_report(input: &DiffInput<'_>, mut name: impl FnMut(u32) -> String) -> String {
    let sa = fold::fold(input.a.events);
    let sb = fold::fold(input.b.events);
    let meta = format!(
        "A = {} ({}): best {}; B = {} ({}): best {} — {} task(s)",
        input.a.label,
        input.a.machine.name(),
        sa.best_length,
        input.b.label,
        input.b.machine.name(),
        sb.best_length,
        sa.tasks
    );
    let mut page = html::Page::new(input.title, &meta);
    page.section(
        "schedule",
        "Schedule: start-up placements and pass outcomes, side by side",
        |out| schedule_section(out, input, &sa, &sb, &mut name),
    );
    page.section(
        "heatmaps",
        "Link-load heatmaps: final best schedules and their delta",
        |out| heatmaps_section(out, input),
    );
    page.section(
        "ledger",
        "Edge-ledger delta: top movers between the runs",
        |out| ledger_section(out, input, &mut name),
    );
    page.section(
        "certificate",
        "Optimality certificates, graded side by side",
        |out| certificate_section(out, input),
    );
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_trace::Event;

    fn te(event: Event) -> TimedEvent {
        TimedEvent { ns: 0, event }
    }

    fn run_events(best: u32, rotate_node: u32) -> Vec<TimedEvent> {
        vec![
            te(Event::StartupBegin { tasks: 2, pes: 2 }),
            te(Event::StartupPlace {
                node: 0,
                pe: 0,
                cs: 0,
                duration: 1,
            }),
            te(Event::StartupPlace {
                node: 1,
                pe: 1,
                cs: 1,
                duration: 1,
            }),
            te(Event::EdgeTraffic {
                edge: 0,
                src: 0,
                dst: 1,
                src_pe: 0,
                dst_pe: 1,
                hops: 1,
                volume: 2,
            }),
            te(Event::StartupEnd { length: 3 }),
            te(Event::PassBegin {
                pass: 1,
                prev_len: 3,
                rows: 1,
            }),
            te(Event::Rotate {
                nodes: vec![rotate_node],
            }),
            te(Event::EdgeTraffic {
                edge: 0,
                src: 0,
                dst: 1,
                src_pe: 0,
                dst_pe: 0,
                hops: 0,
                volume: 2,
            }),
            te(Event::PassEnd {
                pass: 1,
                accepted: true,
                length: best,
            }),
            te(Event::EdgeTraffic {
                edge: 0,
                src: 0,
                dst: 1,
                src_pe: 0,
                dst_pe: 0,
                hops: 0,
                volume: 2,
            }),
            te(Event::CompactEnd {
                initial: 3,
                best,
                passes: 1,
            }),
        ]
    }

    fn page(rotate_b: u32) -> String {
        let ma = Machine::linear_array(2);
        let mb = Machine::ring(2);
        let ea = run_events(2, 0);
        let eb = run_events(3, rotate_b);
        let pa = ccs_profile::build(&ea, &ma);
        let pb = ccs_profile::build(&eb, &mb);
        render_diff_report(
            &DiffInput {
                title: "tiny: line2 vs ring2",
                a: DiffSide {
                    label: "linear:2",
                    events: &ea,
                    machine: &ma,
                    profile: &pa,
                    certificate: None,
                },
                b: DiffSide {
                    label: "ring:2",
                    events: &eb,
                    machine: &mb,
                    profile: &pb,
                    certificate: None,
                },
            },
            |n| format!("n{n}"),
        )
    }

    #[test]
    fn diff_page_has_both_sides_and_passes_check() {
        let html = page(1);
        assert!(html.contains("data-side=\"a\""), "{html}");
        assert!(html.contains("data-side=\"b\""), "{html}");
        assert!(html.contains("data-side=\"delta\""), "{html}");
        assert!(html.contains("runs diverge at pass 1"), "{html}");
        assert!(html.contains("class=\"diverge\""), "{html}");
        crate::check::check_html(&html).expect("diff page passes report-check");
    }

    #[test]
    fn identical_rotations_report_no_divergence() {
        let html = page(0);
        assert!(html.contains("identical node sets"), "{html}");
        assert!(!html.contains("class=\"diverge\""), "{html}");
        // Identical ledgers: the delta table still renders one stable row.
        assert!(html.contains("no movement"), "{html}");
        crate::check::check_html(&html).expect("valid");
    }

    #[test]
    fn diff_page_is_deterministic() {
        assert_eq!(page(1), page(1));
    }
}
