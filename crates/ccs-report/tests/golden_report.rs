//! Golden HTML report for the paper's running example on the 2x2
//! mesh.  The report is a pure function of the (deterministic) event
//! stream, the machine, and the certificate — independent of build
//! profile and thread count — so the exact bytes are pinned.  A
//! many-PE page is held to a byte budget instead: its heatmaps must
//! follow the traffic, not the machine.
//!
//! To regenerate after an intentional renderer or scheduler change:
//!
//! ```text
//! UPDATE_REPORT_GOLDEN=1 cargo test -p ccs-report --test golden_report
//! ```

use ccs_core::compact::{cyclo_compact, CompactConfig};
use ccs_report::diff::{render_diff_report, DiffInput, DiffSide};
use ccs_report::{check::check_html, render_report, ReportInput};
use ccs_topology::Machine;
use std::path::PathBuf;

/// The report of one recorded run of `g` on `machine`, with the
/// accepted phases the profile kept.
fn report_of(name: &str, g: &ccs_model::Csdfg, machine: &Machine) -> (String, usize) {
    let (outcome, events) =
        ccs_trace::record(|| cyclo_compact(g, machine, CompactConfig::default()));
    let result = outcome.expect("legal");
    let profile = ccs_profile::build(&events, machine);
    let certificate = ccs_bounds::certify_period(g, machine, result.best_length);
    let html = render_report(
        &ReportInput {
            title: &format!("{name} on {}", machine.name()),
            events: &events,
            machine,
            profile: &profile,
            certificate: Some(&certificate),
        },
        |n| {
            g.name(ccs_graph::NodeId::from_index(n as usize))
                .to_string()
        },
    );
    (html, profile.pass_ledgers.len())
}

fn fig1_report(machine: &Machine) -> String {
    report_of("fig1", &ccs_workloads::paper::fig1_example(), machine).0
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.html"))
}

#[test]
fn fig1_report_on_mesh_is_pinned_and_valid() {
    let machine = Machine::mesh(2, 2);
    let actual = fig1_report(&machine);

    let facts = check_html(&actual).unwrap_or_else(|e| panic!("report fails report-check: {e:?}"));
    assert_eq!(facts.sections, 4, "the four panels");
    assert!(facts.svgs >= 2, "at least a Gantt and one heatmap");
    assert!(
        facts.conserved >= 1,
        "mesh heatmaps carry conservation totals"
    );

    let path = golden_path("fig1_mesh2x2");
    if std::env::var_os("UPDATE_REPORT_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "report drifted for fig1_mesh2x2; if intentional, regenerate with \
         UPDATE_REPORT_GOLDEN=1 cargo test -p ccs-report --test golden_report"
    );
}

fn fig1_diff_report(ma: &Machine, mb: &Machine) -> String {
    let g = ccs_workloads::paper::fig1_example();
    let cfg = CompactConfig::default();
    let ((ra, ea), (rb, eb)) =
        ccs_trace::record_pair(|| cyclo_compact(&g, ma, cfg), || cyclo_compact(&g, mb, cfg));
    let (ra, rb) = (ra.expect("legal"), rb.expect("legal"));
    let pa = ccs_profile::build(&ea, ma);
    let pb = ccs_profile::build(&eb, mb);
    let ca = ccs_bounds::certify_period(&g, ma, ra.best_length);
    let cb = ccs_bounds::certify_period(&g, mb, rb.best_length);
    render_diff_report(
        &DiffInput {
            title: &format!("fig1: {} vs {}", ma.name(), mb.name()),
            a: DiffSide {
                label: ma.name(),
                events: &ea,
                machine: ma,
                profile: &pa,
                certificate: Some(&ca),
            },
            b: DiffSide {
                label: mb.name(),
                events: &eb,
                machine: mb,
                profile: &pb,
                certificate: Some(&cb),
            },
        },
        |n| {
            g.name(ccs_graph::NodeId::from_index(n as usize))
                .to_string()
        },
    )
}

#[test]
fn fig1_mesh_vs_complete_diff_is_pinned_and_valid() {
    let (ma, mb) = (Machine::mesh(2, 2), Machine::complete(4));
    let actual = fig1_diff_report(&ma, &mb);

    let facts = check_html(&actual).unwrap_or_else(|e| panic!("diff fails report-check: {e:?}"));
    assert_eq!(facts.sections, 4, "the four diff panels");
    assert!(
        facts.conserved >= 2,
        "both sides' final heatmaps conserve traffic"
    );
    assert!(actual.contains("data-side=\"a\""));
    assert!(actual.contains("data-side=\"b\""));
    assert!(actual.contains("data-side=\"delta\""));

    let path = golden_path("fig1_mesh_vs_complete");
    if std::env::var_os("UPDATE_REPORT_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "diff report drifted for fig1_mesh_vs_complete; if intentional, regenerate with \
         UPDATE_REPORT_GOLDEN=1 cargo test -p ccs-report --test golden_report"
    );
}

#[test]
fn diff_report_is_independent_of_recording_context() {
    let (ma, mb) = (Machine::ring(4), Machine::linear_array(4));
    assert_eq!(fig1_diff_report(&ma, &mb), fig1_diff_report(&ma, &mb));
}

#[test]
fn report_is_independent_of_recording_context() {
    // Rendering twice from independently recorded runs must agree
    // byte-for-byte: no wall-clock content, no iteration-order leaks.
    let machine = Machine::ring(4);
    assert_eq!(fig1_report(&machine), fig1_report(&machine));
}

/// The numeric value of attribute `key` in the tag text `tag`.
fn num_attr(tag: &str, key: &str) -> u32 {
    let pat = format!(" {key}=\"");
    let start = tag
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {tag}"))
        + pat.len();
    let end = tag[start..].find('"').expect("closing quote") + start;
    tag[start..end].parse().expect("numeric attribute")
}

/// Asserts that every bar of every Gantt strip in `html` lies inside
/// its SVG, and returns how many bars were checked.
fn gantt_bars_inside(html: &str) -> usize {
    let mut bars = 0;
    for strip in html.split("<svg class=\"gantt\"").skip(1) {
        let strip = &strip[..strip.find("</svg>").expect("closed svg")];
        let width = num_attr(strip, "width");
        for rect in strip.split("<rect ").skip(1) {
            let (x, w) = (num_attr(rect, "x"), num_attr(rect, "width"));
            assert!(
                x + w <= width,
                "bar at x {x} width {w} overflows a {width}-px strip"
            );
            bars += 1;
        }
    }
    bars
}

#[test]
fn gantt_bars_lie_inside_their_strips() {
    // fig1 on the 2x2 mesh starts at length 7 with F in the last step,
    // and its accepted passes remap nodes near the strips' right edge.
    let machine = Machine::mesh(2, 2);
    let bars = gantt_bars_inside(&fig1_report(&machine));
    assert!(bars > 6, "start-up bars plus pass-strip bars, saw {bars}");
    let diff = fig1_diff_report(&machine, &Machine::complete(4));
    assert!(gantt_bars_inside(&diff) >= 12, "both start-up strips");
}

/// Byte budget of the `elliptic` × `hypercube:6` page: about twice the
/// 0.71 MB it measures (the parent's page, with one full PE×PE panel
/// per accepted pass, was 36.4 MB).
const ELLIPTIC_HYPERCUBE6_BUDGET: usize = 1_500_000;

#[test]
fn many_pe_report_is_sized_by_the_traffic() {
    let machine = ccs_topology::parse_spec("hypercube:6").expect("spec");
    let g = ccs_workloads::workload_by_name("elliptic")
        .expect("catalogue kernel")
        .build();
    let (html, phases) = report_of("elliptic", &g, &machine);
    check_html(&html).unwrap_or_else(|e| panic!("report fails report-check: {e:?}"));
    let panels: Vec<&str> = html
        .split("<svg class=\"heatmap")
        .skip(1)
        .map(|p| &p[..p.find("</svg>").expect("closed svg")])
        .collect();
    assert_eq!(
        panels.len(),
        phases + 1,
        "one panel per accepted phase plus the final one"
    );
    let tasks = g.tasks().count() as u32;
    for p in &panels {
        let pes = num_attr(p, "data-pes");
        assert!(
            pes <= tasks,
            "a matrix spans {pes} PEs, more than {tasks} tasks"
        );
        assert!(!p.contains(": volume 0,"), "an idle link got a bar");
        assert!(
            !p.contains("volume delta +0<"),
            "an unchanged link got a bar"
        );
    }
    assert!(
        html.len() < ELLIPTIC_HYPERCUBE6_BUDGET,
        "page is {} bytes, over its {ELLIPTIC_HYPERCUBE6_BUDGET}-byte budget",
        html.len()
    );
}
