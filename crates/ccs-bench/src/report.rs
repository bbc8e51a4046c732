//! Machine-readable experiment report: one JSON document aggregating
//! every experiment, for archival and regression diffing — plus the
//! HTML renderers of the fleet observability layer: the BENCH
//! trajectory page (`bench_report --html`) and the sweep-cell →
//! dashboard-tile conversion (`exp_architectures --report`).
//!
//! The HTML side follows the `ccs-report` determinism contract: pure
//! functions of the inputs, no wall-clock content, every interpolation
//! through the audited `esc()` helper (the `escaped-html-output` lint
//! scans this file), artifacts validated by `report-check`.

use crate::driver::ProfiledCell;
use crate::experiments;
use crate::report_diff::Trajectory;
use ccs_report::grid::GridCellView;
use ccs_report::html::{self, esc};
use serde::Serialize;
use std::fmt::Write as _;

/// The full report (`exp_full_report` emits it as JSON).
#[derive(Clone, Debug, Serialize)]
pub struct FullReport {
    /// Tool version (crate version at compile time).
    pub version: &'static str,
    /// E9: Table 11 cells.
    pub table11: Vec<Table11Json>,
    /// E4-E8: 19-node lengths per machine.
    pub nineteen_node: Vec<NineteenJson>,
    /// E11: priority ablation rows.
    pub priority: Vec<PriorityJson>,
    /// E12: random sweep aggregates.
    pub sweep: Vec<SweepJson>,
    /// E13: validation summary.
    pub validation: ValidationJson,
    /// E17: multi-row rotation aggregates.
    pub multirow: Vec<MultirowJson>,
}

/// JSON shape of one Table 11 row.
#[derive(Clone, Debug, Serialize)]
pub struct Table11Json {
    /// Application name.
    pub application: String,
    /// Relaxation policy label.
    pub relax: String,
    /// `(machine, init, after)` triples.
    pub cells: Vec<(String, u32, u32)>,
}

/// JSON shape of one 19-node row.
#[derive(Clone, Debug, Serialize)]
pub struct NineteenJson {
    /// Machine name.
    pub machine: String,
    /// Start-up length.
    pub startup: u32,
    /// Compacted length.
    pub compacted: u32,
}

/// JSON shape of one priority-ablation row.
#[derive(Clone, Debug, Serialize)]
pub struct PriorityJson {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// `PF` start-up length.
    pub pf: u32,
    /// Mobility-only start-up length.
    pub mobility: u32,
    /// FIFO start-up length.
    pub fifo: u32,
}

/// JSON shape of one sweep row.
#[derive(Clone, Debug, Serialize)]
pub struct SweepJson {
    /// Graph size.
    pub nodes: usize,
    /// Machine name.
    pub machine: String,
    /// Mean start-up length.
    pub startup: f64,
    /// Mean compacted length.
    pub compacted: f64,
    /// Mean oblivious-list length.
    pub oblivious: f64,
    /// Mean gap to the iteration-bound ceiling.
    pub bound_gap: f64,
}

/// JSON shape of the validation summary.
#[derive(Clone, Debug, Serialize)]
pub struct ValidationJson {
    /// Schedules checked.
    pub schedules: usize,
    /// Schedules passing all checks.
    pub passed: usize,
}

/// JSON shape of one multirow-ablation row.
#[derive(Clone, Debug, Serialize)]
pub struct MultirowJson {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Best lengths rotating 1, 2 and 3 rows per pass.
    pub lengths: [u32; 3],
}

/// Runs the (fast subset of the) experiments and assembles the report.
///
/// `sweep_seeds` controls the E12 sample size; `replay_iters` the E13
/// replay depth.
pub fn collect(sweep_seeds: u64, replay_iters: u32) -> FullReport {
    let machines: Vec<String> = experiments::table11_machines()
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let table11 = experiments::table11()
        .into_iter()
        .map(|r| Table11Json {
            application: r.application.to_string(),
            relax: r.relax.to_string(),
            cells: machines
                .iter()
                .cloned()
                .zip(r.cells.iter().copied())
                .map(|(m, (i, a))| (m, i, a))
                .collect(),
        })
        .collect();
    let nineteen_node = experiments::nineteen_node()
        .into_iter()
        .map(|r| NineteenJson {
            machine: r.machine,
            startup: r.startup_len,
            compacted: r.compacted_len,
        })
        .collect();
    let priority = experiments::priority_ablation()
        .into_iter()
        .map(|r| PriorityJson {
            workload: r.workload.to_string(),
            machine: r.machine,
            pf: r.lengths[0],
            mobility: r.lengths[1],
            fifo: r.lengths[2],
        })
        .collect();
    let sweep = experiments::random_sweep(&[10, 20, 40], sweep_seeds)
        .into_iter()
        .map(|r| SweepJson {
            nodes: r.nodes,
            machine: r.machine,
            startup: r.mean_startup,
            compacted: r.mean_compacted,
            oblivious: r.mean_oblivious,
            bound_gap: r.mean_bound_gap,
        })
        .collect();
    let v = experiments::validate_everything(replay_iters);
    let multirow = experiments::multirow_ablation()
        .into_iter()
        .map(|r| MultirowJson {
            workload: r.workload.to_string(),
            machine: r.machine,
            lengths: r.lengths,
        })
        .collect();
    FullReport {
        version: env!("CARGO_PKG_VERSION"),
        table11,
        nineteen_node,
        priority,
        sweep,
        validation: ValidationJson {
            schedules: v.schedules,
            passed: v.passed,
        },
        multirow,
    }
}

/// Flattens one sweep cell into the dashboard renderer's view: grid
/// identity and lengths from the [`crate::driver::GridCell`], counters
/// from the metrics registry, traffic from the cell's final ledger.
pub fn grid_cell_view(p: &ProfiledCell) -> GridCellView {
    GridCellView {
        workload: p.cell.workload.to_string(),
        machine: p.cell.machine.clone(),
        config_ix: p.cell.config_ix,
        initial: p.cell.initial,
        best: p.cell.best,
        bound: u32::try_from(p.cell.bound).unwrap_or(u32::MAX),
        bound_kind: p.cell.bound_kind.to_string(),
        gap: u32::try_from(p.cell.gap()).unwrap_or(u32::MAX),
        gap_pct: p.cell.gap_pct(),
        counters: p
            .metrics
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        edges: p.edges.clone(),
        links: p.links.clone(),
        routable: p.routable,
    }
}

/// Renders a sweep of profiled cells as the grid dashboard page.
pub fn grid_html(title: &str, cells: &[ProfiledCell]) -> String {
    let views: Vec<GridCellView> = cells.iter().map(grid_cell_view).collect();
    ccs_report::grid::render_grid_report(title, &views)
}

/// Sparkline geometry: fixed so every sparkline on the page aligns.
const SPARK_W: u32 = 360;
const SPARK_H: u32 = 72;
const SPARK_LEFT: u32 = 8;
const SPARK_TOP: u32 = 22;
const SPARK_PLOT_W: u32 = 280;
const SPARK_PLOT_H: u32 = 36;

/// Appends one inline SVG sparkline over the report sequence.
/// `values[i]` is the metric at report `i` (`None` when that report
/// lacks the key); `marks[i]` draws a drift marker at report `i`.
/// Coordinates are formatted with fixed precision, so the output is
/// deterministic.
fn spark_svg(out: &mut String, caption: &str, values: &[Option<f64>], marks: &[bool]) {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    let (lo, hi) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = if hi > lo { hi - lo } else { 1.0 };
    let n = values.len().max(2);
    let x_of = |i: usize| -> f64 {
        f64::from(SPARK_LEFT) + f64::from(SPARK_PLOT_W) * i as f64 / (n - 1) as f64
    };
    let y_of = |v: f64| -> f64 {
        let frac = if present.is_empty() {
            0.5
        } else {
            (v - lo) / span
        };
        f64::from(SPARK_TOP) + f64::from(SPARK_PLOT_H) * (1.0 - frac)
    };
    let _ = writeln!(
        out,
        r#"<svg class="spark" width="{SPARK_W}" height="{SPARK_H}" viewBox="0 0 {SPARK_W} {SPARK_H}" role="img">"#
    );
    let _ = writeln!(
        out,
        r#"  <style>.sp-t{{font:11px monospace;fill:#222}}.sp-s{{font:9px monospace;fill:#777}}</style>"#
    );
    let _ = writeln!(
        out,
        r#"  <text class="sp-t" x="4" y="13">{}</text>"#,
        esc(caption)
    );
    let points: Vec<String> = values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| format!("{:.1},{:.1}", x_of(i), y_of(v))))
        .collect();
    if points.len() >= 2 {
        let _ = writeln!(
            out,
            r##"  <polyline fill="none" stroke="#4a7ab5" stroke-width="1.5" points="{}"/>"##,
            points.join(" ")
        );
    }
    for (i, v) in values.iter().enumerate() {
        let Some(v) = v else { continue };
        let drifted = marks.get(i).copied().unwrap_or(false);
        let (r, fill) = if drifted {
            (4, "#b30000")
        } else {
            (2, "#2c4a70")
        };
        let _ = writeln!(
            out,
            r#"  <circle cx="{:.1}" cy="{:.1}" r="{r}" fill="{fill}"><title>{}</title></circle>"#,
            x_of(i),
            y_of(*v),
            esc(format_args!(
                "report {}: {v:.2}{}",
                i + 1,
                if drifted { " (fingerprint drift)" } else { "" }
            ))
        );
    }
    if !present.is_empty() {
        let _ = writeln!(
            out,
            r#"  <text class="sp-s" x="{tx}" y="{ty}">{}</text>"#,
            esc(format_args!("{hi:.2}")),
            tx = SPARK_LEFT + SPARK_PLOT_W + 6,
            ty = SPARK_TOP + 8
        );
        let _ = writeln!(
            out,
            r#"  <text class="sp-s" x="{tx}" y="{ty}">{}</text>"#,
            esc(format_args!("{lo:.2}")),
            tx = SPARK_LEFT + SPARK_PLOT_W + 6,
            ty = SPARK_TOP + SPARK_PLOT_H
        );
    }
    out.push_str("</svg>\n");
}

/// Union of a metric's keys across the trajectory, in BTree order.
fn all_keys<'a>(
    t: &'a Trajectory,
    of: impl Fn(&'a crate::report_diff::BenchReport) -> &'a std::collections::BTreeMap<String, f64>,
) -> Vec<&'a String> {
    let mut keys: Vec<&String> = t.reports.iter().flat_map(|r| of(r).keys()).collect();
    keys.sort();
    keys.dedup();
    keys
}

fn timings_section(out: &mut String, t: &Trajectory) {
    let no_marks = vec![false; t.reports.len()];
    let keys = all_keys(t, |r| &r.timings);
    if keys.is_empty() {
        out.push_str("<p>no timings recorded</p>\n");
    }
    for key in keys {
        let values: Vec<Option<f64>> = t
            .reports
            .iter()
            .map(|r| r.timings.get(key).copied())
            .collect();
        let first = values.iter().flatten().next();
        let last = values.iter().flatten().next_back();
        let speedup = match (first, last) {
            (Some(&f), Some(&l)) if l > 0.0 => format!("{:.2}x", f / l),
            _ => "-".to_string(),
        };
        spark_svg(
            out,
            &format!("{key} (ms, first/last speedup {speedup})"),
            &values,
            &no_marks,
        );
    }
}

fn gaps_section(out: &mut String, t: &Trajectory) {
    let keys = all_keys(t, |r| &r.gaps);
    if keys.is_empty() {
        out.push_str("<p>no bounds sections recorded (reports predate the bound engine)</p>\n");
    }
    for key in keys {
        let values: Vec<Option<f64>> = t.reports.iter().map(|r| r.gaps.get(key).copied()).collect();
        // Drift markers land on the *later* report of each drifting
        // adjacent pair, matched by label.
        let marks: Vec<bool> = t
            .reports
            .iter()
            .map(|r| {
                t.drifts
                    .iter()
                    .any(|d| d.key == *key && d.between.1 == r.label)
            })
            .collect();
        spark_svg(
            out,
            &format!("{key} (gap % vs static floor)"),
            &values,
            &marks,
        );
    }
}

fn findings_section(out: &mut String, t: &Trajectory) {
    if !t.failed() {
        out.push_str(
            "<p><span class=\"accepted\">gate passes</span>: fingerprints stable, \
             no gap growth, no artifact growth, no timing regression past the threshold</p>\n",
        );
        return;
    }
    for d in &t.drifts {
        let _ = writeln!(
            out,
            "<p><span class=\"reverted\">FINGERPRINT DRIFT</span> {}</p>",
            esc(format_args!(
                "{}: {} -> {} between {} and {}",
                d.key, d.from, d.to, d.between.0, d.between.1
            ))
        );
    }
    for g in &t.gap_growths {
        let _ = writeln!(
            out,
            "<p><span class=\"reverted\">GAP GROWTH</span> {}</p>",
            esc(format_args!(
                "{}: {:.1}% -> {:.1}% between {} and {}",
                g.key, g.from_pct, g.to_pct, g.between.0, g.between.1
            ))
        );
    }
    for g in &t.artifact_growths {
        let _ = writeln!(
            out,
            "<p><span class=\"reverted\">ARTIFACT GROWTH</span> {}</p>",
            esc(format_args!(
                "{}: {} -> {} bytes between {} and {}",
                g.key, g.from, g.to, g.between.0, g.between.1
            ))
        );
    }
    for r in &t.regressions {
        let _ = writeln!(
            out,
            "<p><span class=\"reverted\">TIMING REGRESSION</span> {}</p>",
            esc(format_args!(
                "{}: {:.2} ms -> {:.2} ms (+{:.0}%) between {} and {}",
                r.key, r.from_ms, r.to_ms, r.pct, r.between.0, r.between.1
            ))
        );
    }
}

/// Renders the analyzed BENCH trajectory as one self-contained HTML
/// page (`bench_report --html`): per-experiment timing sparklines,
/// per-schedule gap sparklines with fingerprint-drift markers, and the
/// gate findings.
pub fn trajectory_html(t: &Trajectory) -> String {
    let labels: Vec<&str> = t.reports.iter().map(|r| r.label.as_str()).collect();
    let meta = format!("{} report(s): {}", t.reports.len(), labels.join(" -> "));
    let mut page = html::Page::new("BENCH trajectory", &meta);
    page.section(
        "timings",
        "Timing trajectory (median ms per experiment)",
        |out| timings_section(out, t),
    );
    page.section(
        "gaps",
        "Optimality-gap trajectory (drift markers in red)",
        |out| gaps_section(out, t),
    );
    page.section("findings", "Gate findings", |out| findings_section(out, t));
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_collects_and_serializes() {
        let report = collect(2, 3);
        assert_eq!(report.table11.len(), 4);
        assert_eq!(report.nineteen_node.len(), 5);
        assert_eq!(report.validation.schedules, report.validation.passed);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"table11\""));
        assert!(json.contains("Completely Connected 8"));
        // Parseable back as generic JSON.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value["sweep"].as_array().unwrap().len() >= 3);
    }

    use crate::report_diff::{analyze, BenchReport};

    fn bench(label: &str, ms: f64, fp: &str, gap: f64) -> BenchReport {
        BenchReport {
            label: label.to_string(),
            timings: [("exp_hotpath".to_string(), ms)].into_iter().collect(),
            fingerprints: [("fig1/mesh".to_string(), fp.to_string())]
                .into_iter()
                .collect(),
            gaps: [("fig1/mesh".to_string(), gap)].into_iter().collect(),
            artifact_bytes: Default::default(),
        }
    }

    #[test]
    fn trajectory_html_renders_sparklines_and_passes_check() {
        let t = analyze(
            vec![
                bench("BENCH_pr1.json", 12.0, "aa", 10.0),
                bench("BENCH_pr2.json", 9.0, "aa", 5.0),
                bench("BENCH_pr3.json", 8.0, "bb", 5.0),
            ],
            1000.0,
        );
        let html = trajectory_html(&t);
        assert!(html.contains("<section id=\"timings\">"), "{html}");
        assert!(
            html.contains("exp_hotpath (ms, first/last speedup 1.50x)"),
            "{html}"
        );
        assert!(html.contains("fig1/mesh (gap % vs static floor)"), "{html}");
        // The aa -> bb drift marks the third report in red.
        assert!(html.contains("fingerprint drift"), "{html}");
        assert!(html.contains("FINGERPRINT DRIFT"), "{html}");
        ccs_report::check::check_html(&html).expect("trajectory page passes report-check");
        assert_eq!(html, trajectory_html(&t), "deterministic");
    }

    #[test]
    fn clean_trajectory_reports_a_passing_gate() {
        let t = analyze(
            vec![
                bench("BENCH_pr1.json", 10.0, "aa", 5.0),
                bench("BENCH_pr2.json", 9.0, "aa", 5.0),
            ],
            1000.0,
        );
        let html = trajectory_html(&t);
        assert!(html.contains("gate passes"), "{html}");
        assert!(!html.contains("FINGERPRINT DRIFT"), "{html}");
        ccs_report::check::check_html(&html).expect("valid");
    }

    #[test]
    fn spark_svg_handles_gaps_and_hostile_captions() {
        let mut svg = String::new();
        spark_svg(
            &mut svg,
            "a < b & c",
            &[Some(1.0), None, Some(3.0)],
            &[false, false, true],
        );
        assert!(svg.contains("a &lt; b &amp; c"), "{svg}");
        assert!(!svg.contains("a < b"), "{svg}");
        assert!(svg.contains("<polyline"), "{svg}");
        // Two plotted points + the min/max labels; the None is skipped.
        assert_eq!(svg.matches("<circle").count(), 2, "{svg}");
        assert!(svg.contains("#b30000"), "drift mark rendered: {svg}");
        // Single-point series renders no polyline but still validates.
        let mut one = String::new();
        spark_svg(&mut one, "one", &[Some(2.0)], &[false]);
        assert!(!one.contains("<polyline"), "{one}");
    }

    #[test]
    fn grid_html_renders_one_tile_per_profiled_cell() {
        use ccs_core::CompactConfig;
        use ccs_topology::Machine;
        use ccs_workloads::Workload;
        let workloads: Vec<Workload> = ccs_workloads::all_workloads()
            .into_iter()
            .filter(|w| w.name == "fig1")
            .collect();
        let machines = vec![Machine::mesh(2, 2), Machine::complete(4)];
        let configs = vec![CompactConfig::default()];
        let cells = crate::driver::compact_grid_profiled(&workloads, &machines, &configs);
        let html = grid_html("fig1 sweep", &cells);
        assert!(html.contains("data-grid-cells=\"2\""), "{html}");
        assert!(html.contains("data-cell=\"fig1/2-D Mesh 2x2/0\""), "{html}");
        let facts = ccs_report::check::check_html(&html).expect("grid page passes report-check");
        assert_eq!(facts.grid_cells, 2);
        assert_eq!(html, grid_html("fig1 sweep", &cells), "deterministic");
    }
}
