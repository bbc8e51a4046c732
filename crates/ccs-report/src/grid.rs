//! Sweep grid dashboard: every metered cell of a
//! `compact_grid_profiled` sweep rendered as one tile — a mini
//! link-load heatmap, the cell's optimality gap as a colored badge,
//! and its trace counters in the hover title.
//!
//! Page contract (enforced by `report-check`):
//!
//! * the legend SVG declares `data-grid-cells="N"` and the page holds
//!   exactly `N` heatmaps tagged `data-cell="workload/machine/config"`,
//!   ids unique — one panel per metered cell, no more, no fewer;
//! * tiles are colored by gap bucket on a fixed five-step ramp, so
//!   two sweeps are visually comparable without reading numbers;
//! * same determinism contract as every report: pure function of the
//!   inputs, byte-identical across thread counts, everything escaped.

use crate::html::{self, esc};
use ccs_profile::render::{heatmap_panel, PanelOptions, Traffic};
use ccs_profile::{EdgeTraffic, LinkLoad};
use std::fmt::Write as _;

/// One sweep cell, flattened for rendering: identity, lengths, bound,
/// counters, and the final best-schedule traffic to draw.
pub struct GridCellView {
    /// Workload name ("fig1", …).
    pub workload: String,
    /// Machine spec string ("mesh:2x2", …).
    pub machine: String,
    /// Scheduler-config index within the sweep.
    pub config_ix: usize,
    /// Start-up schedule length.
    pub initial: u32,
    /// Best compacted length.
    pub best: u32,
    /// Strongest proven period floor.
    pub bound: u32,
    /// Which bound family proved the floor.
    pub bound_kind: String,
    /// `best - bound` (0 when optimal).
    pub gap: u32,
    /// Gap as a percentage of the floor.
    pub gap_pct: f64,
    /// Trace counters of the run, in deterministic (BTree) order.
    pub counters: Vec<(String, u64)>,
    /// Final best-schedule edge ledger.
    pub edges: Vec<EdgeTraffic>,
    /// Final best-schedule link loads.
    pub links: Vec<LinkLoad>,
    /// Whether the machine routes (conservation totals apply).
    pub routable: bool,
}

impl GridCellView {
    /// The cell's unique page id: `workload/machine/config_ix`.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.workload, self.machine, self.config_ix)
    }
}

/// Gap-bucket ramp: green (optimal) through red (gap above 30%).
/// Buckets are fixed so two sweep pages are comparable at a glance.
const GAP_RAMP: [(f64, &str, &str); 5] = [
    (0.0, "#1a9850", "optimal (gap 0%)"),
    (5.0, "#91cf60", "gap under 5%"),
    (15.0, "#fee08b", "gap under 15%"),
    (30.0, "#fc8d59", "gap under 30%"),
    (f64::INFINITY, "#d73027", "gap 30% and above"),
];

fn gap_bucket(gap_pct: f64) -> (&'static str, &'static str) {
    for (ceil, color, label) in GAP_RAMP {
        if gap_pct <= ceil {
            return (color, label);
        }
    }
    let last = GAP_RAMP[GAP_RAMP.len() - 1];
    (last.1, last.2)
}

/// Appends the legend SVG: one swatch per gap bucket, carrying the
/// page's declared cell count in `data-grid-cells`.
fn legend_svg(out: &mut String, cells: usize) {
    let (sw, row_h, left) = (18u32, 20u32, 8u32);
    let width = 240u32;
    let height = 24 + row_h * u32::try_from(GAP_RAMP.len()).unwrap_or(5) + 4;
    let _ = writeln!(
        out,
        r#"<svg class="grid-legend" width="{width}" height="{height}" viewBox="0 0 {width} {height}" data-grid-cells="{cells}" role="img">"#
    );
    let _ = writeln!(
        out,
        r#"  <style>.gl-t{{font:12px monospace;fill:#222}}.gl-s{{font:11px monospace;fill:#555}}</style>"#
    );
    let _ = writeln!(
        out,
        r#"  <text class="gl-t" x="4" y="15">{}</text>"#,
        esc(format_args!(
            "tile color = optimality gap ({cells} cell(s))"
        ))
    );
    for (i, (_, color, label)) in GAP_RAMP.iter().enumerate() {
        let y = 22 + row_h * u32::try_from(i).unwrap_or(0);
        let _ = writeln!(
            out,
            r##"  <rect x="{left}" y="{y}" width="{sw}" height="{sw}" fill="{color}" stroke="#999" stroke-width="0.5"/>"##
        );
        let _ = writeln!(
            out,
            r#"  <text class="gl-s" x="{tx}" y="{ty}">{}</text>"#,
            esc(label),
            tx = left + sw + 8,
            ty = y + 13
        );
    }
    out.push_str("</svg>\n");
}

fn tile(out: &mut String, cell: &GridCellView) {
    let (color, bucket) = gap_bucket(cell.gap_pct);
    let counters: Vec<String> = cell
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let title = format!(
        "{}\ninitial {} -> best {}, floor {} ({})\n{}",
        cell.id(),
        cell.initial,
        cell.best,
        cell.bound,
        cell.bound_kind,
        if counters.is_empty() {
            "no counters recorded".to_string()
        } else {
            counters.join("\n")
        }
    );
    let _ = writeln!(out, r#"<div class="tile" title="{}">"#, esc(&title));
    let _ = writeln!(out, r#"<p class="tile-head">{}</p>"#, esc(cell.id()));
    let _ = writeln!(
        out,
        r#"<p class="tile-gap" style="background:{color}">{}</p>"#,
        esc(format_args!(
            "best {} vs floor {} — gap {} ({:.1}%), {}",
            cell.best, cell.bound, cell.gap, cell.gap_pct, bucket
        ))
    );
    heatmap_panel(
        out,
        &format!("best schedule: comm over {} link(s)", cell.links.len()),
        Traffic {
            edges: &cell.edges,
            links: &cell.links,
        },
        PanelOptions {
            routable: cell.routable,
            cell: Some(&cell.id()),
            mini: true,
            ..PanelOptions::default()
        },
    );
    out.push_str("</div>\n");
}

/// Renders the sweep dashboard: a legend section and one tile per
/// metered cell, in the sweep's own (row-major, deterministic) order.
pub fn render_grid_report(title: &str, cells: &[GridCellView]) -> String {
    let meta = format!("{} metered cell(s); tiles in sweep order", cells.len());
    let mut page = html::Page::new(title, &meta);
    page.section("legend", "Legend: gap ramp", |out| {
        legend_svg(out, cells.len())
    });
    page.section("grid", "Sweep grid: one tile per cell", |out| {
        out.push_str("<div class=\"grid\">\n");
        for c in cells {
            tile(out, c);
        }
        out.push_str("</div>\n");
    });
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(ix: usize, gap: u32, pct: f64) -> GridCellView {
        GridCellView {
            workload: "fig1".to_string(),
            machine: "mesh:2x2".to_string(),
            config_ix: ix,
            initial: 8,
            best: 6 + gap,
            bound: 6,
            bound_kind: "cycle_ratio".to_string(),
            gap,
            gap_pct: pct,
            counters: vec![("scan.candidates".to_string(), 42)],
            edges: vec![EdgeTraffic {
                edge: 0,
                src: 0,
                dst: 1,
                src_pe: 0,
                dst_pe: 1,
                hops: 1,
                volume: 2,
            }],
            links: vec![LinkLoad {
                a: 0,
                b: 1,
                volume: 2,
                messages: 1,
            }],
            routable: true,
        }
    }

    #[test]
    fn grid_page_declares_and_renders_every_cell() {
        let cells = vec![cell(0, 0, 0.0), cell(1, 2, 33.3)];
        let html = render_grid_report("sweep", &cells);
        assert!(html.contains(r#"data-grid-cells="2""#), "{html}");
        assert!(html.contains(r#"data-cell="fig1/mesh:2x2/0""#), "{html}");
        assert!(html.contains(r#"data-cell="fig1/mesh:2x2/1""#), "{html}");
        assert!(html.contains("scan.candidates=42"), "{html}");
        assert!(html.contains("#1a9850"), "optimal tile is green: {html}");
        assert!(html.contains("#d73027"), "33% tile is red: {html}");
        crate::check::check_html(&html).expect("grid page passes report-check");
    }

    #[test]
    fn empty_sweep_renders_a_zero_cell_page_that_still_checks() {
        let html = render_grid_report("sweep", &[]);
        assert!(html.contains(r#"data-grid-cells="0""#), "{html}");
        crate::check::check_html(&html).expect("empty grid passes");
    }

    #[test]
    fn grid_page_is_deterministic_and_escapes_hostile_ids() {
        let mut hostile = cell(0, 1, 10.0);
        hostile.machine = "mesh<2&2>".to_string();
        let a = render_grid_report("s", std::slice::from_ref(&hostile));
        assert!(!a.contains("mesh<2"), "{a}");
        assert!(a.contains("mesh&lt;2&amp;2&gt;"), "{a}");
        assert_eq!(a, render_grid_report("s", std::slice::from_ref(&hostile)));
        crate::check::check_html(&a).expect("hostile ids escaped");
    }

    #[test]
    fn gap_buckets_are_monotone() {
        assert_eq!(gap_bucket(0.0).0, "#1a9850");
        assert_eq!(gap_bucket(4.9).0, "#91cf60");
        assert_eq!(gap_bucket(14.0).0, "#fee08b");
        assert_eq!(gap_bucket(29.0).0, "#fc8d59");
        assert_eq!(gap_bucket(95.0).0, "#d73027");
    }
}
