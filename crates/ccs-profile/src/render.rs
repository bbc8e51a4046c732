//! Renderers for a [`CommProfile`](crate::CommProfile).
//!
//! [`heatmap`] draws the PE-to-PE hop-weighted traffic matrix plus a
//! per-link load bar chart — a terminal-native view of which parts of
//! the fabric the schedule actually stresses.  [`heatmap_panel`] is
//! the rich equivalent: an SVG of the same matrix and link bars,
//! appended to the caller's buffer — embedded per accepted pass by the
//! `ccs-report` HTML report, per side by its diff page and per cell by
//! its sweep grid.  [`heatmap_svg`] wraps it as the standalone file
//! `cyclosched schedule --heatmap-svg` writes, and
//! [`delta_heatmap_svg`] appends the signed shift between two ledgers.
//! Pure functions of their inputs, so the output is as deterministic
//! as the profile itself.
//!
//! Everything interpolated into SVG/HTML text content goes through
//! [`esc`] — the one audited escape helper (the `escaped-html-output`
//! repo lint enforces this for every markup renderer in the workspace's
//! report path).  It is a formatting adaptor: it escapes while its
//! argument formats, so `esc(format_args!(…))` writes a matrix cell's
//! title straight into the page without an intermediate `String`.

use crate::CommProfile;
use crate::{EdgeTraffic, LinkLoad};
use std::fmt::{self, Write as _};

/// Intensity ramp for the matrix cells, dimmest to brightest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Largest PE count the matrix view renders before falling back to the
/// link list only (a 25+ wide matrix wraps on a standard terminal).
const MAX_MATRIX_PES: u32 = 24;

fn intensity(x: u64, max: u64) -> char {
    if x == 0 || max == 0 {
        return RAMP[0] as char;
    }
    // 1..=max maps onto the non-blank ramp cells.
    let steps = (RAMP.len() - 1) as u64;
    let ix = 1 + (x.saturating_mul(steps - 1)) / max;
    RAMP[ix as usize] as char
}

fn bar(x: u64, max: u64, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let filled = ((x.saturating_mul(width as u64)) / max) as usize;
    let filled = if x > 0 { filled.max(1) } else { 0 };
    "#".repeat(filled.min(width))
}

/// Renders the profile's traffic picture:
///
/// * a summary line (machine, lengths, comm vs. compute);
/// * the PE-to-PE matrix of hop-weighted crossing costs (sources are
///   rows, destinations columns) when the machine has at most
///   24 PEs;
/// * one load bar per physical link, scaled to the hottest link.
pub fn heatmap(p: &CommProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "comm profile: {} — {} PEs, length {} -> {}, comm {} / compute {}",
        p.machine, p.pes, p.initial_length, p.best_length, p.total_comm, p.compute
    );
    let _ = writeln!(
        out,
        "edges: {} crossing, {} local",
        p.crossing_edges, p.local_edges
    );

    // PE-to-PE hop-weighted cost matrix from the ledger.
    if p.pes > 0 && p.pes <= MAX_MATRIX_PES {
        let n = p.pes as usize;
        let mut cells = vec![0u64; n * n];
        for e in &p.edges {
            let (s, d) = (e.src_pe as usize, e.dst_pe as usize);
            if s < n && d < n && e.crossing() {
                cells[s * n + d] = cells[s * n + d].saturating_add(e.cost());
            }
        }
        let max = cells.iter().copied().max().unwrap_or(0);
        let _ = writeln!(out, "traffic matrix (rows: src PE, cols: dst PE):");
        let _ = write!(out, "      ");
        for d in 0..n {
            let _ = write!(out, "{:>3}", d + 1);
        }
        out.push('\n');
        for s in 0..n {
            let _ = write!(out, "  PE{:<2}", s + 1);
            for d in 0..n {
                let _ = write!(out, "  {}", intensity(cells[s * n + d], max));
            }
            out.push('\n');
        }
        if max > 0 {
            let _ = writeln!(out, "  scale: blank=0 .. '@'={max}");
        }
    }

    // Per-link load bars.
    if !p.links.is_empty() {
        let max = p.links.iter().map(|l| l.volume).max().unwrap_or(0);
        let _ = writeln!(out, "link loads (volume routed over each link):");
        for l in &p.links {
            let _ = writeln!(
                out,
                "  PE{:<2}-PE{:<2} {:>6}  {}",
                l.a + 1,
                l.b + 1,
                l.volume,
                bar(l.volume, max, 32)
            );
        }
    }
    out
}

/// Formats `x` for HTML/SVG text and attribute contexts, escaping as
/// it formats: the five XML-special characters become entities, and
/// nothing is allocated.  A special character is caught wherever it
/// falls, also across the arguments of a `format_args!`.  This is the
/// single audited escape helper of the reporting path — `ccs-report`
/// re-exports it, and the `escaped-html-output` repo lint keeps every
/// markup interpolation routed through it.
pub fn esc<T: fmt::Display>(x: T) -> impl fmt::Display {
    struct Esc<T>(T);
    /// Escapes each chunk the inner value writes.
    struct Escape<'a, 'b>(&'a mut fmt::Formatter<'b>);
    impl fmt::Write for Escape<'_, '_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let mut plain = 0;
            for (i, b) in s.bytes().enumerate() {
                let entity = match b {
                    b'&' => "&amp;",
                    b'<' => "&lt;",
                    b'>' => "&gt;",
                    b'"' => "&quot;",
                    b'\'' => "&#39;",
                    _ => continue,
                };
                self.0.write_str(&s[plain..i])?;
                self.0.write_str(entity)?;
                plain = i + 1;
            }
            self.0.write_str(&s[plain..])
        }
    }
    impl<T: fmt::Display> fmt::Display for Esc<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(Escape(f), "{}", self.0)
        }
    }
    Esc(x)
}

/// Sequential heat ramp (OrRd-style), dimmest to hottest; index 0 is
/// the zero-traffic cell.  Mirrors the ASCII [`RAMP`].
const HEAT: [&str; 10] = [
    "#ffffff", "#fef0d9", "#fdd49e", "#fdbb84", "#fc8d59", "#ef6548", "#d7301f", "#b30000",
    "#7f0000", "#4c0000",
];

fn heat_color(x: u64, max: u64) -> &'static str {
    if x == 0 || max == 0 {
        return HEAT[0];
    }
    let steps = (HEAT.len() - 1) as u64;
    let ix = 1 + (x.saturating_mul(steps - 1)) / max;
    HEAT[ix as usize]
}

/// Geometry constants of the SVG heatmap.
const CELL: u32 = 18;
const LEFT: u32 = 48;
const TOP: u32 = 40;
const BAR_W: u32 = 240;
const ROW_H: u32 = 16;

/// Rendering options of [`heatmap_panel`], the generic heatmap
/// renderer behind the embedded, standalone, diff-side, and sweep-grid
/// panels.
#[derive(Clone, Copy, Debug, Default)]
pub struct PanelOptions<'a> {
    /// Whether link loads are meaningful on the profiled machine
    /// (see [`crate::routable`]); drives the conservation marker.
    pub routable: bool,
    /// Adds the `xmlns` attribute so the SVG opens outside HTML.
    pub standalone: bool,
    /// Marks the panel as one side of a multi-run diff page
    /// (`data-side="a"` / `data-side="b"`); `report-check` requires
    /// conserved traffic on *both* sides when either marker appears.
    pub side: Option<&'a str>,
    /// Marks the panel as one sweep-grid cell (`data-cell="<id>"`);
    /// `report-check` counts these against the grid's declared total.
    pub cell: Option<&'a str>,
    /// Compact geometry for grid tiles (smaller cells, shorter bars).
    pub mini: bool,
}

/// Geometry of one panel, full-size or mini.
struct PanelGeometry {
    cell: u32,
    left: u32,
    top: u32,
    bar_w: u32,
    row_h: u32,
    min_w: u32,
}

impl PanelGeometry {
    fn of(mini: bool) -> Self {
        if mini {
            PanelGeometry {
                cell: 10,
                left: 34,
                top: 28,
                bar_w: 110,
                row_h: 12,
                min_w: 220,
            }
        } else {
            PanelGeometry {
                cell: CELL,
                left: LEFT,
                top: TOP,
                bar_w: BAR_W,
                row_h: ROW_H,
                min_w: 360,
            }
        }
    }
}

/// Appends one edge ledger and its link loads to `out` as an SVG
/// heatmap: the PE-to-PE hop-weighted crossing-cost matrix (rows =
/// source PE, columns = destination PE) plus one load bar per physical
/// link.  This one renderer draws the report's per-phase panels, the
/// standalone `--heatmap-svg` file, the diff page's sides and the
/// sweep grid's tiles; [`PanelOptions`] sets which.
///
/// The `<svg>` element carries machine-readable conservation data:
/// `data-ledger-total` (Σ hop·volume over crossing ledger rows) and
/// `data-link-total` (Σ volume charged to links).  When
/// [`PanelOptions::routable`] holds the two are equal by construction
/// — `report-check` verifies exactly that invariant on every embedded
/// heatmap.
pub fn heatmap_panel(
    out: &mut String,
    caption: &str,
    pes: u32,
    edges: &[EdgeTraffic],
    links: &[LinkLoad],
    opts: PanelOptions<'_>,
) {
    let PanelOptions {
        routable,
        standalone,
        side,
        cell,
        mini,
    } = opts;
    let geo = PanelGeometry::of(mini);
    let n = pes as usize;
    let ledger_total: u64 = edges
        .iter()
        .filter(|e| e.crossing())
        .map(|e| e.cost())
        .fold(0u64, u64::saturating_add);
    let link_total: u64 = links
        .iter()
        .map(|l| l.volume)
        .fold(0u64, u64::saturating_add);

    // Matrix cells: hop-weighted crossing cost per (src PE, dst PE).
    let mut cells = vec![0u64; n * n];
    for e in edges {
        let (s, d) = (e.src_pe as usize, e.dst_pe as usize);
        if s < n && d < n && e.crossing() {
            cells[s * n + d] = cells[s * n + d].saturating_add(e.cost());
        }
    }
    let cell_max = cells.iter().copied().max().unwrap_or(0);
    let link_max = links.iter().map(|l| l.volume).max().unwrap_or(0);

    let (gc, gl, gt, gb, gr) = (geo.cell, geo.left, geo.top, geo.bar_w, geo.row_h);
    let matrix_h = u32::try_from(n).unwrap_or(0) * gc;
    let links_h = u32::try_from(links.len()).unwrap_or(0) * gr;
    let links_top = gt + matrix_h + 24;
    let width = (gl + u32::try_from(n).unwrap_or(0) * gc + 24)
        .max(gl + 64 + gb + 72)
        .max(geo.min_w);
    let height = links_top + links_h + 16;

    let xmlns = if standalone {
        r#" xmlns="http://www.w3.org/2000/svg""#
    } else {
        ""
    };
    let class = if mini { "heatmap mini" } else { "heatmap" };
    let _ = write!(
        out,
        r#"<svg{xmlns} class="{class}" width="{width}" height="{height}" viewBox="0 0 {width} {height}" data-pes="{pes}""#
    );
    if let Some(s) = side {
        let _ = write!(out, r#" data-side="{}""#, esc(s));
    }
    if let Some(c) = cell {
        let _ = write!(out, r#" data-cell="{}""#, esc(c));
    }
    let _ = writeln!(
        out,
        r#" data-routable="{routable}" data-ledger-total="{ledger_total}" data-link-total="{link_total}" role="img">"#
    );
    let (tf, sf) = if mini { (10, 8) } else { (12, 10) };
    let _ = writeln!(
        out,
        r#"  <style>.hm-t{{font:{tf}px monospace;fill:#222}}.hm-s{{font:{sf}px monospace;fill:#555}}.hm-c{{stroke:#ccc;stroke-width:0.5}}</style>"#
    );
    let _ = writeln!(
        out,
        r#"  <text class="hm-t" x="4" y="15">{}</text>"#,
        esc(caption)
    );

    // Matrix: column labels, row labels, one rect per cell with a
    // hover title naming the (src, dst) pair and its cost.
    for d in 0..n {
        let x = gl + u32::try_from(d).unwrap_or(0) * gc + gc / 2;
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{x}" y="{y}" text-anchor="middle">{}</text>"#,
            esc(d + 1),
            y = gt - 4
        );
    }
    for s in 0..n {
        let y = gt + u32::try_from(s).unwrap_or(0) * gc + gc / 2 + 4;
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{x}" y="{y}" text-anchor="end">{}</text>"#,
            esc(format_args!("PE{}", s + 1)),
            x = gl - 4
        );
        for d in 0..n {
            let v = cells[s * n + d];
            let x = gl + u32::try_from(d).unwrap_or(0) * gc;
            let yy = gt + u32::try_from(s).unwrap_or(0) * gc;
            let _ = writeln!(
                out,
                r#"  <rect class="hm-c" x="{x}" y="{yy}" width="{gc}" height="{gc}" fill="{fill}"><title>{}</title></rect>"#,
                esc(format_args!("PE{} -> PE{}: cost {v}", s + 1, d + 1)),
                fill = heat_color(v, cell_max)
            );
        }
    }
    if cell_max > 0 {
        let y = gt + matrix_h + 14;
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{gl}" y="{y}">{}</text>"#,
            esc(format_args!("matrix scale: 0 .. {cell_max}"))
        );
    }

    // Per-link load bars, scaled to the hottest link.
    for (i, l) in links.iter().enumerate() {
        let y = links_top + u32::try_from(i).unwrap_or(0) * gr;
        let filled = if link_max == 0 || l.volume == 0 {
            0
        } else {
            let w = l.volume.saturating_mul(u64::from(gb)) / link_max;
            u32::try_from(w).unwrap_or(gb).clamp(2, gb)
        };
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{gl}" y="{ty}" text-anchor="end">{}</text>"#,
            esc(format_args!("PE{}-PE{}", l.a + 1, l.b + 1)),
            ty = y + 11
        );
        let _ = writeln!(
            out,
            r#"  <rect x="{bx}" y="{ry}" width="{bw}" height="{bh}" fill="{fill}"><title>{}</title></rect>"#,
            esc(format_args!(
                "link PE{}-PE{}: volume {}, {} message(s)",
                l.a + 1,
                l.b + 1,
                l.volume,
                l.messages
            )),
            bx = gl + 8,
            ry = y + 3,
            bw = filled.max(1),
            bh = gr.saturating_sub(6).max(4),
            fill = if l.volume == 0 {
                "#eee"
            } else {
                heat_color(l.volume, link_max)
            }
        );
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{tx}" y="{ty}">{}</text>"#,
            esc(l.volume),
            tx = gl + 8 + gb + 8,
            ty = y + 11
        );
    }
    out.push_str("</svg>\n");
}

/// Diverging ramp for signed deltas: index 0 is zero, higher indices
/// hotter.  Blues for removed traffic, reds for added.
const DIV_NEG: [&str; 5] = ["#ffffff", "#c6dbef", "#9ecae1", "#4292c6", "#084594"];
const DIV_POS: [&str; 5] = ["#ffffff", "#fdd49e", "#fc8d59", "#d7301f", "#7f0000"];

fn div_color(v: i64, max: u64) -> &'static str {
    if v == 0 || max == 0 {
        return DIV_NEG[0];
    }
    let steps = (DIV_NEG.len() - 1) as u64;
    let ix = (1 + (v.unsigned_abs().saturating_mul(steps - 1)) / max) as usize;
    if v < 0 {
        DIV_NEG[ix]
    } else {
        DIV_POS[ix]
    }
}

/// One row of the per-link delta chart: a link present on either side,
/// with the signed volume shift `after - before` (a link only one side
/// has charges its full volume with sign).
struct LinkDelta {
    a: u32,
    b: u32,
    delta: i64,
    tag: &'static str,
}

fn link_deltas(before: &[LinkLoad], after: &[LinkLoad]) -> Vec<LinkDelta> {
    let signed = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    let mut rows: Vec<LinkDelta> = before
        .iter()
        .map(|l| match after.iter().find(|r| (r.a, r.b) == (l.a, l.b)) {
            Some(r) => LinkDelta {
                a: l.a,
                b: l.b,
                delta: signed(r.volume).saturating_sub(signed(l.volume)),
                tag: "both",
            },
            None => LinkDelta {
                a: l.a,
                b: l.b,
                delta: signed(l.volume).saturating_neg(),
                tag: "A only",
            },
        })
        .collect();
    rows.extend(
        after
            .iter()
            .filter(|r| !before.iter().any(|l| (l.a, l.b) == (r.a, r.b)))
            .map(|r| LinkDelta {
                a: r.a,
                b: r.b,
                delta: signed(r.volume),
                tag: "B only",
            }),
    );
    rows
}

/// Appends the signed traffic shift between two edge ledgers to `out`
/// as an SVG:
/// a PE-to-PE matrix of `Δcost = cost_B - cost_A` on a diverging ramp
/// (blues = traffic removed, reds = added), plus one signed bar per
/// physical link of either machine (links only one side has charge
/// their full volume with sign).  `pes` spans both runs; the panel is
/// marked `data-side="delta"` and carries no conservation totals (a
/// signed difference conserves nothing).
pub fn delta_heatmap_svg(
    out: &mut String,
    caption: &str,
    pes: u32,
    before: &[EdgeTraffic],
    after: &[EdgeTraffic],
    before_links: &[LinkLoad],
    after_links: &[LinkLoad],
) {
    let n = pes as usize;
    let mut cells = vec![0i64; n * n];
    let charge = |cells: &mut Vec<i64>, edges: &[EdgeTraffic], sign: i64| {
        for e in edges {
            let (s, d) = (e.src_pe as usize, e.dst_pe as usize);
            if s < n && d < n && e.crossing() {
                let cost = i64::try_from(e.cost()).unwrap_or(i64::MAX);
                cells[s * n + d] = cells[s * n + d].saturating_add(sign.saturating_mul(cost));
            }
        }
    };
    charge(&mut cells, before, -1);
    charge(&mut cells, after, 1);
    let cell_max = cells.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);

    let rows = link_deltas(before_links, after_links);
    let link_max = rows
        .iter()
        .map(|r| r.delta.unsigned_abs())
        .max()
        .unwrap_or(0);

    let matrix_h = u32::try_from(n).unwrap_or(0) * CELL;
    let links_h = u32::try_from(rows.len()).unwrap_or(0) * ROW_H;
    let links_top = TOP + matrix_h + 24;
    let width = (LEFT + u32::try_from(n).unwrap_or(0) * CELL + 24)
        .max(LEFT + 64 + BAR_W + 104)
        .max(360);
    let height = links_top + links_h + 16;

    let _ = writeln!(
        out,
        r#"<svg class="heatmap delta" width="{width}" height="{height}" viewBox="0 0 {width} {height}" data-pes="{pes}" data-side="delta" data-routable="false" role="img">"#
    );
    let _ = writeln!(
        out,
        r#"  <style>.hm-t{{font:12px monospace;fill:#222}}.hm-s{{font:10px monospace;fill:#555}}.hm-c{{stroke:#ccc;stroke-width:0.5}}</style>"#
    );
    let _ = writeln!(
        out,
        r#"  <text class="hm-t" x="4" y="15">{}</text>"#,
        esc(caption)
    );
    for d in 0..n {
        let x = LEFT + u32::try_from(d).unwrap_or(0) * CELL + CELL / 2;
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{x}" y="{y}" text-anchor="middle">{}</text>"#,
            esc(d + 1),
            y = TOP - 4
        );
    }
    for s in 0..n {
        let y = TOP + u32::try_from(s).unwrap_or(0) * CELL + CELL / 2 + 4;
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{x}" y="{y}" text-anchor="end">{}</text>"#,
            esc(format_args!("PE{}", s + 1)),
            x = LEFT - 4
        );
        for d in 0..n {
            let v = cells[s * n + d];
            let x = LEFT + u32::try_from(d).unwrap_or(0) * CELL;
            let yy = TOP + u32::try_from(s).unwrap_or(0) * CELL;
            let _ = writeln!(
                out,
                r#"  <rect class="hm-c" x="{x}" y="{yy}" width="{CELL}" height="{CELL}" fill="{fill}"><title>{}</title></rect>"#,
                esc(format_args!("PE{} -> PE{}: delta {v:+}", s + 1, d + 1)),
                fill = div_color(v, cell_max)
            );
        }
    }
    if cell_max > 0 {
        let y = TOP + matrix_h + 14;
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{LEFT}" y="{y}">{}</text>"#,
            esc(format_args!("delta scale: -{cell_max} .. +{cell_max}"))
        );
    }
    for (i, r) in rows.iter().enumerate() {
        let y = links_top + u32::try_from(i).unwrap_or(0) * ROW_H;
        let filled = if link_max == 0 || r.delta == 0 {
            0
        } else {
            let w = r.delta.unsigned_abs().saturating_mul(u64::from(BAR_W)) / link_max;
            u32::try_from(w).unwrap_or(BAR_W).clamp(2, BAR_W)
        };
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{LEFT}" y="{ty}" text-anchor="end">{}</text>"#,
            esc(format_args!("PE{}-PE{}", r.a + 1, r.b + 1)),
            ty = y + 11
        );
        let _ = writeln!(
            out,
            r#"  <rect x="{bx}" y="{ry}" width="{bw}" height="10" fill="{fill}"><title>{}</title></rect>"#,
            esc(format_args!(
                "link PE{}-PE{} ({}): volume delta {:+}",
                r.a + 1,
                r.b + 1,
                r.tag,
                r.delta
            )),
            bx = LEFT + 8,
            ry = y + 3,
            bw = filled.max(1),
            fill = if r.delta == 0 {
                "#eee"
            } else {
                div_color(r.delta, link_max)
            }
        );
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{tx}" y="{ty}">{}</text>"#,
            esc(format_args!("{:+} ({})", r.delta, r.tag)),
            tx = LEFT + 8 + BAR_W + 8,
            ty = y + 11
        );
    }
    out.push_str("</svg>\n");
}

/// The profile's final best-schedule heatmap as a standalone SVG
/// document (`cyclosched schedule --heatmap-svg FILE`).  `routable`
/// comes from [`crate::routable`] on the machine the run targeted.
pub fn heatmap_svg(p: &CommProfile, routable: bool) -> String {
    let caption = format!(
        "{} — final best schedule: comm {} / compute {}, length {} -> {}",
        p.machine, p.total_comm, p.compute, p.initial_length, p.best_length
    );
    let mut out = String::new();
    heatmap_panel(
        &mut out,
        &caption,
        p.pes,
        &p.edges,
        &p.links,
        PanelOptions {
            routable,
            standalone: true,
            ..PanelOptions::default()
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CommProfile {
        CommProfile {
            machine: "Linear Array 3".to_string(),
            pes: 3,
            initial_length: 6,
            best_length: 5,
            compute: 5,
            total_comm: 6,
            crossing_edges: 1,
            local_edges: 1,
            edges: vec![
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
                    dst_pe: 1,
                    hops: 0,
                    volume: 4,
                },
            ],
            links: vec![
                LinkLoad {
                    a: 0,
                    b: 1,
                    volume: 3,
                    messages: 1,
                },
                LinkLoad {
                    a: 1,
                    b: 2,
                    volume: 3,
                    messages: 1,
                },
            ],
            pe_rows: Vec::new(),
            passes: Vec::new(),
            pass_ledgers: Vec::new(),
        }
    }

    #[test]
    fn heatmap_mentions_machine_and_links() {
        let text = heatmap(&profile());
        assert!(text.contains("Linear Array 3"), "{text}");
        assert!(text.contains("traffic matrix"), "{text}");
        assert!(text.contains("link loads"), "{text}");
        assert!(text.contains("PE1 -PE2"), "{text}");
    }

    #[test]
    fn heatmap_is_deterministic() {
        assert_eq!(heatmap(&profile()), heatmap(&profile()));
    }

    #[test]
    fn intensity_endpoints() {
        assert_eq!(intensity(0, 10), ' ');
        assert_eq!(intensity(10, 10), '@');
        assert_eq!(bar(0, 10, 8), "");
        assert_eq!(bar(10, 10, 8), "########");
    }

    /// [`heatmap_panel`] into a fresh buffer.
    fn panel(caption: &str, p: &CommProfile, opts: PanelOptions<'_>) -> String {
        let mut out = String::new();
        heatmap_panel(&mut out, caption, p.pes, &p.edges, &p.links, opts);
        out
    }

    /// [`delta_heatmap_svg`] into a fresh buffer.
    fn delta(
        caption: &str,
        pes: u32,
        before: &[EdgeTraffic],
        after: &[EdgeTraffic],
        before_links: &[LinkLoad],
        after_links: &[LinkLoad],
    ) -> String {
        let mut out = String::new();
        delta_heatmap_svg(
            &mut out,
            caption,
            pes,
            before,
            after,
            before_links,
            after_links,
        );
        out
    }

    /// The allocating escaper the adaptor replaced, kept as the oracle.
    fn esc_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\'' => out.push_str("&#39;"),
                _ => out.push(c),
            }
        }
        out
    }

    #[test]
    fn esc_covers_all_specials_and_passes_plain_text() {
        assert_eq!(esc("a<b>&\"c'").to_string(), "a&lt;b&gt;&amp;&quot;c&#39;");
        assert_eq!(esc("Mesh 2x2").to_string(), "Mesh 2x2");
        assert_eq!(esc("").to_string(), "");
    }

    #[test]
    fn esc_adaptor_matches_the_allocating_escaper() {
        for s in [
            "",
            "plain",
            "&",
            "<<>>",
            "a<b>&\"c'",
            "'\"'\"",
            "PE\u{2081} → PE\u{2082}: Δcost ≥ 3 & <ok> \u{1F600}",
            "ünïcödé<>&",
        ] {
            assert_eq!(esc(s).to_string(), esc_reference(s), "{s:?}");
        }
        assert_eq!(esc(42u32).to_string(), "42");
        assert_eq!(esc(-7i64).to_string(), "-7");
    }

    #[test]
    fn esc_catches_specials_across_format_args_boundaries() {
        assert_eq!(esc(format_args!("{}{}", "<", "&")).to_string(), "&lt;&amp;");
        assert_eq!(
            esc(format_args!("PE{} -> PE{}: {}", 1, 2, "a'b\"")).to_string(),
            "PE1 -&gt; PE2: a&#39;b&quot;"
        );
        // The adaptor is as good inside another format string.
        assert_eq!(
            format!("<t>{}</t>", esc(format_args!("{}>", "<"))),
            "<t>&lt;&gt;</t>"
        );
    }

    #[test]
    fn heatmap_svg_is_deterministic_and_carries_conservation_data() {
        let p = profile();
        let a = heatmap_svg(&p, true);
        assert_eq!(a, heatmap_svg(&p, true));
        assert!(a.starts_with("<svg"), "{a}");
        assert!(a.trim_end().ends_with("</svg>"), "{a}");
        assert!(a.contains(r#"xmlns="http://www.w3.org/2000/svg""#));
        // Ledger: one crossing edge of cost 6; links charge 3+3 volume.
        assert!(a.contains(r#"data-ledger-total="6""#), "{a}");
        assert!(a.contains(r#"data-link-total="6""#), "{a}");
        assert!(a.contains(r#"data-routable="true""#), "{a}");
        assert!(a.contains("Linear Array 3"), "{a}");
        assert!(a.contains("PE1-PE2"), "{a}");
    }

    #[test]
    fn heatmap_svg_escapes_hostile_captions() {
        let mut p = profile();
        p.machine = "<script>alert('x')&\"".to_string();
        let svg = heatmap_svg(&p, true);
        assert!(!svg.contains("<script"), "{svg}");
        assert!(svg.contains("&lt;script&gt;"), "{svg}");
    }

    #[test]
    fn heatmap_panel_embeds_without_xmlns() {
        let p = profile();
        let svg = panel("pass 1", &p, PanelOptions::default());
        assert!(svg.starts_with("<svg class="), "{svg}");
        assert!(!svg.contains("xmlns"), "{svg}");
        assert!(svg.contains(r#"data-routable="false""#), "{svg}");
    }

    #[test]
    fn heatmap_svg_viewbox_matches_dimensions() {
        let p = profile();
        let svg = heatmap_svg(&p, true);
        let wh = svg
            .split_once(r#"width=""#)
            .and_then(|(_, r)| r.split_once('"'))
            .map(|(w, _)| w.to_string())
            .unwrap_or_default();
        assert!(svg.contains(&format!(r#"viewBox="0 0 {wh} "#)), "{svg}");
    }

    #[test]
    fn panel_options_tag_side_and_cell_escaped() {
        let p = profile();
        let svg = panel(
            "cap",
            &p,
            PanelOptions {
                routable: true,
                side: Some("a"),
                cell: Some("fig1/mesh<2>"),
                ..PanelOptions::default()
            },
        );
        assert!(svg.contains(r#" data-side="a""#), "{svg}");
        assert!(svg.contains(r#" data-cell="fig1/mesh&lt;2&gt;""#), "{svg}");
        assert!(!svg.contains("mesh<2>"), "{svg}");
    }

    #[test]
    fn mini_panel_is_smaller_than_full_panel() {
        let p = profile();
        let full = panel("cap", &p, PanelOptions::default());
        let mini = panel(
            "cap",
            &p,
            PanelOptions {
                mini: true,
                ..PanelOptions::default()
            },
        );
        let width = |svg: &str| -> u32 {
            svg.split_once(r#"width=""#)
                .and_then(|(_, r)| r.split_once('"'))
                .and_then(|(w, _)| w.parse().ok())
                .unwrap_or(0)
        };
        assert!(width(&mini) < width(&full), "{mini}\n{full}");
        assert!(mini.contains(r#"class="heatmap mini""#), "{mini}");
        assert_eq!(mini, {
            let p = profile();
            panel(
                "cap",
                &p,
                PanelOptions {
                    mini: true,
                    ..PanelOptions::default()
                },
            )
        });
    }

    #[test]
    fn delta_heatmap_charges_signed_shifts_and_one_sided_links() {
        let p = profile();
        let mut after = p.edges.clone();
        // The crossing edge now lands one hop closer: cost 6 -> 3.
        after[0].dst_pe = 1;
        after[0].hops = 1;
        let after_links = vec![LinkLoad {
            a: 0,
            b: 1,
            volume: 3,
            messages: 1,
        }];
        let svg = delta("A vs B", p.pes, &p.edges, &after, &p.links, &after_links);
        assert!(svg.starts_with("<svg class=\"heatmap delta\""), "{svg}");
        assert!(svg.contains(r#"data-side="delta""#), "{svg}");
        assert!(svg.contains(r#"data-routable="false""#), "{svg}");
        // PE1->PE3 loses its 6, PE1->PE2 gains 3.
        assert!(svg.contains("PE1 -&gt; PE3: delta -6"), "{svg}");
        assert!(svg.contains("PE1 -&gt; PE2: delta +3"), "{svg}");
        // Link PE2-PE3 exists only on side A: charged -3, tagged.
        assert!(
            svg.contains("link PE2-PE3 (A only): volume delta -3"),
            "{svg}"
        );
        assert!(
            svg.contains("link PE1-PE2 (both): volume delta +0"),
            "{svg}"
        );
        let wh = svg
            .split_once(r#"width=""#)
            .and_then(|(_, r)| r.split_once('"'))
            .map(|(w, _)| w.to_string())
            .unwrap_or_default();
        assert!(svg.contains(&format!(r#"viewBox="0 0 {wh} "#)), "{svg}");
        assert_eq!(
            svg,
            delta("A vs B", p.pes, &p.edges, &after, &p.links, &after_links)
        );
    }

    #[test]
    fn delta_heatmap_of_identical_sides_is_all_zero() {
        let p = profile();
        let svg = delta("same", p.pes, &p.edges, &p.edges, &p.links, &p.links);
        assert!(!svg.contains("delta scale"), "{svg}");
        assert!(svg.contains("delta +0"), "{svg}");
    }

    #[test]
    fn div_color_endpoints() {
        assert_eq!(div_color(0, 10), "#ffffff");
        assert_eq!(div_color(10, 10), DIV_POS[4]);
        assert_eq!(div_color(-10, 10), DIV_NEG[4]);
        assert_eq!(div_color(5, 0), "#ffffff");
    }
}
