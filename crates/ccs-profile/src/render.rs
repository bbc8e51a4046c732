//! Renderers for a [`CommProfile`](crate::CommProfile).
//!
//! [`heatmap`] draws the PE-to-PE hop-weighted traffic matrix plus a
//! per-link load bar chart — a terminal-native view of which parts of
//! the fabric the schedule actually stresses.  [`heatmap_panel`] is
//! the rich equivalent and the one SVG heatmap writer: it appends the
//! same matrix and link bars to the caller's buffer, drawing only the
//! PEs, cells and links that carry traffic — or, in signed mode, that
//! shifted from a baseline ledger.  The `ccs-report` pages embed it per
//! phase, per diff-page side and delta, and per sweep-grid cell;
//! [`heatmap_svg`] wraps it as the standalone file `cyclosched schedule
//! --heatmap-svg` writes.  Pure functions of their inputs, so the
//! output is as deterministic as the profile itself.
//!
//! Everything interpolated into SVG/HTML text content goes through
//! [`esc`] — the one audited escape helper (the `escaped-html-output`
//! repo lint enforces this for every markup renderer in the workspace's
//! report path).  It is a formatting adaptor: it escapes while its
//! argument formats, so `esc(format_args!(…))` writes a matrix cell's
//! title straight into the page without an intermediate `String`.

use crate::{diff_ledgers, one_sided_edges, CommProfile, EdgeTraffic, LinkLoad};
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

/// Diverging ramp for signed shifts: index 0 is zero, higher indices
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

/// One side of a heatmap: an edge ledger and the link loads it puts on
/// the machine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic<'a> {
    /// The per-edge ledger.
    pub edges: &'a [EdgeTraffic],
    /// Load per physical link, as [`crate::link_loads`] charges it.
    pub links: &'a [LinkLoad],
}

impl CommProfile {
    /// The final best schedule's ledger and link loads.
    pub fn traffic(&self) -> Traffic<'_> {
        Traffic {
            edges: &self.edges,
            links: &self.links,
        }
    }
}

/// Rendering options of [`heatmap_panel`], the one heatmap writer
/// behind the embedded, standalone, diff-page, and sweep-grid panels.
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
    /// Signed mode: draw the shift from this baseline to the panel's
    /// traffic on the diverging ramp, instead of the traffic itself.
    pub baseline: Option<Traffic<'a>>,
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
        let (cell, left, top, bar_w, row_h, min_w) = if mini {
            (10, 34, 28, 110, 12, 220)
        } else {
            (18, 48, 40, 240, 16, 360)
        };
        PanelGeometry {
            cell,
            left,
            top,
            bar_w,
            row_h,
            min_w,
        }
    }
}

/// Sums signed values by key, in key order; zero sums are kept.
fn net<K: Ord + Copy>(mut rows: Vec<(K, i64)>) -> Vec<(K, i64)> {
    rows.sort_unstable_by_key(|r| r.0);
    let mut out: Vec<(K, i64)> = Vec::with_capacity(rows.len());
    for (k, v) in rows {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = last.1.saturating_add(v),
            _ => out.push((k, v)),
        }
    }
    out
}

/// Appends one heatmap to `out` as an SVG: the PE-to-PE hop-weighted
/// crossing-cost matrix (rows = source PE, columns = destination PE)
/// plus one bar per physical link.  This one writer draws every
/// heatmap — the report's phase panels, the standalone `--heatmap-svg`
/// file, the diff page's sides and delta, the sweep grid's tiles;
/// [`PanelOptions`] sets which.
///
/// A panel costs O(traffic), not O(PEs² + links): the matrix spans
/// only the PEs its non-zero cells name, only those cells get a
/// `<rect>` (over one backdrop), and only links with non-zero load get
/// a bar, with one legend line counting the rest.  With
/// [`PanelOptions::baseline`] every value is the signed shift from the
/// baseline instead: the cells come from the rows [`diff_ledgers`] and
/// [`one_sided_edges`] report, the links are matched by endpoints.
///
/// The `<svg>` element carries machine-readable conservation data of
/// the *full* `traffic`, never of what is drawn: `data-ledger-total`
/// (Σ hop·volume over crossing ledger rows) and `data-link-total`
/// (Σ volume charged to links).  When [`PanelOptions::routable`] holds
/// the two are equal by construction — `report-check` verifies exactly
/// that invariant on every embedded heatmap.
pub fn heatmap_panel(
    out: &mut String,
    caption: &str,
    traffic: Traffic<'_>,
    opts: PanelOptions<'_>,
) {
    let PanelOptions {
        routable,
        standalone,
        side,
        cell,
        mini,
        baseline,
    } = opts;
    let geo = PanelGeometry::of(mini);
    let ledger_total: u64 = traffic
        .edges
        .iter()
        .filter(|e| e.crossing())
        .map(|e| e.cost())
        .fold(0u64, u64::saturating_add);
    let link_total: u64 = traffic
        .links
        .iter()
        .map(|l| l.volume)
        .fold(0u64, u64::saturating_add);

    // Cells keyed by (src PE, dst PE), links by endpoints, each value
    // with its sign; link rows also keep their message count.
    let val = |x: u64, sign: i64| sign * i64::try_from(x).unwrap_or(i64::MAX);
    let charge = |(e, sign): (&EdgeTraffic, i64)| {
        e.crossing()
            .then(|| ((e.src_pe, e.dst_pe), val(e.cost(), sign)))
    };
    let (cells, links): (Vec<_>, Vec<_>) = match baseline {
        None => (
            traffic
                .edges
                .iter()
                .map(|e| (e, 1))
                .filter_map(charge)
                .collect(),
            traffic
                .links
                .iter()
                .map(|l| ((l.a, l.b), val(l.volume, 1), l.messages))
                .collect(),
        ),
        Some(base) => {
            let moved = diff_ledgers(base.edges, traffic.edges);
            let (gone, new) = one_sided_edges(base.edges, traffic.edges);
            let before = moved.iter().map(|d| &d.before).chain(&gone);
            let after = moved.iter().map(|d| &d.after).chain(&new);
            let before = before.map(|e| (e, -1));
            let volumes = base.links.iter().map(|l| (l, -1));
            let volumes = volumes.chain(traffic.links.iter().map(|l| (l, 1)));
            let shifts = net(volumes
                .map(|(l, s)| ((l.a, l.b), val(l.volume, s)))
                .collect());
            (
                before
                    .chain(after.map(|e| (e, 1)))
                    .filter_map(charge)
                    .collect(),
                shifts.into_iter().map(|(k, v)| (k, v, 0)).collect(),
            )
        }
    };
    let mut cells = net(cells);
    cells.retain(|c| c.1 != 0);
    let bars: Vec<&((u32, u32), i64, u64)> = links.iter().filter(|l| l.1 != 0).collect();

    // Matrix axis: the sorted PEs the drawn cells name.
    let mut axis: Vec<u32> = cells.iter().flat_map(|&((s, d), _)| [s, d]).collect();
    axis.sort_unstable();
    axis.dedup();
    let at = |pe: u32| u32::try_from(axis.partition_point(|&p| p < pe)).unwrap_or(0);
    let n = u32::try_from(axis.len()).unwrap_or(0);
    let signed = baseline.is_some();
    let color = |v: i64, max: u64| {
        if signed {
            div_color(v, max)
        } else {
            heat_color(v.unsigned_abs(), max)
        }
    };
    let cell_max = cells.iter().map(|c| c.1.unsigned_abs()).max().unwrap_or(0);
    let link_max = bars.iter().map(|l| l.1.unsigned_abs()).max().unwrap_or(0);
    let quiet = links.len() - bars.len();
    let note = (quiet > 0).then(|| {
        let what = if signed { "unchanged" } else { "carry no load" };
        format!("{quiet} of {} link(s) {what}", links.len())
    });

    let (gc, gl, gt, gb, gr) = (geo.cell, geo.left, geo.top, geo.bar_w, geo.row_h);
    let matrix_h = n * gc;
    let links_top = gt + matrix_h + 24;
    let rows = u32::try_from(bars.len() + usize::from(note.is_some())).unwrap_or(0);
    let width = (gl + n * gc + 24).max(gl + 64 + gb + 72).max(geo.min_w);
    let height = links_top + rows * gr + 16;

    let xmlns = if standalone {
        r#" xmlns="http://www.w3.org/2000/svg""#
    } else {
        ""
    };
    let class = match (signed, mini) {
        (true, _) => "heatmap delta",
        (false, true) => "heatmap mini",
        (false, false) => "heatmap",
    };
    let _ = write!(
        out,
        r#"<svg{xmlns} class="{class}" width="{width}" height="{height}" viewBox="0 0 {width} {height}" data-pes="{n}""#
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
    let _ = write!(out, r#"  <text class="hm-t" x="4" y="15">{}"#, esc(caption));
    if signed {
        let _ = write!(
            out,
            "{}",
            esc(format_args!(
                " — {} cell(s), {} link(s) changed",
                cells.len(),
                bars.len()
            ))
        );
    }
    out.push_str("</text>\n");

    // Matrix: one backdrop, column and row labels naming the real PEs,
    // and one rect per non-zero cell with a hover title naming the
    // (src, dst) pair and its value.
    if n > 0 {
        let _ = writeln!(
            out,
            r##"  <rect class="hm-c" x="{gl}" y="{gt}" width="{matrix_h}" height="{matrix_h}" fill="#ffffff"/>"##
        );
    }
    for (i, pe) in (0u32..).zip(&axis) {
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{x}" y="{y}" text-anchor="middle">{}</text>"#,
            esc(pe + 1),
            x = gl + i * gc + gc / 2,
            y = gt - 4
        );
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{x}" y="{y}" text-anchor="end">{}</text>"#,
            esc(format_args!("PE{}", pe + 1)),
            x = gl - 4,
            y = gt + i * gc + gc / 2 + 4
        );
    }
    for &((s, d), v) in &cells {
        let (what, shown) = if signed {
            ("delta", format!("{v:+}"))
        } else {
            ("cost", v.to_string())
        };
        let _ = writeln!(
            out,
            r#"  <rect class="hm-c" x="{x}" y="{y}" width="{gc}" height="{gc}" fill="{fill}"><title>{}</title></rect>"#,
            esc(format_args!("PE{} -> PE{}: {what} {shown}", s + 1, d + 1)),
            x = gl + at(d) * gc,
            y = gt + at(s) * gc,
            fill = color(v, cell_max)
        );
    }
    if cell_max > 0 {
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{gl}" y="{y}">{}</text>"#,
            esc(if signed {
                format!("delta scale: -{cell_max} .. +{cell_max}")
            } else {
                format!("matrix scale: 0 .. {cell_max}")
            }),
            y = gt + matrix_h + 14
        );
    }

    // Link bars, scaled to the largest drawn value, after the legend
    // line that counts the links left out.
    if let Some(note) = &note {
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{gl}" y="{y}">{}</text>"#,
            esc(note),
            y = links_top + 11
        );
    }
    let first = u32::from(note.is_some());
    for (i, &&((a, b), v, messages)) in (first..).zip(&bars) {
        let y = links_top + i * gr;
        let w = v.unsigned_abs().saturating_mul(u64::from(gb)) / link_max;
        let (title, label) = if signed {
            (format!("volume delta {v:+}"), format!("{v:+}"))
        } else {
            (format!("volume {v}, {messages} message(s)"), v.to_string())
        };
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{gl}" y="{ty}" text-anchor="end">{}</text>"#,
            esc(format_args!("PE{}-PE{}", a + 1, b + 1)),
            ty = y + 11
        );
        let _ = writeln!(
            out,
            r#"  <rect x="{bx}" y="{ry}" width="{bw}" height="{bh}" fill="{fill}"><title>{}</title></rect>"#,
            esc(format_args!("link PE{}-PE{}: {title}", a + 1, b + 1)),
            bx = gl + 8,
            ry = y + 3,
            bw = u32::try_from(w).unwrap_or(gb).clamp(2, gb),
            bh = gr.saturating_sub(6).max(4),
            fill = color(v, link_max)
        );
        let _ = writeln!(
            out,
            r#"  <text class="hm-s" x="{tx}" y="{ty}">{}</text>"#,
            esc(label),
            tx = gl + 8 + gb + 8,
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
        p.traffic(),
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
            floor: 3,
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
            ..CommProfile::default()
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

    /// [`heatmap_panel`] of `p`'s final traffic into a fresh buffer.
    fn panel(caption: &str, p: &CommProfile, opts: PanelOptions<'_>) -> String {
        let mut out = String::new();
        heatmap_panel(&mut out, caption, p.traffic(), opts);
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

    /// `profile()` on a longer line: a second crossing edge of cost 0
    /// and two idle links, so the panel has something to leave out.
    fn sparse_profile() -> CommProfile {
        let mut p = profile();
        p.pes = 5;
        p.edges.push(EdgeTraffic {
            edge: 2,
            src: 2,
            dst: 0,
            src_pe: 3,
            dst_pe: 4,
            hops: 0,
            volume: 7,
        });
        for a in 2..4 {
            p.links.push(LinkLoad {
                a,
                b: a + 1,
                volume: 0,
                messages: 0,
            });
        }
        p
    }

    #[test]
    fn panel_draws_only_nonzero_cells_and_loaded_links() {
        let svg = panel("cap", &sparse_profile(), PanelOptions::default());
        // One cell (PE1 -> PE3) over one backdrop; the matrix spans
        // PE1 and PE3 only, labelled with their real numbers.
        assert_eq!(svg.matches("<rect class=\"hm-c\"").count(), 2, "{svg}");
        assert!(svg.contains("PE1 -&gt; PE3: cost 6"), "{svg}");
        assert!(svg.contains(r#"data-pes="2""#), "{svg}");
        assert!(svg.contains(">PE3</text>"), "{svg}");
        assert!(!svg.contains(">PE2</text>"), "{svg}");
        assert!(!svg.contains("cost 0"), "{svg}");
        // Two loaded links drawn, the two idle ones counted instead.
        assert_eq!(svg.matches("<title>link ").count(), 2, "{svg}");
        assert!(!svg.contains("volume 0"), "{svg}");
        assert!(svg.contains("2 of 4 link(s) carry no load"), "{svg}");
        assert!(!panel("cap", &profile(), PanelOptions::default()).contains("carry no load"));
    }

    #[test]
    fn panel_totals_come_from_the_full_traffic() {
        let mut p = sparse_profile();
        // An idle link with volume still counts into the link total,
        // and a crossing edge of cost 0 into nothing.
        p.links[3].volume = 5;
        let svg = panel("cap", &p, PanelOptions::default());
        assert!(svg.contains(r#"data-ledger-total="6""#), "{svg}");
        assert!(svg.contains(r#"data-link-total="11""#), "{svg}");
        // A signed panel carries its own traffic's totals, not the shift's.
        let base = profile();
        let svg = panel(
            "pass 2",
            &p,
            PanelOptions {
                routable: true,
                baseline: Some(base.traffic()),
                ..PanelOptions::default()
            },
        );
        assert!(svg.contains(r#"data-ledger-total="6""#), "{svg}");
        assert!(svg.contains(r#"data-link-total="11""#), "{svg}");
        assert!(svg.contains(r#"data-routable="true""#), "{svg}");
    }

    #[test]
    fn signed_panel_draws_only_the_shifts() {
        let p = profile();
        let mut after = p.clone();
        // The crossing edge now lands one hop closer: cost 6 -> 3, and
        // link PE2-PE3 goes idle.
        after.edges[0].dst_pe = 1;
        after.edges[0].hops = 1;
        after.links[1].volume = 0;
        let opts = PanelOptions {
            baseline: Some(p.traffic()),
            side: Some("delta"),
            ..PanelOptions::default()
        };
        let svg = panel("A vs B", &after, opts);
        assert!(svg.starts_with("<svg class=\"heatmap delta\""), "{svg}");
        assert!(svg.contains(r#"data-side="delta""#), "{svg}");
        // PE1->PE3 loses its 6, PE1->PE2 gains 3; both cells named.
        assert!(svg.contains("PE1 -&gt; PE3: delta -6"), "{svg}");
        assert!(svg.contains("PE1 -&gt; PE2: delta +3"), "{svg}");
        assert!(
            svg.contains("A vs B — 2 cell(s), 1 link(s) changed"),
            "{svg}"
        );
        assert!(svg.contains("delta scale: -6 .. +6"), "{svg}");
        // Only the link that moved gets a bar; the other is counted.
        assert!(svg.contains("link PE2-PE3: volume delta -3"), "{svg}");
        assert!(!svg.contains("link PE1-PE2"), "{svg}");
        assert!(svg.contains("1 of 2 link(s) unchanged"), "{svg}");
        let wh = svg
            .split_once(r#"width=""#)
            .and_then(|(_, r)| r.split_once('"'))
            .map(|(w, _)| w.to_string())
            .unwrap_or_default();
        assert!(svg.contains(&format!(r#"viewBox="0 0 {wh} "#)), "{svg}");
        assert_eq!(svg, panel("A vs B", &after, opts));
    }

    #[test]
    fn signed_panel_of_identical_sides_is_empty_not_missing() {
        let p = profile();
        let svg = panel(
            "same",
            &p,
            PanelOptions {
                baseline: Some(p.traffic()),
                ..PanelOptions::default()
            },
        );
        assert!(svg.contains("same — 0 cell(s), 0 link(s) changed"), "{svg}");
        assert!(svg.contains(r#"data-pes="0""#), "{svg}");
        assert!(!svg.contains("<rect"), "{svg}");
        assert!(!svg.contains("delta scale"), "{svg}");
        assert!(svg.contains("2 of 2 link(s) unchanged"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
    }

    #[test]
    fn signed_cells_charge_one_sided_edges() {
        // An edge only the baseline has is charged as removed, one only
        // the panel's ledger has as added, exactly as `one_sided_edges`
        // lists them.
        let p = profile();
        let mut after = p.clone();
        after.edges[0].edge = 9;
        let svg = panel(
            "lone",
            &after,
            PanelOptions {
                baseline: Some(p.traffic()),
                ..PanelOptions::default()
            },
        );
        // -6 and +6 on the same cell cancel: nothing shifted there.
        assert!(svg.contains("lone — 0 cell(s)"), "{svg}");
        after.edges[0].dst_pe = 1;
        after.edges[0].hops = 1;
        let svg = panel(
            "lone",
            &after,
            PanelOptions {
                baseline: Some(p.traffic()),
                ..PanelOptions::default()
            },
        );
        assert!(svg.contains("PE1 -&gt; PE3: delta -6"), "{svg}");
        assert!(svg.contains("PE1 -&gt; PE2: delta +3"), "{svg}");
    }

    #[test]
    fn div_color_endpoints() {
        assert_eq!(div_color(0, 10), "#ffffff");
        assert_eq!(div_color(10, 10), DIV_POS[4]);
        assert_eq!(div_color(-10, 10), DIV_NEG[4]);
        assert_eq!(div_color(5, 0), "#ffffff");
    }
}
