//! Structural validator for rendered reports, shared by the
//! `report-check` binary and the crate's own tests.
//!
//! The checks are deliberately mechanical — they re-verify the
//! renderer's output contract on the artifact itself, independent of
//! the code that produced it:
//!
//! * document shell: starts with the doctype, ends with `</html>`, and
//!   contains no `<script`;
//! * markup discipline: every `<` opens a whitelisted tag (so any
//!   dynamic text must have gone through the escape helper), and every
//!   `&` starts a known entity;
//! * SVG sanity: each `<svg>` carries `width`/`height` matching its
//!   `viewBox="0 0 W H"` within sane limits;
//! * conservation: on every heatmap marked `data-routable="true"`, the
//!   embedded per-pass ledger total equals the link-load total — the
//!   hop·volume charged to edges is exactly the volume charged to
//!   links;
//! * diff pages: any `data-side="a"`/`"b"` marker implies *both* sides
//!   are present, and each side that shows routable traffic shows at
//!   least one conserved heatmap — a comparison that conserves on one
//!   side only is lying about the other;
//! * grid pages: the legend's `data-grid-cells="N"` must equal the
//!   number of `data-cell`-tagged heatmaps, and cell ids must be
//!   unique — one panel per metered cell, no more, no fewer.
//!
//! [`check_svg`] applies the same markup scan to a standalone SVG
//! export (`--svg` or `--heatmap-svg`), which must additionally declare
//! the SVG namespace to stand alone.

/// Tags the renderer is allowed to emit.  Anything else means raw text
/// leaked around the escape helper.
const TAGS: &[&str] = &[
    "html", "head", "meta", "title", "style", "body", "h1", "h2", "h3", "p", "span", "section",
    "table", "thead", "tbody", "tr", "th", "td", "details", "summary", "pre", "div", "svg", "g",
    "rect", "text", "line", "polyline", "circle",
];

/// Entities the escape helper produces.
const ENTITIES: &[&str] = &["amp;", "lt;", "gt;", "quot;", "#39;"];

/// Maximum sane SVG dimension, in px.
const MAX_DIM: u64 = 100_000;

/// What a successful validation saw, for the binary's summary line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReportFacts {
    /// `<svg>` elements validated.
    pub svgs: usize,
    /// Heatmaps whose ledger/link conservation was checked.
    pub conserved: usize,
    /// `<section>` elements seen.
    pub sections: usize,
    /// `data-cell`-tagged grid heatmaps seen.
    pub grid_cells: usize,
}

/// One scanned `<svg>`'s comparison/grid markers, for the post-scan
/// page-level rules.
struct SvgMarks {
    side: Option<String>,
    cell: Option<String>,
    routable: bool,
    conserved: bool,
    declared_cells: Option<u64>,
}

/// Mutable scan state: the public facts plus the per-svg markers the
/// page-level rules need after the scan.
#[derive(Default)]
struct ScanState {
    facts: ReportFacts,
    marks: Vec<SvgMarks>,
}

fn attr<'a>(tag: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{key}=\"");
    let start = tag.find(&pat)? + pat.len();
    let end = tag[start..].find('"')?;
    Some(&tag[start..start + end])
}

fn check_svg_tag(tag: &str, errors: &mut Vec<String>, state: &mut ScanState) {
    state.facts.svgs += 1;
    let n = state.facts.svgs;
    let mut marks = SvgMarks {
        side: attr(tag, "data-side").map(str::to_string),
        cell: attr(tag, "data-cell").map(str::to_string),
        routable: attr(tag, "data-routable") == Some("true"),
        conserved: false,
        declared_cells: None,
    };
    if let Some(d) = attr(tag, "data-grid-cells") {
        match d.parse::<u64>() {
            Ok(v) => marks.declared_cells = Some(v),
            Err(_) => errors.push(format!("svg #{n}: non-numeric data-grid-cells \"{d}\"")),
        }
    }
    if marks.cell.is_some() {
        state.facts.grid_cells += 1;
    }
    let (Some(w), Some(h), Some(vb)) = (
        attr(tag, "width"),
        attr(tag, "height"),
        attr(tag, "viewBox"),
    ) else {
        errors.push(format!("svg #{n}: missing width/height/viewBox"));
        state.marks.push(marks);
        return;
    };
    let (Ok(wn), Ok(hn)) = (w.parse::<u64>(), h.parse::<u64>()) else {
        errors.push(format!("svg #{n}: non-numeric dimensions {w}x{h}"));
        state.marks.push(marks);
        return;
    };
    if !(1..=MAX_DIM).contains(&wn) || !(1..=MAX_DIM).contains(&hn) {
        errors.push(format!("svg #{n}: insane dimensions {wn}x{hn}"));
    }
    if vb != format!("0 0 {w} {h}") {
        errors.push(format!(
            "svg #{n}: viewBox \"{vb}\" disagrees with width/height {w}x{h}"
        ));
    }
    if marks.routable {
        match (attr(tag, "data-ledger-total"), attr(tag, "data-link-total")) {
            (Some(ledger), Some(link)) => {
                if ledger != link {
                    errors.push(format!(
                        "svg #{n}: conservation violated — ledger total {ledger} != link total {link}"
                    ));
                } else {
                    state.facts.conserved += 1;
                    marks.conserved = true;
                }
            }
            _ => errors.push(format!(
                "svg #{n}: routable heatmap without conservation totals"
            )),
        }
    }
    state.marks.push(marks);
}

fn scan_markup(html: &str, errors: &mut Vec<String>, state: &mut ScanState) {
    let bytes = html.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => {
                let rest = &html[i + 1..];
                let name: String = rest
                    .trim_start_matches('/')
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric())
                    .collect();
                if rest.starts_with("!DOCTYPE") || rest.starts_with("!--") {
                    // the shell's doctype (comments never emitted, but legal)
                } else if name.is_empty() || !TAGS.contains(&name.to_ascii_lowercase().as_str()) {
                    errors.push(format!(
                        "offset {i}: '<' does not open a whitelisted tag (saw {:?})",
                        &rest.chars().take(12).collect::<String>()
                    ));
                } else if name == "svg" && !rest.starts_with('/') {
                    let end = rest.find('>').unwrap_or(rest.len());
                    check_svg_tag(&rest[..end], errors, state);
                } else if name == "section" && !rest.starts_with('/') {
                    state.facts.sections += 1;
                }
                i += 1;
            }
            b'&' => {
                let rest = &html[i + 1..];
                if !ENTITIES.iter().any(|e| rest.starts_with(e)) {
                    errors.push(format!(
                        "offset {i}: '&' does not start a known entity (saw {:?})",
                        &rest.chars().take(8).collect::<String>()
                    ));
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Diff-page rule: `data-side` markers come in pairs.  If either side
/// appears, both must, and every side showing routable traffic must
/// show at least one conserved heatmap.
fn check_sides(state: &ScanState, errors: &mut Vec<String>) {
    let with_side = |s: &'static str| {
        state
            .marks
            .iter()
            .filter(move |m| m.side.as_deref() == Some(s))
    };
    let (seen_a, seen_b) = (with_side("a").count(), with_side("b").count());
    if seen_a + seen_b == 0 {
        return;
    }
    if seen_a == 0 || seen_b == 0 {
        errors.push(format!(
            "diff page shows only one side (a: {seen_a} svg(s), b: {seen_b} svg(s))"
        ));
    }
    for side in ["a", "b"] {
        let routable = with_side(side).filter(|m| m.routable).count();
        let conserved = with_side(side).filter(|m| m.conserved).count();
        if routable > 0 && conserved == 0 {
            errors.push(format!(
                "diff page side {side}: {routable} routable heatmap(s), none conserved"
            ));
        }
    }
}

/// Grid-page rule: the legend's declared cell count equals the number
/// of `data-cell` heatmaps, and cell ids are unique.
fn check_grid(state: &ScanState, errors: &mut Vec<String>) {
    let declared: Vec<u64> = state
        .marks
        .iter()
        .filter_map(|m| m.declared_cells)
        .collect();
    let mut cells: Vec<&str> = state
        .marks
        .iter()
        .filter_map(|m| m.cell.as_deref())
        .collect();
    match declared.as_slice() {
        [] => {
            if !cells.is_empty() {
                errors.push(format!(
                    "{} data-cell heatmap(s) but no legend declares data-grid-cells",
                    cells.len()
                ));
            }
        }
        [n] => {
            if *n != cells.len() as u64 {
                errors.push(format!(
                    "grid legend declares {n} cell(s) but the page has {} data-cell heatmap(s)",
                    cells.len()
                ));
            }
        }
        more => errors.push(format!(
            "{} svgs declare data-grid-cells; expected exactly one legend",
            more.len()
        )),
    }
    cells.sort_unstable();
    for pair in cells.windows(2) {
        if pair[0] == pair[1] {
            errors.push(format!("duplicate grid cell id \"{}\"", pair[0]));
        }
    }
}

/// Validates one rendered report.  Returns the facts on success, or
/// every violation found (never just the first) on failure.
pub fn check_html(html: &str) -> Result<ReportFacts, Vec<String>> {
    let mut errors = Vec::new();
    let mut state = ScanState::default();
    if !html.starts_with("<!DOCTYPE html>") {
        errors.push("document does not start with <!DOCTYPE html>".to_string());
    }
    if !html.trim_end().ends_with("</html>") {
        errors.push("document does not end with </html>".to_string());
    }
    if html.to_ascii_lowercase().contains("<script") {
        errors.push("document contains a <script> tag".to_string());
    }
    scan_markup(html, &mut errors, &mut state);
    check_sides(&state, &mut errors);
    check_grid(&state, &mut errors);
    if errors.is_empty() {
        Ok(state.facts)
    } else {
        Err(errors)
    }
}

/// Validates a standalone SVG export (`--svg FILE` or
/// `--heatmap-svg FILE`): same markup/escaping/conservation scan as
/// embedded SVGs, plus the standalone shell requirements — opens with
/// `<svg`, declares the SVG namespace, closes with `</svg>`, and
/// contains no scripts.
pub fn check_svg(svg: &str) -> Result<ReportFacts, Vec<String>> {
    let mut errors = Vec::new();
    let mut state = ScanState::default();
    if !svg.starts_with("<svg") {
        errors.push("file does not start with <svg".to_string());
    }
    if !svg.trim_end().ends_with("</svg>") {
        errors.push("file does not end with </svg>".to_string());
    }
    let open = svg.split('>').next().unwrap_or("");
    if attr(open, "xmlns") != Some("http://www.w3.org/2000/svg") {
        errors.push("standalone svg does not declare the SVG namespace".to_string());
    }
    if svg.to_ascii_lowercase().contains("<script") {
        errors.push("svg contains a <script> tag".to_string());
    }
    scan_markup(svg, &mut errors, &mut state);
    if errors.is_empty() {
        Ok(state.facts)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell(body: &str) -> String {
        format!("<!DOCTYPE html>\n<html lang=\"en\"><body>{body}</body></html>\n")
    }

    #[test]
    fn a_clean_document_passes() {
        let facts = check_html(&shell(
            "<section id=\"a\"><p>2 &lt; 3 &amp; 4 &gt; 1 &quot;x&quot; &#39;y&#39;</p></section>",
        ))
        .expect("valid");
        assert_eq!(facts.sections, 1);
        assert_eq!(facts.svgs, 0);
    }

    #[test]
    fn unescaped_angle_bracket_is_caught() {
        let errs = check_html(&shell("<p>a <bogus> b</p>")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("whitelisted")), "{errs:?}");
    }

    #[test]
    fn bare_ampersand_is_caught() {
        let errs = check_html(&shell("<p>hops &amp volume</p>")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("entity")), "{errs:?}");
    }

    #[test]
    fn script_tags_are_banned() {
        let errs = check_html(&shell("<p>x</p><SCRIPT>alert(1)</SCRIPT>")).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("script")), "{errs:?}");
    }

    #[test]
    fn svg_viewbox_mismatch_is_caught() {
        let errs = check_html(&shell(
            "<svg width=\"10\" height=\"10\" viewBox=\"0 0 10 11\"></svg>",
        ))
        .expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("viewBox")), "{errs:?}");
    }

    #[test]
    fn conservation_mismatch_is_caught() {
        let bad = "<svg width=\"10\" height=\"10\" viewBox=\"0 0 10 10\" \
                   data-routable=\"true\" data-ledger-total=\"6\" data-link-total=\"5\"></svg>";
        let errs = check_html(&shell(bad)).expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("conservation")), "{errs:?}");
        let good = bad.replace("data-link-total=\"5\"", "data-link-total=\"6\"");
        let facts = check_html(&shell(&good)).expect("valid");
        assert_eq!(facts.conserved, 1);
    }

    #[test]
    fn missing_doctype_and_tail_are_caught() {
        let errs = check_html("<html><body></body>").expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("DOCTYPE")));
        assert!(errs.iter().any(|e| e.contains("</html>")));
    }

    #[test]
    fn insane_svg_dimensions_are_caught() {
        let errs = check_html(&shell(
            "<svg width=\"200000\" height=\"10\" viewBox=\"0 0 200000 10\"></svg>",
        ))
        .expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("insane")), "{errs:?}");
    }

    fn side_svg(side: &str, routable: bool, conserved: bool) -> String {
        let totals = if routable {
            let link = if conserved { 6 } else { 5 };
            format!(" data-ledger-total=\"6\" data-link-total=\"{link}\"")
        } else {
            String::new()
        };
        format!(
            "<svg width=\"10\" height=\"10\" viewBox=\"0 0 10 10\" data-side=\"{side}\" \
             data-routable=\"{routable}\"{totals}></svg>"
        )
    }

    #[test]
    fn diff_pages_need_both_sides() {
        let one = shell(&side_svg("a", true, true));
        let errs = check_html(&one).expect_err("one-sided diff");
        assert!(errs.iter().any(|e| e.contains("only one side")), "{errs:?}");
        let both = shell(&format!(
            "{}{}",
            side_svg("a", true, true),
            side_svg("b", true, true)
        ));
        check_html(&both).expect("two-sided diff passes");
    }

    #[test]
    fn diff_pages_need_conservation_on_each_routable_side() {
        // Side b is routable but its heatmap does not conserve: the
        // per-svg conservation error fires AND the side-level rule.
        let page = shell(&format!(
            "{}{}",
            side_svg("a", true, true),
            side_svg("b", true, false)
        ));
        let errs = check_html(&page).expect_err("unconserved side");
        assert!(errs.iter().any(|e| e.contains("side b")), "{errs:?}");
        // A non-routable side (ideal machine) needs no conservation.
        let page = shell(&format!(
            "{}{}",
            side_svg("a", true, true),
            side_svg("b", false, false)
        ));
        check_html(&page).expect("non-routable side is fine");
    }

    fn cell_svg(cell: &str) -> String {
        format!("<svg width=\"10\" height=\"10\" viewBox=\"0 0 10 10\" data-cell=\"{cell}\"></svg>")
    }

    #[test]
    fn grid_pages_count_cells_against_the_legend() {
        let legend =
            "<svg width=\"10\" height=\"10\" viewBox=\"0 0 10 10\" data-grid-cells=\"2\"></svg>";
        let good = shell(&format!(
            "{legend}{}{}",
            cell_svg("w/m/0"),
            cell_svg("w/m/1")
        ));
        let facts = check_html(&good).expect("grid passes");
        assert_eq!(facts.grid_cells, 2);
        let short = shell(&format!("{legend}{}", cell_svg("w/m/0")));
        let errs = check_html(&short).expect_err("missing cell");
        assert!(errs.iter().any(|e| e.contains("declares 2")), "{errs:?}");
        let orphan = shell(&cell_svg("w/m/0"));
        let errs = check_html(&orphan).expect_err("no legend");
        assert!(errs.iter().any(|e| e.contains("no legend")), "{errs:?}");
    }

    #[test]
    fn duplicate_grid_cell_ids_are_caught() {
        let legend =
            "<svg width=\"10\" height=\"10\" viewBox=\"0 0 10 10\" data-grid-cells=\"2\"></svg>";
        let page = shell(&format!(
            "{legend}{}{}",
            cell_svg("w/m/0"),
            cell_svg("w/m/0")
        ));
        let errs = check_html(&page).expect_err("duplicate cells");
        assert!(errs.iter().any(|e| e.contains("duplicate")), "{errs:?}");
    }

    #[test]
    fn standalone_svg_is_validated() {
        let good = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"10\" height=\"10\" \
                    viewBox=\"0 0 10 10\"><text x=\"1\" y=\"1\">2 &lt; 3</text></svg>\n";
        let facts = check_svg(good).expect("valid standalone svg");
        assert_eq!(facts.svgs, 1);
        let errs = check_svg(&good.replace(" xmlns=\"http://www.w3.org/2000/svg\"", ""))
            .expect_err("missing namespace");
        assert!(errs.iter().any(|e| e.contains("namespace")), "{errs:?}");
        let errs = check_svg("<p>not an svg</p>").expect_err("not svg");
        assert!(errs.iter().any(|e| e.contains("start with")), "{errs:?}");
        let errs = check_svg(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"10\" height=\"10\" \
             viewBox=\"0 0 10 10\">a &bogus b</svg>",
        )
        .expect_err("bad entity");
        assert!(errs.iter().any(|e| e.contains("entity")), "{errs:?}");
    }
}
