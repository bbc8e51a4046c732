//! Document skeleton for the report: the (single, audited) escape
//! helper, the embedded stylesheet, and the outer HTML shell.
//!
//! Everything the report interpolates into content position must pass
//! through [`esc`] — the `escaped-html-output` lint enforces exactly
//! that over this crate, and `report-check` re-verifies the rendered
//! artifact (every `<` opens a whitelisted tag, every `&` a known
//! entity).

pub use ccs_profile::render::esc;

/// The Gantt rules, written once for [`STYLE`] and [`GANTT_STYLE`].
macro_rules! gantt_rules {
    () => {
        "\
svg.gantt .g-cap{font:12px sans-serif;fill:#222}
svg.gantt .g-ax{font:9px monospace;fill:#666}
svg.gantt .g-lbl{font:10px monospace;fill:#fff}
svg.gantt .g-rect{fill:#4a7ab5;stroke:#2c4a70;stroke-width:0.5}
svg.gantt .g-rot{fill:#e07b39;stroke:#8f4a1d;stroke-width:0.5}
svg.gantt .g-grid{stroke:#eee;stroke-width:1}
"
    };
}

/// The Gantt strips' rules: part of [`STYLE`], and carried by every
/// standalone Gantt SVG (`cyclosched schedule --svg FILE`).
pub const GANTT_STYLE: &str = gantt_rules!();

/// The report's embedded stylesheet.  Plain ASCII, no `<` and no `&`,
/// so it survives the `report-check` markup scan untouched.
pub const STYLE: &str = concat!(
    "\
body{font:14px/1.45 system-ui,sans-serif;color:#222;margin:24px;max-width:1100px}
h1{font-size:20px;margin-bottom:4px}
h2{font-size:16px;border-bottom:1px solid #ddd;padding-bottom:4px;margin-top:28px}
h3{font-size:13px;margin:14px 0 4px}
p.meta{color:#555;margin-top:0}
table{border-collapse:collapse;margin:8px 0}
th,td{border:1px solid #ccc;padding:2px 8px;text-align:right;font-variant-numeric:tabular-nums}
th{background:#f3f3f3}
th.l,td.l{text-align:left}
tr.binding td{background:#fff7e0;font-weight:600}
svg{display:block;margin:10px 0}
",
    gantt_rules!(),
    "\
span.accepted{color:#0a7d32;font-weight:600}
span.reverted{color:#b30000;font-weight:600}
pre{background:#f7f7f7;padding:8px;overflow-x:auto;font-size:12px}
details{margin:8px 0}
summary{cursor:pointer;color:#444}
div.cols{display:flex;gap:24px;flex-wrap:wrap;align-items:flex-start}
div.cols div.col{flex:1 1 420px;min-width:0}
tr.diverge td{background:#ffe3e3}
div.grid{display:flex;gap:16px;flex-wrap:wrap;align-items:flex-start}
div.tile{border:1px solid #ccc;border-radius:4px;padding:8px;background:#fafafa}
div.tile p.tile-head{margin:0 0 4px;font:600 12px monospace}
div.tile p.tile-gap{margin:0;font:11px monospace;color:#333;padding:1px 4px}
",
);

/// Wraps the four panel bodies in the self-contained document shell.
///
/// `title` and `meta` are caller text and are escaped here; `sections`
/// are pre-rendered `(id, heading, body)` triples whose bodies must
/// already be fully escaped by their renderers.
pub fn document(title: &str, meta: &str, sections: &[(&str, &str, String)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", esc(title));
    out.push_str("<style>\n");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body>\n");
    let _ = writeln!(out, "<h1>{}</h1>", esc(title));
    let _ = writeln!(out, "<p class=\"meta\">{}</p>", esc(meta));
    for (id, heading, body) in sections {
        let _ = writeln!(out, "<section id=\"{}\">", esc(id));
        let _ = writeln!(out, "<h2>{}</h2>", esc(heading));
        out.push_str(body);
        out.push_str("</section>\n");
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_escapes_title_and_meta() {
        let html = document("<fig1> & friends", "2 < 3", &[]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(html.contains("<title>&lt;fig1&gt; &amp; friends</title>"));
        assert!(html.contains("<p class=\"meta\">2 &lt; 3</p>"));
        assert!(!html.contains("<fig1>"));
    }

    #[test]
    fn style_is_markup_safe() {
        assert!(!STYLE.contains('<'));
        assert!(!STYLE.contains('&'));
        assert!(STYLE.is_ascii());
    }

    #[test]
    fn sections_carry_ids_in_order() {
        let html = document(
            "t",
            "m",
            &[
                ("schedule", "Schedule", "<p>a</p>\n".to_string()),
                ("certificate", "Certificate", "<p>b</p>\n".to_string()),
            ],
        );
        let a = html.find("<section id=\"schedule\">").expect("schedule");
        let b = html
            .find("<section id=\"certificate\">")
            .expect("certificate");
        assert!(a < b);
    }
}
