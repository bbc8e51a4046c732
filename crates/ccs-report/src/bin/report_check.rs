//! `report-check` — validates an HTML report produced by
//! `cyclosched schedule --report` (or `--report-diff`, or a sweep's
//! `--report` grid page), and standalone SVG exports (the Gantt of
//! `--svg`, the heatmap of `--heatmap-svg`).
//!
//! ```text
//! report-check report.html
//! report-check --svg gantt.svg
//! ```
//!
//! Re-verifies the renderer's output contract on the artifact itself
//! (see [`ccs_report::check`]): document shell, escaping discipline
//! (every `<` opens a whitelisted tag, every `&` a known entity, no
//! `<script>`), SVG viewBox sanity, ledger/link conservation on every
//! routable heatmap, both-sides conservation on diff pages, and
//! one-heatmap-per-cell on grid pages.  With `--svg` the same
//! scan runs against a standalone SVG export, which must additionally
//! declare the SVG namespace.  Exit codes: `0` valid, `1` invalid,
//! `2` usage/IO error.  CI runs this on every artifact uploaded by the
//! report job.

use ccs_report::check::{check_html, check_svg, ReportFacts};
use std::process::ExitCode;

const USAGE: &str = "usage: report-check <report.html>\n       report-check --svg <file.svg>";

fn report(path: &str, what: &str, outcome: Result<ReportFacts, Vec<String>>) -> ExitCode {
    match outcome {
        Ok(facts) => {
            println!(
                "{path}: OK — {what}: {} section(s), {} svg(s), {} conservation check(s), \
                 {} grid cell(s)",
                facts.sections, facts.svgs, facts.conserved, facts.grid_cells
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("{path}: INVALID — {e}");
            }
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (svg_mode, path) = match args.as_slice() {
        [p] if p != "--help" && p != "-h" && !p.starts_with("--") => (false, p.clone()),
        [flag, p] if flag == "--svg" => (true, p.clone()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("report-check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if svg_mode {
        report(&path, "standalone svg", check_svg(&text))
    } else {
        report(&path, "report", check_html(&text))
    }
}
