//! `bench-report` — diffs a chronological sequence of `bench_hotpath`
//! JSON reports into a perf / fingerprint trajectory.
//!
//! ```text
//! bench_report [--max-regression PCT] [--html OUT.html] BENCH_pr1.json BENCH_pr3.json ...
//! ```
//!
//! Prints the timing table (one column per report, first→last speedup)
//! and every finding, then a summary line naming exactly the report
//! files the gate ran over — so a CI log shows *what* was gated, not
//! just whether it passed.  `--html` additionally renders the
//! trajectory as a self-contained sparkline page (validated by
//! `report-check`).  Exit codes: `0` clean, `1` fingerprint drift or a
//! timing regression worse than `PCT` percent between adjacent reports
//! (default 100, i.e. 2x — timings are machine-dependent, so the
//! default only catches catastrophic slowdowns; CI can tighten it),
//! `2` usage/IO error — including an empty or single-file sequence,
//! which has no adjacent pairs and therefore gates nothing.

use ccs_bench::report::trajectory_html;
use ccs_bench::report_diff::{analyze, render, BenchReport};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench_report [--max-regression PCT] [--html OUT.html] <report.json>... (need >= 2)";

fn main() -> ExitCode {
    let mut max_regression_pct = 100.0f64;
    let mut html_out: Option<String> = None;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-regression" => {
                max_regression_pct = match args.next().and_then(|v| v.parse().ok()) {
                    Some(p) => p,
                    None => {
                        eprintln!("--max-regression needs a percentage");
                        return ExitCode::from(2);
                    }
                }
            }
            "--html" => {
                html_out = match args.next() {
                    Some(p) => Some(p),
                    None => {
                        eprintln!("--html needs an output path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            _ => paths.push(a),
        }
    }
    if paths.len() < 2 {
        eprintln!(
            "bench-report: {} report(s) given, nothing to gate",
            paths.len()
        );
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut reports = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-report: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-report: {path}: not JSON: {e}");
                return ExitCode::from(2);
            }
        };
        match BenchReport::parse(path, &value) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("bench-report: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let trajectory = analyze(reports, max_regression_pct);
    print!("{}", render(&trajectory));
    if let Some(out) = &html_out {
        let html = trajectory_html(&trajectory);
        if let Err(e) = std::fs::write(out, &html) {
            eprintln!("bench-report: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        println!("html trajectory written to {out}");
    }
    let gated = paths.join(", ");
    if trajectory.failed() {
        eprintln!(
            "bench-report: FAILED over [{gated}] — {} drift(s), {} regression(s), \
             {} gap growth(s), {} artifact growth(s) (threshold {max_regression_pct}%)",
            trajectory.drifts.len(),
            trajectory.regressions.len(),
            trajectory.gap_growths.len(),
            trajectory.artifact_growths.len()
        );
        ExitCode::FAILURE
    } else {
        println!("bench-report: OK over [{gated}] (threshold {max_regression_pct}%)");
        ExitCode::SUCCESS
    }
}
