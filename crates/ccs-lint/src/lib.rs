//! Token-stream static analysis for the workspace.
//!
//! The crate has three layers:
//!
//! 1. [`lexer`] — a std-only Rust lexer producing a complete tiling of
//!    classified byte spans (code, comments, strings, …).  It handles
//!    the constructs that defeat line heuristics: raw strings at any
//!    hash depth, nested block comments, char-literal vs. lifetime
//!    disambiguation, byte/C-string prefixes, raw identifiers.
//! 2. [`view`] — per-file views derived from the token stream: three
//!    parallel line grids (code / comment / string text, column-
//!    aligned with the original) plus token-level structural masks
//!    (`#[cfg(test)]` items, named `fn` bodies, probe guards).
//! 3. [`rules`] and [`drift`] — the rule catalogue.  Per-file rules
//!    enforce the repo's determinism and hygiene contracts; drift
//!    passes parse declarations and cross-check producer and consumer
//!    layers of the pipeline (trace events vs. folds, diagnostic codes
//!    vs. the DESIGN.md catalogue, BENCH sections vs. the trajectory
//!    gate).
//!
//! The driver is `cargo xtask lint` (human output) and
//! `cargo xtask lint --json` (machine output via [`json::emit`], used
//! by CI to archive findings).  Every rule has a stable id and, where
//! a site can be legitimate, a named justification escape that must
//! appear **in a comment** (the lexer guarantees a tag inside a string
//! literal does not count).
//!
//! The crate deliberately has no dependencies and never panics on
//! malformed input: lint tooling that fails open (or crashes on the
//! code it should flag) is worse than none.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod view;

use std::fmt;
use std::path::{Path, PathBuf};

/// How many lines above a flagged site a justification comment may
/// live (inclusive), in addition to the site's own line.
pub const JUSTIFICATION_WINDOW: usize = 4;

/// One lint finding, anchored to a file and 1-based line (line 0 means
/// the finding is about the file as a whole).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number; 0 for whole-file findings.
    pub line: usize,
    /// Stable rule id (one of the [`RULES`] ids).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Catalogue metadata for one rule: its stable id, the justification
/// escape accepted in comments (if any), and a one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, as it appears in findings.
    pub id: &'static str,
    /// The comment tag that waives a site, if the rule has one.
    pub escape: Option<&'static str>,
    /// One-line summary of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the engine can report, in catalogue order.  The JSON
/// emitter publishes this table so downstream tooling can map ids to
/// escapes without parsing DESIGN.md.
pub const RULES: [RuleInfo; 14] = [
    RuleInfo {
        id: rules::RULE_UNWRAP,
        escape: Some("INVARIANT:"),
        summary: "no unchecked .unwrap()/.expect( in scheduler library code",
    },
    RuleInfo {
        id: rules::RULE_CAST,
        escape: None,
        summary: "no truncating `as` casts in the remap hot path",
    },
    RuleInfo {
        id: rules::RULE_HEADER,
        escape: None,
        summary: "crate roots declare #![warn(missing_docs)] and #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: rules::RULE_PRINT,
        escape: None,
        summary: "no stdio print macros in library code",
    },
    RuleInfo {
        id: rules::RULE_PROBE,
        escape: None,
        summary: "probe.emit( sites sit inside an `if P::ACTIVE` guard",
    },
    RuleInfo {
        id: rules::RULE_HOT_ASSERT,
        escape: None,
        summary: "no panicking assert macros inside hot-path functions",
    },
    RuleInfo {
        id: rules::RULE_UNORDERED,
        escape: Some("ORDERED:"),
        summary: "no HashMap/HashSet in library code (iteration order leaks)",
    },
    RuleInfo {
        id: rules::RULE_ESCAPED,
        escape: Some("ESCAPED:"),
        summary: "HTML/SVG interpolation routes through the esc( helper",
    },
    RuleInfo {
        id: rules::RULE_CLOCK,
        escape: Some("CLOCK:"),
        summary: "no Instant::now/SystemTime::now in library code",
    },
    RuleInfo {
        id: rules::RULE_ENV,
        escape: Some("ENV:"),
        summary: "no environment reads in library code",
    },
    RuleInfo {
        id: rules::RULE_IDENTITY,
        escape: Some("IDENTITY:"),
        summary: "no process/thread/host identity reads in library code",
    },
    RuleInfo {
        id: drift::RULE_EVENT,
        escape: Some("EVENT-IGNORED:"),
        summary: "every trace Event variant is handled or waived by each fold",
    },
    RuleInfo {
        id: drift::RULE_DIAG,
        escape: None,
        summary: "every CCS diagnostic code appears in the DESIGN.md catalogue",
    },
    RuleInfo {
        id: drift::RULE_BENCH,
        escape: None,
        summary: "every BENCH section has a gated/ungated decision in report_diff",
    },
];

/// The result of linting a workspace: what was scanned and what was
/// found, findings sorted by `(file, line, rule)` for stable output.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted.
    pub findings: Vec<Finding>,
}

/// Lints in-memory sources: runs the per-file rules over every file
/// and the drift passes over the set.  `files` holds repo-relative
/// paths (with `/` separators) and contents; `design_md` is the text
/// of `DESIGN.md` for the diagnostic-catalogue pass.
///
/// Pure function — the workspace walk lives in [`run`], so tests can
/// feed fixture trees.
pub fn lint_files(files: &[(String, String)], design_md: &str) -> Report {
    let mut findings = Vec::new();
    for (rel, text) in files {
        findings.extend(rules::lint_source(rel, text));
    }
    findings.extend(drift::drift_passes(files, design_md));
    findings.sort();
    Report {
        files_scanned: files.len(),
        findings,
    }
}

/// Collects every `.rs` file under `root`'s `crates/` and `src/`
/// trees (skipping `target/` and dot-directories), reads them and
/// `DESIGN.md`, and returns the lint [`Report`].
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = workspace_sources(root)?;
    let design_md = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    Ok(lint_files(&files, &design_md))
}

/// Reads every `.rs` file the lint scans, as sorted
/// `(repo-relative path, contents)` pairs — the exact corpus
/// [`run`] lints, exposed so tests (the lexer round-trip) can walk the
/// same set.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("crates"), &mut paths)?;
    // The root crate's library sources fall under the rules too.
    collect_rs(&root.join("src"), &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(path)?));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique() {
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }

    #[test]
    fn finding_display_matches_the_legacy_format() {
        let f = Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: rules::RULE_PRINT,
            message: "boom".to_string(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: [no-println-in-libs] boom"
        );
    }

    #[test]
    fn lint_files_sorts_and_counts() {
        let files = vec![
            (
                "crates/ccs-core/src/b.rs".to_string(),
                "fn f() { x.unwrap(); }\n".to_string(),
            ),
            (
                "crates/ccs-core/src/a.rs".to_string(),
                "fn f() { y.unwrap(); }\n".to_string(),
            ),
        ];
        let report = lint_files(&files, "");
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings[0].file.ends_with("a.rs"));
        assert!(report.findings[1].file.ends_with("b.rs"));
    }
}
