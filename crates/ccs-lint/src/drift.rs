//! Cross-file drift passes: declaration-level checks that keep
//! producer and consumer layers of the pipeline in sync.
//!
//! Unlike the per-file rules, these parse **declarations** out of the
//! token stream — an enum's variant list, a `const` string array, the
//! string literals of a diagnostic-code table — and check that every
//! declared item has a consumer (or an explicit, named waiver) in the
//! layer that is supposed to consume it:
//!
//! * [`RULE_EVENT`] — every `ccs-trace` `Event` variant is either
//!   matched (`Event::Variant`) or explicitly waived
//!   (`// EVENT-IGNORED: Variant — reason`) by the structured fold of
//!   the event stream (`ccs-profile`'s `ProfileBuilder`), and a waiver
//!   names a variant the fold does not match;
//! * [`RULE_DIAG`] — every `CCS0xx` / `CCSWxx` code string declared
//!   by `ccs-analyze` (and the schedule-violation codes it wraps from
//!   `ccs-schedule::checker`) appears in the `DESIGN.md` diagnostic
//!   catalogue;
//! * [`RULE_BENCH`] — every BENCH section key declared by
//!   `bench_hotpath` (`BENCH_SECTIONS`) is claimed by `bench_report`'s
//!   trajectory gate as either gated (`GATED_SECTIONS`) or explicitly
//!   ungated with a reason (`UNGATED_SECTIONS`); stale entries on
//!   either side are findings too.
//!
//! A new event kind, diagnostic code, or BENCH section without a
//! consumer-side decision fails `cargo xtask lint` — and therefore CI
//! — before it can silently drift.

use crate::view::SourceFile;
use crate::Finding;

/// Rule identifier for unconsumed trace-event variants.
pub const RULE_EVENT: &str = "trace-event-consumed";
/// Rule identifier for undocumented diagnostic codes.
pub const RULE_DIAG: &str = "diag-code-documented";
/// Rule identifier for ungated BENCH sections.
pub const RULE_BENCH: &str = "bench-section-gated";

/// The file declaring the `Event` enum.
const EVENT_DECL: &str = "crates/ccs-trace/src/event.rs";
/// The event-stream folds that must consume (or waive) every variant.
const EVENT_CONSUMERS: [&str; 1] = ["crates/ccs-profile/src/lib.rs"];
/// Files owning diagnostic-code string literals.
const DIAG_ROOT: &str = "crates/ccs-analyze/src";
/// The schedule-violation codes wrapped by `ccs-analyze` live here.
const DIAG_CHECKER: &str = "crates/ccs-schedule/src/checker.rs";
/// The file declaring the BENCH report sections.
const BENCH_DECL: &str = "crates/ccs-bench/src/bin/bench_hotpath.rs";
/// The file declaring the gated/ungated section split.
const BENCH_GATE: &str = "crates/ccs-bench/src/report_diff.rs";

/// Runs every drift pass over the workspace sources plus the
/// `DESIGN.md` text.
pub fn drift_passes(files: &[(String, String)], design_md: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    event_consumed(files, &mut out);
    diag_documented(files, design_md, &mut out);
    bench_gated(files, &mut out);
    out
}

fn file<'a>(files: &'a [(String, String)], rel: &str) -> Option<&'a (String, String)> {
    files.iter().find(|(r, _)| r == rel)
}

fn event_consumed(files: &[(String, String)], out: &mut Vec<Finding>) {
    let Some((decl_rel, decl_text)) = file(files, EVENT_DECL) else {
        return;
    };
    let decl = SourceFile::new(decl_rel, decl_text);
    let variants = enum_variants(&decl, decl_text, "Event");
    if variants.is_empty() {
        out.push(Finding {
            file: decl_rel.clone(),
            line: 0,
            rule: RULE_EVENT,
            message: "could not parse any `enum Event` variants; the drift pass \
                      is blind — fix the declaration or the parser"
                .to_string(),
        });
        return;
    }
    for consumer_rel in EVENT_CONSUMERS {
        let Some((c_rel, c_text)) = file(files, consumer_rel) else {
            out.push(Finding {
                file: consumer_rel.to_string(),
                line: 0,
                rule: RULE_EVENT,
                message: "the event fold named in `EVENT_CONSUMERS` is missing; \
                          the drift pass is blind — restore the file or update the list"
                    .to_string(),
            });
            continue;
        };
        let consumer = SourceFile::new(c_rel, c_text);
        let ignored = ignored_events(&consumer);
        for (variant, line) in &variants {
            let handled = mentions_in_code(&consumer, &format!("Event::{variant}"))
                || ignored.iter().any(|(v, _)| v == variant);
            if !handled {
                out.push(Finding {
                    file: decl_rel.clone(),
                    line: *line,
                    rule: RULE_EVENT,
                    message: format!(
                        "`Event::{variant}` is not handled by `{consumer_rel}`: \
                         match it in the fold, or waive it there with \
                         `// EVENT-IGNORED: {variant} — reason`"
                    ),
                });
            }
        }
        // Stale waivers: an EVENT-IGNORED naming a variant that no
        // longer exists, or that the fold now matches, rots silently.
        for (name, line) in &ignored {
            let stale = if !variants.iter().any(|(v, _)| v == name) {
                "names no current `Event` variant"
            } else if mentions_in_code(&consumer, &format!("Event::{name}")) {
                "names a variant the fold matches"
            } else {
                continue;
            };
            out.push(Finding {
                file: consumer_rel.to_string(),
                line: *line,
                rule: RULE_EVENT,
                message: format!("`EVENT-IGNORED: {name}` {stale}; delete or update the waiver"),
            });
        }
    }
}

fn diag_documented(files: &[(String, String)], design_md: &str, out: &mut Vec<Finding>) {
    for (rel, text) in files {
        let owned = rel.starts_with(DIAG_ROOT) || rel == DIAG_CHECKER;
        if !owned {
            continue;
        }
        let sf = SourceFile::new(rel, text);
        for (code, line) in diag_code_literals(&sf) {
            if !design_md.contains(&code) {
                out.push(Finding {
                    file: rel.clone(),
                    line,
                    rule: RULE_DIAG,
                    message: format!(
                        "diagnostic code `{code}` is not in the DESIGN.md \
                         catalogue; add a row to the diagnostics table"
                    ),
                });
            }
        }
    }
}

fn bench_gated(files: &[(String, String)], out: &mut Vec<Finding>) {
    let Some((decl_rel, decl_text)) = file(files, BENCH_DECL) else {
        return;
    };
    let decl = SourceFile::new(decl_rel, decl_text);
    let Some((sections, _)) = const_str_array(&decl, decl_text, "BENCH_SECTIONS") else {
        out.push(Finding {
            file: decl_rel.clone(),
            line: 0,
            rule: RULE_BENCH,
            message: "`bench_hotpath` declares no `BENCH_SECTIONS` const; the \
                      drift pass is blind — restore the declaration"
                .to_string(),
        });
        return;
    };
    let Some((gate_rel, gate_text)) = file(files, BENCH_GATE) else {
        return;
    };
    let gate = SourceFile::new(gate_rel, gate_text);
    let gated = const_str_array(&gate, gate_text, "GATED_SECTIONS");
    let ungated = const_str_array(&gate, gate_text, "UNGATED_SECTIONS");
    let (Some((gated, gated_line)), Some((ungated, _))) = (gated, ungated) else {
        out.push(Finding {
            file: gate_rel.clone(),
            line: 0,
            rule: RULE_BENCH,
            message: "`report_diff` must declare both `GATED_SECTIONS` and \
                      `UNGATED_SECTIONS` so every BENCH section has an \
                      explicit gating decision"
                .to_string(),
        });
        return;
    };
    for (key, line) in &sections {
        let claimed = gated.iter().any(|(k, _)| k == key) || ungated.iter().any(|(k, _)| k == key);
        if !claimed {
            out.push(Finding {
                file: decl_rel.clone(),
                line: *line,
                rule: RULE_BENCH,
                message: format!(
                    "BENCH section `{key}` has no gating decision in \
                     `report_diff`; add it to `GATED_SECTIONS` (and diff it) \
                     or to `UNGATED_SECTIONS` with a reason"
                ),
            });
        }
    }
    for (key, line) in gated.iter().chain(ungated.iter()) {
        if !sections.iter().any(|(k, _)| k == key) {
            out.push(Finding {
                file: gate_rel.clone(),
                line: *line,
                rule: RULE_BENCH,
                message: format!(
                    "section `{key}` is claimed by `report_diff` but \
                     `bench_hotpath` no longer emits it; delete the stale entry"
                ),
            });
        }
    }
    // The gate declaration must match what the differ actually reads:
    // each gated key must appear again in `report_diff` code (its
    // `.get("...")` consultation), not just in the declaration.
    for (key, _) in &gated {
        let quoted = format!("\"{key}\"");
        let uses = gate
            .string_lines
            .iter()
            .enumerate()
            .filter(|(i, l)| !gate.test_mask[*i] && l.contains(&quoted))
            .count();
        if uses < 2 {
            out.push(Finding {
                file: gate_rel.clone(),
                line: gated_line,
                rule: RULE_BENCH,
                message: format!(
                    "`GATED_SECTIONS` lists `{key}` but `report_diff` never \
                     consults that section; gate it for real or move it to \
                     `UNGATED_SECTIONS`"
                ),
            });
        }
    }
}

/// The variants of `enum <name>` as `(variant, 1-based decl line)`.
fn enum_variants(sf: &SourceFile, src: &str, name: &str) -> Vec<(String, usize)> {
    let code = sf.code_token_indices();
    let texts: Vec<&str> = code.iter().map(|&i| sf.tokens[i].text(src)).collect();
    let mut out = Vec::new();
    let mut k = 0usize;
    while k + 2 < code.len() {
        if texts[k] == "enum" && texts[k + 1] == name && texts[k + 2] == "{" {
            let mut depth = 1i64;
            let mut expecting = true;
            let mut j = k + 3;
            while j < code.len() && depth > 0 {
                match texts[j] {
                    "{" | "(" => depth += 1,
                    "}" | ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "," if depth == 1 => expecting = true,
                    "#" | "[" | "]" => {} // attributes between variants
                    t if depth == 1 && expecting => {
                        if t.chars().next().is_some_and(char::is_alphabetic) {
                            out.push((t.to_string(), sf.line_of(sf.tokens[code[j]].start)));
                        }
                        expecting = false;
                    }
                    _ => {}
                }
                j += 1;
            }
            return out;
        }
        k += 1;
    }
    out
}

/// The string elements of `const <name>: ... = [ "...", ... ];` as
/// `(content, 1-based line)`, plus the declaration line.
fn const_str_array(
    sf: &SourceFile,
    src: &str,
    name: &str,
) -> Option<(Vec<(String, usize)>, usize)> {
    let all: Vec<usize> = (0..sf.tokens.len())
        .filter(|&i| {
            !matches!(
                sf.tokens[i].kind,
                crate::lexer::TokenKind::Whitespace
                    | crate::lexer::TokenKind::LineComment
                    | crate::lexer::TokenKind::BlockComment
            )
        })
        .collect();
    let texts: Vec<&str> = all.iter().map(|&i| sf.tokens[i].text(src)).collect();
    let mut k = 0usize;
    while k + 1 < all.len() {
        if texts[k] == "const" && texts[k + 1] == name {
            let decl_line = sf.line_of(sf.tokens[all[k]].start);
            let mut items = Vec::new();
            // Skip the type annotation (`: [&str; N]` carries a `;`
            // of its own) and start collecting at the initializer.
            let mut j = k + 2;
            while j < all.len() && texts[j] != "=" {
                j += 1;
            }
            while j < all.len() && texts[j] != ";" {
                let tok = sf.tokens[all[j]];
                if tok.kind == crate::lexer::TokenKind::Str {
                    let t = texts[j];
                    let inner = t
                        .trim_start_matches(|c| c != '"')
                        .trim_start_matches('"')
                        .trim_end_matches(|c| c != '"')
                        .trim_end_matches('"');
                    items.push((inner.to_string(), sf.line_of(tok.start)));
                }
                j += 1;
            }
            return Some((items, decl_line));
        }
        k += 1;
    }
    None
}

/// Diagnostic-code string literals (`"CCS###"` / `"CCSW##"`) in
/// non-test code, as `(code, 1-based line)`.
fn diag_code_literals(sf: &SourceFile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in sf.string_lines.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        let bytes = line.as_bytes();
        let mut pos = 0usize;
        while let Some(at) = line[pos..].find("CCS") {
            let abs = pos + at;
            let rest = &line[abs..];
            let tail = rest.as_bytes().get(3..6);
            let code_len = match tail {
                Some(t) if t.iter().all(u8::is_ascii_digit) => 6,
                Some(t) if t[0] == b'W' && t[1..].iter().all(u8::is_ascii_digit) => 6,
                _ => 0,
            };
            // Must be the entire string literal: quote-delimited on
            // both sides, so prose mentioning a code is not a
            // declaration.
            let quoted = code_len > 0
                && abs >= 1
                && bytes[abs - 1] == b'"'
                && bytes.get(abs + code_len) == Some(&b'"');
            if quoted {
                out.push((line[abs..abs + code_len].to_string(), i + 1));
            }
            pos = abs + 3;
        }
    }
    out
}

/// Waivers of the form `// EVENT-IGNORED: Variant — reason`, one per
/// comment line, as `(variant, 1-based line)`.
fn ignored_events(sf: &SourceFile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in sf.comment_lines.iter().enumerate() {
        if let Some(at) = line.find("EVENT-IGNORED:") {
            let rest = &line[at + "EVENT-IGNORED:".len()..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                out.push((name, i + 1));
            }
        }
    }
    out
}

/// `true` when a non-test code line mentions `needle` bounded by
/// non-identifier characters on both sides.
fn mentions_in_code(sf: &SourceFile, needle: &str) -> bool {
    sf.code_lines.iter().enumerate().any(|(i, line)| {
        if sf.test_mask[i] {
            return false;
        }
        let mut start = 0;
        while let Some(pos) = line[start..].find(needle) {
            let abs = start + pos;
            let before = line[..abs]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            let after = line[abs + needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            if before && after {
                return true;
            }
            start = abs + needle.len();
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|(r, t)| (r.to_string(), t.to_string()))
            .collect()
    }

    const EVENT_SRC: &str = "/// Docs.\npub enum Event {\n    /// A.\n    Alpha { x: u32 },\n    /// B.\n    Beta(u32),\n    /// C.\n    Gamma,\n}\n";

    #[test]
    fn enum_variants_parse_struct_tuple_and_unit() {
        let sf = SourceFile::new("e.rs", EVENT_SRC);
        let v = enum_variants(&sf, EVENT_SRC, "Event");
        let names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Alpha", "Beta", "Gamma"]);
        assert_eq!(v[0].1, 4);
    }

    #[test]
    fn unhandled_variant_is_a_finding_waiver_clears_it() {
        let consumer_handles_two =
            "fn fold(ev: Event) {\n    match ev {\n        Event::Alpha { .. } => {}\n        Event::Beta(_) => {}\n        _ => {}\n    }\n}\n";
        let files = ws(&[
            (super::EVENT_DECL, EVENT_SRC),
            (super::EVENT_CONSUMERS[0], consumer_handles_two),
        ]);
        let f = drift_passes(&files, "");
        let event_findings: Vec<&Finding> = f.iter().filter(|f| f.rule == RULE_EVENT).collect();
        assert_eq!(event_findings.len(), 1, "{event_findings:?}");
        assert!(event_findings[0].message.contains("Gamma"));

        let with_waiver = format!(
            "// EVENT-IGNORED: Gamma — carries nothing this fold needs\n{consumer_handles_two}"
        );
        let files = ws(&[
            (super::EVENT_DECL, EVENT_SRC),
            (super::EVENT_CONSUMERS[0], &with_waiver),
        ]);
        assert!(drift_passes(&files, "")
            .iter()
            .all(|f| f.rule != RULE_EVENT));
    }

    #[test]
    fn missing_consumer_file_is_a_finding() {
        let files = ws(&[(super::EVENT_DECL, EVENT_SRC)]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter().any(|f| f.rule == RULE_EVENT
                && f.file == super::EVENT_CONSUMERS[0]
                && f.message.contains("missing")),
            "{f:?}"
        );
        // Without the declaration there is nothing to check against.
        assert!(drift_passes(&[], "").iter().all(|f| f.rule != RULE_EVENT));
    }

    #[test]
    fn waiver_of_a_matched_variant_is_a_finding() {
        let consumer = "// EVENT-IGNORED: Beta — matched below after all\nfn fold(ev: Event) {\n    match ev {\n        Event::Alpha { .. } => {}\n        Event::Beta(_) => {}\n        Event::Gamma => {}\n    }\n}\n";
        let files = ws(&[
            (super::EVENT_DECL, EVENT_SRC),
            (super::EVENT_CONSUMERS[0], consumer),
        ]);
        let f: Vec<Finding> = drift_passes(&files, "")
            .into_iter()
            .filter(|f| f.rule == RULE_EVENT)
            .collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("the fold matches"), "{f:?}");
    }

    #[test]
    fn mention_in_test_code_does_not_count() {
        let only_tests = "fn fold(_: Event) {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = Event::Alpha { x: 1 }; }\n}\n";
        let files = ws(&[
            (super::EVENT_DECL, EVENT_SRC),
            (super::EVENT_CONSUMERS[0], only_tests),
        ]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter()
                .filter(|f| f.rule == RULE_EVENT)
                .any(|f| f.message.contains("Alpha")),
            "{f:?}"
        );
    }

    #[test]
    fn stale_waiver_is_a_finding() {
        let consumer = "// EVENT-IGNORED: Vanished — no longer exists\nfn fold(ev: Event) {\n    match ev {\n        Event::Alpha { .. } => {}\n        Event::Beta(_) => {}\n        Event::Gamma => {}\n    }\n}\n";
        let files = ws(&[
            (super::EVENT_DECL, EVENT_SRC),
            (super::EVENT_CONSUMERS[0], consumer),
        ]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter()
                .any(|f| f.rule == RULE_EVENT && f.message.contains("Vanished")),
            "{f:?}"
        );
    }

    #[test]
    fn diag_codes_must_be_in_design_md() {
        let diag = "pub const A: &str = \"CCS001\";\npub const B: &str = \"CCSW42\";\n";
        let files = ws(&[("crates/ccs-analyze/src/diag.rs", diag)]);
        let f = drift_passes(&files, "catalogue: CCS001 only");
        let diag_findings: Vec<&Finding> = f.iter().filter(|f| f.rule == RULE_DIAG).collect();
        assert_eq!(diag_findings.len(), 1, "{diag_findings:?}");
        assert!(diag_findings[0].message.contains("CCSW42"));
        assert_eq!(diag_findings[0].line, 2);
        assert!(drift_passes(&files, "CCS001 and CCSW42")
            .iter()
            .all(|f| f.rule != RULE_DIAG));
    }

    #[test]
    fn prose_mentions_and_test_codes_are_not_declarations() {
        let src = "/// Emits `CCS001` on parse errors.\nfn f() { let s = \"code CCS001 in prose\"; }\n#[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(code(), \"CCS999\"); }\n}\n";
        let files = ws(&[("crates/ccs-analyze/src/diag.rs", src)]);
        assert!(drift_passes(&files, "").iter().all(|f| f.rule != RULE_DIAG));
    }

    #[test]
    fn bench_sections_need_a_gating_decision() {
        let hotpath =
            "const BENCH_SECTIONS: [&str; 3] = [\"timings_ms\", \"fingerprints\", \"metrics\"];\n";
        let gate_ok = "const GATED_SECTIONS: [&str; 2] = [\"timings_ms\", \"fingerprints\"];\nconst UNGATED_SECTIONS: [&str; 1] = [\"metrics\"];\nfn parse(v: &V) { v.get(\"timings_ms\"); v.get(\"fingerprints\"); }\n";
        let files = ws(&[(super::BENCH_DECL, hotpath), (super::BENCH_GATE, gate_ok)]);
        assert!(
            drift_passes(&files, "")
                .iter()
                .all(|f| f.rule != RULE_BENCH),
            "{:?}",
            drift_passes(&files, "")
        );

        // A new section without a decision fails.
        let hotpath2 = "const BENCH_SECTIONS: [&str; 4] = [\"timings_ms\", \"fingerprints\", \"metrics\", \"newbie\"];\n";
        let files = ws(&[(super::BENCH_DECL, hotpath2), (super::BENCH_GATE, gate_ok)]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter()
                .any(|f| f.rule == RULE_BENCH && f.message.contains("newbie")),
            "{f:?}"
        );
    }

    #[test]
    fn stale_gate_entries_and_unconsulted_gated_keys_are_findings() {
        let hotpath = "const BENCH_SECTIONS: [&str; 1] = [\"timings_ms\"];\n";
        // `gone` is stale; `timings_ms` is declared gated but never read.
        let gate = "const GATED_SECTIONS: [&str; 2] = [\"timings_ms\", \"gone\"];\nconst UNGATED_SECTIONS: [&str; 0] = [];\n";
        let files = ws(&[(super::BENCH_DECL, hotpath), (super::BENCH_GATE, gate)]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter()
                .any(|f| f.rule == RULE_BENCH && f.message.contains("stale")),
            "{f:?}"
        );
        assert!(
            f.iter()
                .any(|f| f.rule == RULE_BENCH && f.message.contains("never")),
            "{f:?}"
        );
    }

    #[test]
    fn missing_declarations_are_loud() {
        let files = ws(&[(super::BENCH_DECL, "fn main() {}\n")]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter()
                .any(|f| f.rule == RULE_BENCH && f.message.contains("BENCH_SECTIONS")),
            "{f:?}"
        );
        let files = ws(&[
            (
                super::BENCH_DECL,
                "const BENCH_SECTIONS: [&str; 1] = [\"x\"];\n",
            ),
            (super::BENCH_GATE, "fn parse() {}\n"),
        ]);
        let f = drift_passes(&files, "");
        assert!(
            f.iter()
                .any(|f| f.rule == RULE_BENCH && f.message.contains("GATED_SECTIONS")),
            "{f:?}"
        );
    }
}
