//! Diffing `bench_hotpath` reports into a perf / fingerprint
//! trajectory.
//!
//! The repo keeps one `BENCH_prN.json` per landed perf-relevant PR.
//! [`analyze`] lines a sequence of those reports up chronologically and
//! extracts:
//!
//! * **fingerprint drift** — any schedule fingerprint that changes
//!   between two adjacent reports.  Fingerprints hash every placement,
//!   so drift means the scheduler's *semantics* moved, which must
//!   always be a deliberate, documented decision;
//! * **timing regressions** — any experiment whose median wall time
//!   grows by more than the caller's threshold between adjacent
//!   reports (timings are machine-dependent, so the threshold is
//!   generous by default and CI pins the machine type);
//! * **artifact growth** — any artifact (`artifact_bytes`: a report
//!   page, diff page, heatmap SVG, trace file or explain text) whose
//!   bytes grow by more than
//!   [`MAX_ARTIFACT_GROWTH_PCT`] between adjacent reports.  The bytes
//!   are deterministic, so this gate has no noise to allow for.
//!
//! The `bench-report` binary renders the trajectory as a table and
//! exits nonzero when either list is non-empty — the CI drift gate.

use crate::table::TextTable;
use serde::Value;
use std::collections::BTreeMap;

/// BENCH sections this differ gates: each is parsed out of every
/// report and compared across the trajectory.  The consumer side of
/// the `bench-section-gated` drift pass — together with
/// [`UNGATED_SECTIONS`] it must cover `BENCH_SECTIONS` exactly
/// (declared in `bench_hotpath`).
pub const GATED_SECTIONS: [&str; 4] = ["timings_ms", "fingerprints", "bounds", "artifact_bytes"];

/// Growth of one artifact's bytes, in percent, that the gate allows
/// between adjacent reports.
pub const MAX_ARTIFACT_GROWTH_PCT: u64 = 10;

/// BENCH sections deliberately not diffed, with the reason on record:
///
/// * `version`, `seeds` — run provenance; labels, not measurements;
/// * `schedule_lengths` — subsumed by `fingerprints` (any length
///   change moves the placement hash) and rendered by `bench-report`'s
///   sweep table instead;
/// * `metrics`, `cells` — per-run counter registries; byte-stable but
///   schema-fluid, diffed on demand with `ledger-diff` rather than
///   gated here;
/// * `candidate_scan_speedup` — intra-run A/B ratio, not comparable
///   across trajectory points;
/// * `baseline_timings_ms`, `speedup`, `fingerprint_mismatches` —
///   derived from a `--baseline` run's own diff; gating them would
///   double-count the baseline comparison.
pub const UNGATED_SECTIONS: [&str; 9] = [
    "version",
    "seeds",
    "schedule_lengths",
    "metrics",
    "cells",
    "candidate_scan_speedup",
    "baseline_timings_ms",
    "speedup",
    "fingerprint_mismatches",
];

/// The parts of one `bench_hotpath` JSON report the differ cares
/// about.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Display label (usually the file name).
    pub label: String,
    /// `timings_ms`: experiment key -> median wall ms.
    pub timings: BTreeMap<String, f64>,
    /// `fingerprints`: schedule key -> FNV-1a placement hash.
    pub fingerprints: BTreeMap<String, String>,
    /// `bounds`: schedule key -> optimality gap in percent (empty for
    /// reports predating the `bounds` section).
    pub gaps: BTreeMap<String, f64>,
    /// `artifact_bytes`: artifact key -> bytes (empty for reports
    /// predating the section).
    pub artifact_bytes: BTreeMap<String, u64>,
}

impl BenchReport {
    /// Extracts the diffable sections from a parsed report.
    ///
    /// Unknown extra keys are ignored so old and new report formats
    /// (with or without `metrics` / `cells`) diff against each other.
    pub fn parse(label: &str, v: &Value) -> Result<Self, String> {
        let mut timings = BTreeMap::new();
        match v.get("timings_ms") {
            Some(Value::Object(fields)) => {
                for (k, val) in fields {
                    let ms = val
                        .as_f64()
                        .ok_or_else(|| format!("{label}: timings_ms[{k:?}] is not a number"))?;
                    timings.insert(k.clone(), ms);
                }
            }
            _ => return Err(format!("{label}: missing `timings_ms` object")),
        }
        let mut fingerprints = BTreeMap::new();
        match v.get("fingerprints") {
            Some(Value::Object(fields)) => {
                for (k, val) in fields {
                    let fp = val
                        .as_str()
                        .ok_or_else(|| format!("{label}: fingerprints[{k:?}] is not a string"))?;
                    fingerprints.insert(k.clone(), fp.to_string());
                }
            }
            _ => return Err(format!("{label}: missing `fingerprints` object")),
        }
        // The `bounds` section arrived later than `timings_ms` and
        // `fingerprints`; its absence means an old report, not an
        // error, so the trajectory can span the introduction point.
        let mut gaps = BTreeMap::new();
        if let Some(Value::Object(fields)) = v.get("bounds") {
            for (k, val) in fields {
                let pct = val
                    .get("gap_pct")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{label}: bounds[{k:?}] has no numeric gap_pct"))?;
                gaps.insert(k.clone(), pct);
            }
        }
        let mut artifact_bytes = BTreeMap::new();
        if let Some(Value::Object(fields)) = v.get("artifact_bytes") {
            for (k, val) in fields {
                let bytes = val
                    .as_u64()
                    .ok_or_else(|| format!("{label}: artifact_bytes[{k:?}] is not a byte count"))?;
                artifact_bytes.insert(k.clone(), bytes);
            }
        }
        Ok(BenchReport {
            label: label.to_string(),
            timings,
            fingerprints,
            gaps,
            artifact_bytes,
        })
    }
}

/// A schedule fingerprint that changed between two adjacent reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    /// Schedule key (`workload/machine`).
    pub key: String,
    /// Labels of the two reports the drift happened between.
    pub between: (String, String),
    /// Fingerprint in the earlier report.
    pub from: String,
    /// Fingerprint in the later report.
    pub to: String,
}

/// A timing that slowed down past the threshold between two adjacent
/// reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Experiment key.
    pub key: String,
    /// Labels of the two reports the regression happened between.
    pub between: (String, String),
    /// Median ms in the earlier report.
    pub from_ms: f64,
    /// Median ms in the later report.
    pub to_ms: f64,
    /// Slowdown in percent (`(to/from - 1) * 100`).
    pub pct: f64,
}

/// An optimality gap (`bounds` section) that grew between two adjacent
/// reports.  Gaps fold deterministic schedule lengths against static
/// lower bounds, so like fingerprints they only move when scheduler
/// semantics (or the bound engine) move — any growth is a finding.
#[derive(Clone, Debug, PartialEq)]
pub struct GapGrowth {
    /// Schedule key (`workload/machine`).
    pub key: String,
    /// Labels of the two reports the growth happened between.
    pub between: (String, String),
    /// Gap percent in the earlier report.
    pub from_pct: f64,
    /// Gap percent in the later report.
    pub to_pct: f64,
}

/// An artifact whose bytes grew past [`MAX_ARTIFACT_GROWTH_PCT`]
/// between two adjacent reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactGrowth {
    /// Artifact key (`workload/machine/artifact`).
    pub key: String,
    /// Labels of the two reports the growth happened between.
    pub between: (String, String),
    /// Bytes in the earlier report.
    pub from: u64,
    /// Bytes in the later report.
    pub to: u64,
}

/// The analyzed trajectory over a chronological report sequence.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// The reports, in the order given.
    pub reports: Vec<BenchReport>,
    /// Every fingerprint change between adjacent reports.
    pub drifts: Vec<Drift>,
    /// Every timing regression past the threshold between adjacent
    /// reports.
    pub regressions: Vec<Regression>,
    /// Every optimality gap that grew between adjacent reports.
    pub gap_growths: Vec<GapGrowth>,
    /// Every artifact that grew past the budget between adjacent
    /// reports.
    pub artifact_growths: Vec<ArtifactGrowth>,
}

impl Trajectory {
    /// `true` when the gate should fail.
    pub fn failed(&self) -> bool {
        !self.drifts.is_empty()
            || !self.regressions.is_empty()
            || !self.gap_growths.is_empty()
            || !self.artifact_growths.is_empty()
    }
}

/// Compares each adjacent pair of `reports`; a timing counts as a
/// regression when it grows by more than `max_regression_pct` percent.
///
/// Keys that appear in only one of the two reports are skipped: new
/// experiments and new schedules may be added freely, and removed ones
/// stop being compared.
pub fn analyze(reports: Vec<BenchReport>, max_regression_pct: f64) -> Trajectory {
    let mut t = Trajectory {
        reports,
        ..Default::default()
    };
    for pair in t.reports.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        for (key, fp_a) in &a.fingerprints {
            if let Some(fp_b) = b.fingerprints.get(key) {
                if fp_a != fp_b {
                    t.drifts.push(Drift {
                        key: key.clone(),
                        between: (a.label.clone(), b.label.clone()),
                        from: fp_a.clone(),
                        to: fp_b.clone(),
                    });
                }
            }
        }
        for (key, &g_a) in &a.gaps {
            if let Some(&g_b) = b.gaps.get(key) {
                if g_b > g_a + 1e-9 {
                    t.gap_growths.push(GapGrowth {
                        key: key.clone(),
                        between: (a.label.clone(), b.label.clone()),
                        from_pct: g_a,
                        to_pct: g_b,
                    });
                }
            }
        }
        for (key, &from) in &a.artifact_bytes {
            if let Some(&to) = b.artifact_bytes.get(key) {
                if u128::from(to) * 100
                    > u128::from(from) * u128::from(100 + MAX_ARTIFACT_GROWTH_PCT)
                {
                    t.artifact_growths.push(ArtifactGrowth {
                        key: key.clone(),
                        between: (a.label.clone(), b.label.clone()),
                        from,
                        to,
                    });
                }
            }
        }
        for (key, &ms_a) in &a.timings {
            if let Some(&ms_b) = b.timings.get(key) {
                if ms_a > 0.0 {
                    let pct = (ms_b / ms_a - 1.0) * 100.0;
                    if pct > max_regression_pct {
                        t.regressions.push(Regression {
                            key: key.clone(),
                            between: (a.label.clone(), b.label.clone()),
                            from_ms: ms_a,
                            to_ms: ms_b,
                            pct,
                        });
                    }
                }
            }
        }
    }
    t
}

/// Renders the trajectory: one timing table (experiments × reports,
/// with the overall first→last speedup), then the drift and regression
/// findings.
pub fn render(t: &Trajectory) -> String {
    let mut out = String::new();
    if t.reports.is_empty() {
        return "no reports\n".to_string();
    }

    let mut header: Vec<String> = vec!["experiment (ms)".to_string()];
    header.extend(t.reports.iter().map(|r| r.label.clone()));
    header.push("speedup".to_string());
    let mut table = TextTable::new(header);
    let mut keys: Vec<&String> = t.reports.iter().flat_map(|r| r.timings.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let mut row = vec![key.clone()];
        for r in &t.reports {
            row.push(match r.timings.get(key) {
                Some(ms) => format!("{ms:.2}"),
                None => "-".to_string(),
            });
        }
        let first = t.reports.iter().find_map(|r| r.timings.get(key));
        let last = t.reports.iter().rev().find_map(|r| r.timings.get(key));
        row.push(match (first, last) {
            (Some(&f), Some(&l)) if l > 0.0 => format!("{:.2}x", f / l),
            _ => "-".to_string(),
        });
        table.row(row);
    }
    out.push_str(&table.render());

    if t.drifts.is_empty() {
        out.push_str("fingerprints: stable across the trajectory\n");
    } else {
        for d in &t.drifts {
            out.push_str(&format!(
                "FINGERPRINT DRIFT {}: {} -> {} between {} and {}\n",
                d.key, d.from, d.to, d.between.0, d.between.1
            ));
        }
    }
    for g in &t.gap_growths {
        out.push_str(&format!(
            "GAP GROWTH {}: {:.1}% -> {:.1}% vs the static bound between {} and {}\n",
            g.key, g.from_pct, g.to_pct, g.between.0, g.between.1
        ));
    }
    for g in &t.artifact_growths {
        out.push_str(&format!(
            "ARTIFACT GROWTH {}: {} -> {} bytes (over +{MAX_ARTIFACT_GROWTH_PCT}%) between {} and {}\n",
            g.key, g.from, g.to, g.between.0, g.between.1
        ));
    }
    for r in &t.regressions {
        out.push_str(&format!(
            "TIMING REGRESSION {}: {:.2} ms -> {:.2} ms (+{:.0}%) between {} and {}\n",
            r.key, r.from_ms, r.to_ms, r.pct, r.between.0, r.between.1
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, ms: f64, fp: &str) -> BenchReport {
        BenchReport {
            label: label.to_string(),
            timings: [("exp".to_string(), ms)].into_iter().collect(),
            fingerprints: [("fig1/mesh".to_string(), fp.to_string())]
                .into_iter()
                .collect(),
            gaps: [("fig1/mesh".to_string(), 5.0)].into_iter().collect(),
            artifact_bytes: BTreeMap::new(),
        }
    }

    #[test]
    fn parse_extracts_sections_and_ignores_extras() {
        let v: Value = serde_json::from_str(
            r#"{"version":"0.1.0","timings_ms":{"a":1.5},
                "fingerprints":{"k":"deadbeef"},"metrics":{},"cells":[]}"#,
        )
        .unwrap();
        let r = BenchReport::parse("x", &v).unwrap();
        assert_eq!(r.timings["a"], 1.5);
        assert_eq!(r.fingerprints["k"], "deadbeef");
        assert!(r.gaps.is_empty(), "old report without bounds parses");
        assert!(BenchReport::parse("x", &Value::Object(vec![])).is_err());
    }

    #[test]
    fn parse_extracts_bounds_gaps() {
        let v: Value = serde_json::from_str(
            r#"{"timings_ms":{},"fingerprints":{},
                "bounds":{"fig1/mesh":{"bound":10,"kind":"resource",
                          "best":12,"gap":2,"gap_pct":20.0}}}"#,
        )
        .unwrap();
        let r = BenchReport::parse("x", &v).unwrap();
        assert_eq!(r.gaps["fig1/mesh"], 20.0);
    }

    #[test]
    fn stable_trajectory_passes() {
        let t = analyze(vec![report("a", 10.0, "f"), report("b", 9.0, "f")], 25.0);
        assert!(!t.failed());
        let text = render(&t);
        assert!(text.contains("fingerprints: stable"), "{text}");
        assert!(text.contains("1.11x"), "{text}");
    }

    #[test]
    fn drift_and_regression_detected() {
        let t = analyze(vec![report("a", 10.0, "f1"), report("b", 20.0, "f2")], 25.0);
        assert!(t.failed());
        assert_eq!(t.drifts.len(), 1);
        assert_eq!(t.drifts[0].key, "fig1/mesh");
        assert_eq!(t.regressions.len(), 1);
        assert!((t.regressions[0].pct - 100.0).abs() < 1e-9);
        let text = render(&t);
        assert!(text.contains("FINGERPRINT DRIFT"), "{text}");
        assert!(text.contains("TIMING REGRESSION"), "{text}");
    }

    #[test]
    fn gap_growth_fails_the_gate_shrink_passes() {
        let mut a = report("a", 10.0, "f");
        let mut b = report("b", 10.0, "f");
        b.gaps.insert("fig1/mesh".to_string(), 8.0);
        let t = analyze(vec![a.clone(), b], 100.0);
        assert!(t.failed());
        assert_eq!(t.gap_growths.len(), 1);
        assert_eq!(t.gap_growths[0].to_pct, 8.0);
        assert!(render(&t).contains("GAP GROWTH"), "{}", render(&t));

        // Shrinking (or equal) gaps are fine, as is a key missing on
        // either side (old reports have no bounds section at all).
        let mut c = report("c", 10.0, "f");
        c.gaps.insert("fig1/mesh".to_string(), 2.0);
        a.gaps.clear();
        let t = analyze(vec![a, report("b", 10.0, "f"), c], 100.0);
        assert!(!t.failed());
    }

    #[test]
    fn artifact_growth_past_the_budget_fails_the_gate() {
        let v: Value = serde_json::from_str(
            r#"{"timings_ms":{},"fingerprints":{},
                "artifact_bytes":{"elliptic/mesh:4x4/report":1000}}"#,
        )
        .unwrap();
        let old = BenchReport::parse("old", &v).unwrap();
        assert_eq!(old.artifact_bytes["elliptic/mesh:4x4/report"], 1000);
        let with = |label: &str, bytes: u64| {
            let mut r = report(label, 10.0, "f");
            r.artifact_bytes
                .insert("elliptic/mesh:4x4/report".to_string(), bytes);
            r
        };
        // Exactly +10% passes, one byte more fails; shrinking passes.
        let t = analyze(vec![with("a", 1000), with("b", 1100), with("c", 10)], 100.0);
        assert!(!t.failed());
        let t = analyze(vec![with("a", 1000), with("b", 1101)], 100.0);
        assert!(t.failed());
        assert_eq!(t.artifact_growths.len(), 1);
        assert_eq!(
            (t.artifact_growths[0].from, t.artifact_growths[0].to),
            (1000, 1101)
        );
        let text = render(&t);
        assert!(
            text.contains("ARTIFACT GROWTH elliptic/mesh:4x4/report"),
            "{text}"
        );
        // A report without the section is skipped, like old bounds.
        let t = analyze(
            vec![with("a", 1000), report("b", 10.0, "f"), with("c", 5000)],
            100.0,
        );
        assert!(!t.failed());
        let bad: Value = serde_json::from_str(
            r#"{"timings_ms":{},"fingerprints":{},"artifact_bytes":{"k":"big"}}"#,
        )
        .unwrap();
        assert!(BenchReport::parse("bad", &bad).is_err());
    }

    #[test]
    fn disjoint_keys_are_skipped() {
        let mut b = report("b", 10.0, "f");
        b.timings = [("other".to_string(), 99.0)].into_iter().collect();
        b.fingerprints.clear();
        let t = analyze(vec![report("a", 10.0, "f"), b], 0.0);
        assert!(!t.failed());
    }

    #[test]
    fn adjacent_pairs_not_first_vs_last() {
        // 10 -> 12 -> 10: no adjacent step exceeds 25%, so no finding
        // even though first vs last is flat.
        let t = analyze(
            vec![
                report("a", 10.0, "f"),
                report("b", 12.0, "f"),
                report("c", 10.0, "f"),
            ],
            25.0,
        );
        assert!(!t.failed());
        // But 10 -> 14 in one step fails at 25%.
        let t = analyze(vec![report("a", 10.0, "f"), report("b", 14.0, "f")], 25.0);
        assert_eq!(t.regressions.len(), 1);
    }
}
