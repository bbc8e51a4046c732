//! The diagnostic data model: stable codes, severities, subjects, and
//! the human/JSON renderers.

use serde::{Serialize, Value};
use std::fmt;

/// Stable lint codes.  `CCS0xx` are errors (the input or schedule is
/// illegal under the paper's model), `CCSWxx` are warnings (legal but
/// suspicious, degenerate, or futile).  Codes are never reused or
/// renumbered; see `DESIGN.md` §"Diagnostics" for the catalogue with
/// paper lemma references.
pub mod codes {
    /// Input could not be parsed at all.
    pub const PARSE: &str = "CCS000";
    /// A directed cycle carries zero total delay (paper §2 legality).
    pub const ZERO_DELAY_CYCLE: &str = "CCS001";
    /// A task has computation time `t(v) < 1` (Definition in §2).
    pub const ZERO_TIME: &str = "CCS002";
    /// An edge has communication volume `c(e) < 1` (Definition in §2).
    pub const ZERO_VOLUME: &str = "CCS003";
    /// A self-edge with `d = 0`: the node depends on its own result in
    /// the same iteration (the smallest zero-delay cycle).
    pub const ZERO_DELAY_SELF_EDGE: &str = "CCS004";
    /// An edge references a task name that does not exist.
    pub const UNKNOWN_TASK: &str = "CCS005";
    /// Two tasks share one name.
    pub const DUPLICATE_TASK: &str = "CCS006";
    /// The task times sum to `u32::MAX` or more.  Control steps are
    /// `u32`, and every chain length, ASAP/ALAP step and `ceil(B)` is
    /// at most that sum, so below it no step arithmetic can overflow.
    pub const TIME_OVERFLOW: &str = "CCS007";
    /// The dense schedule table would need more than
    /// `MAX_TABLE_CELLS` cells (`Σ t(v)` steps × PEs): the run would
    /// allocate gigabytes or abort before scheduling anything.
    pub const TABLE_TOO_LARGE: &str = "CCS008";
    /// The graph has no tasks: there is no loop body to schedule, and
    /// every period, bound and certificate of it would read 0.
    pub const EMPTY_GRAPH: &str = "CCS009";
    /// The machine topology is disconnected: some PE pair has no
    /// connecting path, so `M(p_i, p_j)` (Definition 3.5) is undefined.
    pub const MACHINE_DISCONNECTED: &str = "CCS010";
    /// The hop table is degenerate: `hops(p, p) != 0` or
    /// `hops(a, b) != hops(b, a)` (impossible for BFS-built machines,
    /// checked as defense in depth for externally supplied ones).
    pub const HOP_TABLE_DEGENERATE: &str = "CCS011";
    /// `Σ t(v) + diameter × max_v Σ c(e)`, the sum over the non-self
    /// edges at `v`, reaches `u32::MAX`: a hop × volume cost or a
    /// node's per-PE traffic column could overflow `u32`, and so could
    /// an end step within `Σ t(v)` plus a cost.
    pub const COMM_OVERFLOW: &str = "CCS012";

    // CCS020..CCS026 are schedule-validity codes owned by
    // `ccs_schedule::checker::Violation::code` and re-emitted here.

    // CCS04x: bounds & certification (mixed severities — the family
    // groups every verdict the `ccs-bounds` certifier can return).

    /// The achieved period is *below* a proven lower bound: the bound
    /// proof or the schedule validator is wrong.  Always an internal
    /// bug — never a property of the input.
    pub const CERT_BOUND_EXCEEDED: &str = "CCS040";
    /// The achieved period equals the strongest proven lower bound:
    /// the schedule is provably optimal.
    pub const CERT_OPTIMAL: &str = "CCS041";
    /// The achieved period is within the acceptable gap of the
    /// strongest bound ("gap <= N%").
    pub const CERT_GAP: &str = "CCS042";
    /// The achieved period exceeds the strongest bound by more than
    /// the acceptable gap: the schedule (or the bound family) leaves
    /// real headroom on the table.
    pub const CERT_GAP_LARGE: &str = "CCS043";

    /// A node with no dependencies at all.
    pub const W_ISOLATED_NODE: &str = "CCSW01";
    /// The graph splits into multiple weakly-connected components.
    pub const W_FRAGMENTED_GRAPH: &str = "CCSW02";
    /// Parallel edges with identical endpoints and delay: only the
    /// largest volume can ever bind.
    pub const W_REDUNDANT_EDGE: &str = "CCSW03";
    /// Single-PE machine: scheduling degenerates to serialization.
    pub const W_SINGLE_PE: &str = "CCSW10";
    /// All hop distances are zero (ideal machine): the schedule is
    /// communication-oblivious by construction.
    pub const W_FREE_COMM: &str = "CCSW11";
    /// More PEs than tasks: the extra PEs can never be used.
    pub const W_MORE_PES_THAN_TASKS: &str = "CCSW12";
    /// The iteration bound already meets or exceeds single-PE
    /// serialization: cyclo-compaction cannot shorten the schedule.
    pub const W_COMPACTION_CANNOT_HELP: &str = "CCSW20";
    /// The heaviest edge's one-hop cost meets or exceeds single-PE
    /// serialization: any cross-PE placement of it is futile.
    pub const W_COMM_DOMINATES: &str = "CCSW21";
}

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Purely informational: a positive or neutral certified fact
    /// (e.g. "provably optimal").  Never affects exit codes.
    Note,
    /// Legal but suspicious, degenerate, or futile.
    Warning,
    /// Illegal under the paper's model; scheduling must not proceed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What a diagnostic is about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Subject {
    /// The graph as a whole.
    Graph,
    /// One task, by name.
    Node(String),
    /// One dependency edge, by endpoint names.
    Edge {
        /// Producer task name.
        src: String,
        /// Consumer task name.
        dst: String,
    },
    /// The machine as a whole.
    Machine,
    /// One processor (0-based index).
    Pe(u32),
    /// An unordered processor pair.
    PePair(u32, u32),
    /// The schedule table.
    Schedule,
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Graph => write!(f, "graph"),
            Subject::Node(n) => write!(f, "node {n}"),
            Subject::Edge { src, dst } => write!(f, "edge {src} -> {dst}"),
            Subject::Machine => write!(f, "machine"),
            Subject::Pe(p) => write!(f, "pe{}", p + 1),
            Subject::PePair(a, b) => write!(f, "pe{} <-> pe{}", a + 1, b + 1),
            Subject::Schedule => write!(f, "schedule"),
        }
    }
}

/// One structured diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`CCS0xx` / `CCSWxx`, see [`codes`]).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// What the diagnostic is about.
    pub subject: Subject,
    /// Human-readable explanation.
    pub message: String,
    /// Optional actionable fix.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(code: &'static str, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            subject,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(code: &'static str, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            subject,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Builds a note diagnostic (informational; never affects exit
    /// codes or `has_errors`).
    pub fn note(code: &'static str, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Note,
            subject,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity, self.code, self.subject, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("code".into(), Value::String(self.code.into())),
            ("severity".into(), Value::String(self.severity.to_string())),
            ("subject".into(), Value::String(self.subject.to_string())),
            ("message".into(), Value::String(self.message.clone())),
        ];
        if let Some(s) = &self.suggestion {
            obj.push(("suggestion".into(), Value::String(s.clone())));
        }
        Value::Object(obj)
    }
}

/// An ordered collection of diagnostics from one analysis pass (or a
/// union of passes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All diagnostics, in emission order (errors of a pass before its
    /// warnings).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// The error diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The note diagnostics.
    pub fn notes(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Note)
    }

    /// `true` if any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// `true` if there are no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Compiler-style human rendering; empty string for a clean report.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(out, "{d}");
        }
        let (e, w) = (self.errors().count(), self.warnings().count());
        if e + w > 0 {
            let _ = writeln!(out, "{e} error(s), {w} warning(s)");
        }
        out
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "diagnostics".into(),
                Value::Array(self.diags.iter().map(Serialize::to_value).collect()),
            ),
            ("errors".into(), Value::UInt(self.errors().count() as u64)),
            (
                "warnings".into(),
                Value::UInt(self.warnings().count() as u64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_counts() {
        let mut r = Report::new();
        r.push(
            Diagnostic::error(codes::ZERO_DELAY_CYCLE, Subject::Node("A".into()), "boom")
                .with_suggestion("add a delay"),
        );
        r.push(Diagnostic::warning(
            codes::W_SINGLE_PE,
            Subject::Machine,
            "one PE",
        ));
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        let h = r.render_human();
        assert!(h.contains("error[CCS001]: node A: boom"));
        assert!(h.contains("= help: add a delay"));
        assert!(h.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_shape() {
        let mut r = Report::new();
        r.push(Diagnostic::warning(
            codes::W_FREE_COMM,
            Subject::PePair(0, 2),
            "zero hops",
        ));
        let v = serde_json::to_value(&r).unwrap();
        assert_eq!(v["errors"].as_u64(), Some(0));
        assert_eq!(v["warnings"].as_u64(), Some(1));
        assert_eq!(
            v["diagnostics"][0]["code"].as_str(),
            Some(codes::W_FREE_COMM)
        );
        assert_eq!(v["diagnostics"][0]["subject"].as_str(), Some("pe1 <-> pe3"));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
    }
}
