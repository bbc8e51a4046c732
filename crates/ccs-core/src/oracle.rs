//! Pass B: the invariant oracle.
//!
//! Every mutation of the `(graph, schedule)` pair on the compaction
//! hot path — a rotate-remap apply, a rollback, an accepted driver
//! pass — is re-validated through the independent `ccs-schedule`
//! checker.  A failed validation aborts immediately with the stage
//! name and every violation's stable `CCS02x` code, so a scheduler bug
//! surfaces at the mutation that introduced it instead of as a wrong
//! number three layers later.  The slack a pass repairs from its `PSL`
//! ledger is checked the same way, against a full `required_length`.
//!
//! The oracle is compiled in whenever `debug_assertions` are on (so
//! every `cargo test` exercises it for free) or the `paranoid` cargo
//! feature is enabled (so release binaries can opt in:
//! `cargo test --release --features paranoid`).  In plain release
//! builds [`verify`] is an empty inline function and costs nothing —
//! the bench fingerprints and timings are identical with the oracle
//! compiled out.

use ccs_model::Csdfg;
use ccs_schedule::{validate, Schedule, Violation};
use ccs_topology::Machine;

/// `true` when the oracle is compiled in: debug/test builds, or any
/// build with the `paranoid` feature.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "paranoid"));

/// Non-panicking probe: re-runs the full schedule validator and
/// returns its violations.  Always available (independent of the
/// `paranoid` gate); used by tests and by callers that want to handle
/// corruption themselves.
pub fn check(g: &Csdfg, machine: &Machine, sched: &Schedule) -> Result<(), Vec<Violation>> {
    validate(g, machine, sched)
}

/// Re-validates `sched` against `(g, machine)` and panics with the
/// stage name and every violation (each carrying its `CCS02x` code)
/// if the schedule is invalid.  Compiled to a no-op unless
/// [`ENABLED`].
#[inline]
pub fn verify(stage: &str, g: &Csdfg, machine: &Machine, sched: &Schedule) {
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    {
        if let Err(violations) = validate(g, machine, sched) {
            use std::fmt::Write as _;
            let mut msg = format!(
                "invariant oracle tripped at `{stage}`: {} violation(s)",
                violations.len()
            );
            for v in &violations {
                let _ = write!(msg, "\n  {v}");
            }
            panic!("{msg}");
        }
    }
    #[cfg(not(any(debug_assertions, feature = "paranoid")))]
    {
        let _ = (stage, g, machine, sched);
    }
}

/// Cross-checks the minimum legal length a pass read off its `PSL`
/// ledger against [`ccs_schedule::required_length`], which recomputes
/// it from every task and edge, and panics with the stage name if they
/// differ.  Compiled to a no-op unless [`ENABLED`].
#[inline]
pub fn verify_required(stage: &str, g: &Csdfg, machine: &Machine, sched: &Schedule, required: u32) {
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    {
        let full = ccs_schedule::required_length(g, machine, sched);
        assert_eq!(
            required, full,
            "ledger oracle tripped at `{stage}`: the PSL ledger reads {required}, \
             required_length reads {full}"
        );
    }
    #[cfg(not(any(debug_assertions, feature = "paranoid")))]
    {
        let _ = (stage, g, machine, sched, required);
    }
}

/// Cross-checks a *validated* schedule against the static bound
/// engine: no legal schedule can beat a proven lower bound, so a
/// period below `ccs_bounds::compute_bounds(g0, machine).best_value()`
/// means either a bound proof or the schedule validator is wrong —
/// both are internal bugs, and the oracle fails loudly naming the
/// offending certificate.  `g0` must be the *input* graph of the
/// compaction run (bounds are proven over all its legal retimings).
/// Compiled to a no-op unless [`ENABLED`].
#[inline]
pub fn verify_bounds(stage: &str, g0: &Csdfg, machine: &Machine, sched: &Schedule) {
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    {
        let report = ccs_bounds::certify(g0, machine, sched);
        if report.verdict == ccs_bounds::Verdict::BoundExceeded {
            // INVARIANT: BoundExceeded means period < best bound, which
            // requires at least one certificate to exist.
            let best = report.best().expect("exceeded verdict implies a bound");
            panic!(
                "bound oracle tripped at `{stage}`: period {} beats the proven \
                 `{}` lower bound {} — the bound proof or the validator is wrong\n{}",
                sched.length(),
                best.kind,
                best.value,
                report.render_human()
            );
        }
    }
    #[cfg(not(any(debug_assertions, feature = "paranoid")))]
    {
        let _ = (stage, g0, machine, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::startup::{startup_schedule, StartupConfig};
    use ccs_schedule::Slot;
    use ccs_topology::Pe;

    fn setup() -> (Csdfg, Machine, Schedule) {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        let m = Machine::mesh(2, 2);
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        (g, m, s)
    }

    // The tests that need the oracle compiled in run where it is:
    // debug builds and `paranoid` ones.  A release build without
    // `paranoid` compiles `verify` and `verify_bounds` to no-ops, so
    // there they would check code that is not there.
    #[test]
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    #[allow(clippy::assertions_on_constants)]
    fn oracle_enabled_in_test_builds() {
        // The gate must be open wherever this test is compiled (and the
        // mutation tests below then exercise the oracle).  The
        // assertion is deliberately on the compile-time constant: it
        // documents and enforces the build configuration.
        assert!(ENABLED);
    }

    #[test]
    fn clean_schedule_passes() {
        let (g, m, s) = setup();
        assert!(check(&g, &m, &s).is_ok());
        verify("unit test", &g, &m, &s); // must not panic
    }

    /// Mutation smoke test: seed one illegal placement through the
    /// fault-injection hook and assert the oracle reports it with the
    /// right stable code (`CCS024` = task on nonexistent PE).
    #[test]
    fn seeded_bad_pe_is_reported_as_ccs024() {
        let (g, m, mut s) = setup();
        let a = g.task_by_name("A").unwrap();
        let slot = s.slot(a).unwrap();
        s.fault_force_slot(a, Slot { pe: Pe(99), ..slot });
        let violations = check(&g, &m, &s).unwrap_err();
        assert!(
            violations.iter().any(|v| v.code() == "CCS024"),
            "expected CCS024, got {violations:?}"
        );
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    #[should_panic(expected = "CCS024")]
    fn verify_panics_with_stage_and_code() {
        let (g, m, mut s) = setup();
        let a = g.task_by_name("A").unwrap();
        let slot = s.slot(a).unwrap();
        s.fault_force_slot(a, Slot { pe: Pe(99), ..slot });
        verify("mutation smoke test", &g, &m, &s);
    }

    #[test]
    fn bound_oracle_accepts_valid_schedules() {
        let (g, m, s) = setup();
        verify_bounds("unit test", &g, &m, &s); // must not panic
    }

    /// An impossibly short schedule (here: an empty table of length 0
    /// against a graph whose resource bound is positive) must trip the
    /// bound oracle loudly.
    #[test]
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    #[should_panic(expected = "bound oracle tripped")]
    fn bound_oracle_trips_on_impossible_period() {
        let (g, m, _) = setup();
        let impossible = Schedule::new(m.num_pes());
        verify_bounds("mutation smoke test", &g, &m, &impossible);
    }

    /// Occupancy-index corruption (a phantom cell nobody owns) is the
    /// other fault class; it must surface as a duplicate placement.
    #[test]
    fn seeded_phantom_cell_is_reported_as_ccs026() {
        let (g, m, mut s) = setup();
        let a = g.task_by_name("A").unwrap();
        let free = (1..64)
            .find(|&cs| s.at(Pe(1), cs).is_none())
            .expect("some free cell");
        s.fault_force_occupy(Pe(1), free, a);
        let violations = check(&g, &m, &s).unwrap_err();
        assert!(
            violations.iter().any(|v| v.code() == "CCS026"),
            "expected CCS026, got {violations:?}"
        );
    }
}
