//! Pins the structured trace event stream: the scheduler's observable
//! decision sequence is part of the determinism contract, so the exact
//! stream for the paper's running example is golden-tested, and the
//! stream must be identical across repeated (and traced vs. untraced)
//! runs.

use ccs_core::{cyclo_compact, CompactConfig};
#[cfg(debug_assertions)]
use ccs_model::NodeId;
use ccs_topology::Machine;
#[cfg(debug_assertions)]
use ccs_trace::chrome::{to_chrome, validate_chrome, Clock};
use ccs_trace::{record, Event};

/// Two passes of the paper example keep the golden readable while
/// still covering startup, rotation, candidate scans, placements,
/// stats, occupancy, the best-snapshot path, and the traffic ledger
/// (the start-up snapshot, the rows each accepted pass moved, and the
/// final authoritative snapshot before `compact.end`, with per-PE
/// loads).
fn two_pass_config() -> CompactConfig {
    CompactConfig {
        passes: 2,
        ..CompactConfig::default()
    }
}

fn record_stream() -> Vec<ccs_trace::TimedEvent> {
    let g = ccs_workloads::paper::fig1_example();
    let machine = Machine::mesh(2, 2);
    let (outcome, events) = record(|| cyclo_compact(&g, &machine, two_pass_config()));
    outcome.expect("legal");
    events
}

fn render_stream() -> Vec<String> {
    record_stream()
        .iter()
        .map(|te| te.event.to_string())
        .collect()
}

/// The exact stream, pinned.  Debug builds only: the `oracle_calls`
/// counter in `pass.stats` reflects the Pass B oracle, which is
/// compiled out of release builds (without `--features paranoid`).
#[cfg(debug_assertions)]
#[test]
fn fig1_two_pass_stream_is_golden() {
    let golden = "\
compact.begin tasks=6 pes=4 max_passes=2
startup.begin tasks=6 pes=4
startup.pick cs=1 rank=0 node=n0 pf=0
startup.place node=n0 pe=0 cs=1 dur=1
startup.pick cs=2 rank=0 node=n1 pf=1
startup.pick cs=2 rank=1 node=n2 pf=0
startup.place node=n1 pe=0 cs=2 dur=2
startup.defer node=n2 cs=2
startup.pick cs=3 rank=0 node=n2 pf=0
startup.pick cs=3 rank=1 node=n3 pf=0
startup.place node=n2 pe=1 cs=3 dur=1
startup.defer node=n3 cs=3
startup.pick cs=4 rank=0 node=n4 pf=2
startup.pick cs=4 rank=1 node=n3 pf=0
startup.defer node=n4 cs=4
startup.place node=n3 pe=0 cs=4 dur=1
startup.pick cs=5 rank=0 node=n4 pf=1
startup.place node=n4 pe=0 cs=5 dur=2
startup.pick cs=6 rank=0 node=n5 pf=2
startup.defer node=n5 cs=6
startup.pick cs=7 rank=0 node=n5 pf=1
startup.place node=n5 pe=0 cs=7 dur=1
traffic.edge edge=e0 n0->n1 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e1 n0->n2 pe=0->1 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e2 n0->n4 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e3 n1->n3 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e4 n1->n4 pe=0->0 hops=0 vol=2 cost=0 crossing=false
traffic.edge edge=e5 n2->n4 pe=1->0 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e6 n3->n0 pe=0->0 hops=0 vol=3 cost=0 crossing=false
traffic.edge edge=e7 n3->n5 pe=0->0 hops=0 vol=2 cost=0 crossing=false
traffic.edge edge=e8 n4->n5 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e9 n5->n4 pe=0->0 hops=0 vol=1 cost=0 crossing=false
startup.end len=7
pass.begin pass=1 len=7 rows=1
pass.rotate nodes=[n0]
remap.candidate node=n0 target=6 pe=0 lb=1 ub=6 comm=1 verdict=busy
remap.candidate node=n0 target=6 pe=1 lb=1 ub=5 comm=5 verdict=leading cs=1 impact=3
remap.candidate node=n0 target=6 pe=2 lb=1 ub=5 comm=7 verdict=feasible cs=1 impact=3
remap.candidate node=n0 target=6 pe=3 lb=1 ub=4 comm=11 verdict=feasible cs=1 impact=5
remap.place node=n0 pe=1 cs=1 dur=1 target=6 impact=3 comm=5 runner_up=pe3@cs1(impact=3,comm=7)
traffic.edge edge=e0 n0->n1 pe=1->0 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e1 n0->n2 pe=1->1 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e2 n0->n4 pe=1->0 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e6 n3->n0 pe=0->1 hops=1 vol=3 cost=3 crossing=true
pass.stats edges=16 slots=4 scratch=0 oracle=2
pass.end pass=1 accepted=true len=6
schedule.occupancy pass=1 busy=8 holes=0 used_pes=2 len=6
compact.best pass=1 len=6
pass.begin pass=2 len=6 rows=1
pass.rotate nodes=[n1,n0]
remap.candidate node=n1 target=5 pe=0 lb=1 ub=5 comm=0 verdict=busy
remap.candidate node=n1 target=5 pe=1 lb=1 ub=5 comm=3 verdict=leading cs=2 impact=3
remap.candidate node=n1 target=5 pe=2 lb=1 ub=5 comm=3 verdict=leading cs=1 impact=2
remap.candidate node=n1 target=5 pe=3 lb=1 ub=3 comm=6 verdict=feasible cs=1 impact=4
remap.place node=n1 pe=2 cs=1 dur=2 target=5 impact=2 comm=3 runner_up=pe2@cs2(impact=3,comm=3)
remap.candidate node=n0 target=5 pe=0 lb=1 ub=4 comm=2 verdict=leading cs=1 impact=2
remap.candidate node=n0 target=5 pe=1 lb=1 ub=3 comm=6 verdict=feasible cs=2 impact=4
remap.candidate node=n0 target=5 pe=2 lb=1 ub=5 comm=6 verdict=feasible cs=3 impact=3
remap.candidate node=n0 target=5 pe=3 lb=4 ub=4 comm=10 verdict=feasible cs=4 impact=5
remap.place node=n0 pe=0 cs=1 dur=1 target=5 impact=2 comm=2 runner_up=pe3@cs3(impact=3,comm=6)
traffic.edge edge=e0 n0->n1 pe=0->2 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e1 n0->n2 pe=0->1 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e2 n0->n4 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e3 n1->n3 pe=2->0 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e4 n1->n4 pe=2->0 hops=1 vol=2 cost=2 crossing=true
traffic.edge edge=e6 n3->n0 pe=0->0 hops=0 vol=3 cost=0 crossing=false
pass.stats edges=24 slots=8 scratch=0 oracle=2
pass.end pass=2 accepted=true len=5
schedule.occupancy pass=2 busy=8 holes=0 used_pes=3 len=5
compact.best pass=2 len=5
traffic.edge edge=e0 n0->n1 pe=0->2 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e1 n0->n2 pe=0->1 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e2 n0->n4 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e3 n1->n3 pe=2->0 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e4 n1->n4 pe=2->0 hops=1 vol=2 cost=2 crossing=true
traffic.edge edge=e5 n2->n4 pe=1->0 hops=1 vol=1 cost=1 crossing=true
traffic.edge edge=e6 n3->n0 pe=0->0 hops=0 vol=3 cost=0 crossing=false
traffic.edge edge=e7 n3->n5 pe=0->0 hops=0 vol=2 cost=0 crossing=false
traffic.edge edge=e8 n4->n5 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.edge edge=e9 n5->n4 pe=0->0 hops=0 vol=1 cost=0 crossing=false
traffic.pe pe=0 tasks=4 busy=5
traffic.pe pe=1 tasks=1 busy=1
traffic.pe pe=2 tasks=1 busy=2
traffic.pe pe=3 tasks=0 busy=0
compact.end init=7 best=5 passes=2 floor=3";
    let stream = render_stream().join("\n");
    assert_eq!(
        stream, golden,
        "trace stream drifted; if the change is intentional, update the golden"
    );
}

/// The exact Chrome-trace bytes of the same stream under the logical
/// clock.  Debug builds only, for the same `oracle_calls` reason.  The
/// debug CLI writes the same bytes, which is how to regenerate the file
/// after an intentional exporter or scheduler change:
///
/// ```text
/// cyclosched workloads fig1 > fig1.csdfg
/// cyclosched schedule fig1.csdfg --machine mesh:2x2 --passes 2 \
///     --trace crates/ccs-bench/tests/golden/fig1_mesh2x2_two_pass.chrome.json
/// ```
#[cfg(debug_assertions)]
#[test]
fn fig1_two_pass_chrome_export_is_golden() {
    let actual = to_chrome(&record_stream(), Clock::Logical);
    let stats = validate_chrome(&actual).expect("export passes trace-check");
    assert_eq!(stats.spans, 4, "startup, two passes, cyclo_compact");
    assert_eq!(
        actual,
        include_str!("golden/fig1_mesh2x2_two_pass.chrome.json"),
        "Chrome export drifted; if intentional, regenerate the golden with a debug build \
         of the CLI (see this test's doc comment)"
    );
}

/// The exact `--explain` narrative of the same stream, with the
/// top-5 ledger-diff notes spliced under each accepted pass as the
/// CLI does.  Debug builds only, for the same `oracle_calls` reason
/// (the `stats:` lines print it).  The debug CLI prints the same text
/// after the schedule table, which is how to regenerate the file after
/// an intentional narrative or scheduler change:
///
/// ```text
/// cyclosched workloads fig1 > fig1.csdfg
/// cyclosched schedule fig1.csdfg --machine mesh:2x2 --passes 2 --explain \
///     | sed -n '/^cyclo-compact:/,$p' \
///     > crates/ccs-bench/tests/golden/fig1_mesh2x2_two_pass.explain.txt
/// ```
#[cfg(debug_assertions)]
#[test]
fn fig1_two_pass_explain_is_golden() {
    let g = ccs_workloads::paper::fig1_example();
    let machine = Machine::mesh(2, 2);
    let events = record_stream();
    let name = |n: u32| g.name(NodeId::from_index(n as usize)).to_string();
    let profile = ccs_profile::build(&events, &machine);
    let actual = ccs_profile::explain_run(&events, &profile, &machine, name);
    assert_eq!(
        actual,
        include_str!("golden/fig1_mesh2x2_two_pass.explain.txt"),
        "explain narrative drifted; if intentional, regenerate the golden with a debug build \
         of the CLI (see this test's doc comment)"
    );
}

/// Structural invariants of the stream, build-profile independent.
#[test]
fn stream_brackets_and_repeats_deterministically() {
    let a = render_stream();
    let b = render_stream();
    assert_eq!(a, b, "same run must emit the same event stream");

    let g = ccs_workloads::paper::fig1_example();
    let machine = Machine::mesh(2, 2);
    let (_, events) = record(|| cyclo_compact(&g, &machine, two_pass_config()));
    assert!(matches!(
        events.first().map(|t| &t.event),
        Some(Event::CompactBegin { .. })
    ));
    assert!(matches!(
        events.last().map(|t| &t.event),
        Some(Event::CompactEnd { .. })
    ));
    let begins = events
        .iter()
        .filter(|t| matches!(t.event, Event::PassBegin { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|t| matches!(t.event, Event::PassEnd { .. }))
        .count();
    assert_eq!(begins, 2);
    assert_eq!(ends, 2);
    // Recorder timestamps are monotone.
    assert!(events.windows(2).all(|w| w[0].ns <= w[1].ns));
}

/// Tracing must not change the scheduling outcome.
#[test]
fn traced_outcome_matches_untraced() {
    let g = ccs_workloads::paper::fig1_example();
    let machine = Machine::mesh(2, 2);
    let plain = cyclo_compact(&g, &machine, two_pass_config()).expect("legal");
    let (traced, _) = record(|| cyclo_compact(&g, &machine, two_pass_config()));
    let traced = traced.expect("legal");
    assert_eq!(plain.best_length, traced.best_length);
    assert_eq!(plain.initial_length, traced.initial_length);
    let a: Vec<_> = plain.schedule.placements().collect();
    let b: Vec<_> = traced.schedule.placements().collect();
    assert_eq!(a, b);
}
