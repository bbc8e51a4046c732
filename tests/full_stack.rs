//! Cross-crate integration: every workload x every machine family,
//! through the full pipeline (model -> schedule -> validate -> retime
//! -> simulate), plus serialization round trips.

use cyclosched::model::{parser, spec::CsdfgSpec, transform};
use cyclosched::prelude::*;

fn all_machines() -> Vec<Machine> {
    let mut m = Machine::paper_suite();
    m.extend([
        Machine::torus(2, 3),
        Machine::star(5),
        Machine::binary_tree(7),
        Machine::complete(3),
        Machine::linear_array(2),
    ]);
    m
}

#[test]
fn every_workload_on_every_machine() {
    for w in cyclosched::workloads::all_workloads() {
        let g = w.build();
        for machine in all_machines() {
            let r = cyclo_compact(&g, &machine, CompactConfig::default())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, machine.name()));
            validate(&r.graph, &machine, &r.schedule)
                .unwrap_or_else(|v| panic!("{} on {}: {v:?}", w.name, machine.name()));
            assert!(r.best_length <= r.initial_length);
            let replay = replay_static(&r.graph, &machine, &r.schedule, 8);
            assert!(replay.is_valid(), "{} on {}", w.name, machine.name());
        }
    }
}

#[test]
fn slowdown_workloads_schedule_cleanly() {
    for name in ["elliptic", "lattice"] {
        let base = cyclosched::workloads::workload_by_name(name)
            .unwrap()
            .build();
        let g = transform::slowdown(&base, 3);
        for machine in Machine::paper_suite() {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
            validate(&r.graph, &machine, &r.schedule).unwrap();
            // Slow-down creates slack: the compacted schedule must beat
            // the start-up schedule on every machine.
            assert!(
                r.best_length < r.initial_length,
                "{name} on {}: {} !< {}",
                machine.name(),
                r.best_length,
                r.initial_length
            );
        }
    }
}

#[test]
fn compacted_length_respects_iteration_bound_after_slowdown() {
    let base = cyclosched::workloads::workload_by_name("lattice")
        .unwrap()
        .build();
    for f in 1..=4u32 {
        let g = transform::slowdown(&base, f);
        let bound = iteration_bound(&g).unwrap();
        let r = cyclo_compact(&g, &Machine::complete(8), CompactConfig::default()).unwrap();
        assert!(u64::from(r.best_length) >= bound.ceil(), "slowdown {f}");
    }
}

#[test]
fn graphs_survive_text_and_spec_round_trips_through_the_scheduler() {
    let g = cyclosched::workloads::paper::fig7_example();
    let machine = Machine::mesh(4, 2);
    let direct = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();

    // text format
    let text = parser::write(&g);
    let g2 = parser::parse(&text).unwrap();
    let via_text = cyclo_compact(&g2, &machine, CompactConfig::default()).unwrap();
    assert_eq!(via_text.best_length, direct.best_length);

    // serde spec
    let spec = CsdfgSpec::from(&g);
    let g3 = spec.build().unwrap();
    let via_spec = cyclo_compact(&g3, &machine, CompactConfig::default()).unwrap();
    assert_eq!(via_spec.best_length, direct.best_length);
}

#[test]
fn unfolded_graphs_still_schedule() {
    let base = cyclosched::workloads::paper::fig1_example();
    let g = transform::unfold(&base, 2);
    let machine = Machine::mesh(2, 2);
    let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
    validate(&r.graph, &machine, &r.schedule).unwrap();
    // 2 iterations per schedule: per-iteration cost is length/2.
    assert!(r.best_length >= 2);
}

#[test]
fn random_graph_stress() {
    use cyclosched::workloads::{random_csdfg, RandomGraphConfig};
    let cfg = RandomGraphConfig {
        nodes: 24,
        back_edges: 8,
        ..Default::default()
    };
    for seed in 0..12 {
        let g = random_csdfg(cfg, seed);
        let machine = Machine::hypercube(3);
        let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
        validate(&r.graph, &machine, &r.schedule).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        let replay = replay_static(&r.graph, &machine, &r.schedule, 6);
        assert!(replay.is_valid(), "seed {seed}");
        let st = run_self_timed(&r.graph, &machine, &r.schedule, 30);
        assert!(
            st.initiation_interval <= f64::from(r.best_length) + 1e-9,
            "seed {seed}"
        );
    }
}

#[test]
fn minimum_clock_period_lower_bounds_single_cycle_machines() {
    // On an ideal machine with unlimited PEs, the compacted length can
    // approach the min clock period; it can never beat the iteration
    // bound ceiling.
    let g = cyclosched::workloads::paper::fig1_example();
    let (phi, _) = cyclosched::retiming::clock_period::min_clock_period(&g);
    let machine = Machine::ideal(6);
    let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
    let bound = iteration_bound(&g).unwrap();
    assert!(u64::from(r.best_length) >= bound.ceil());
    // phi is itself >= the bound's ceiling.
    assert!(u64::from(phi) >= bound.ceil());
}

/// A job pays for the hop rows of the PEs it places tasks on.  Pass A,
/// the validator and the PSL ledger read distances from the closed
/// form; start-up and the passes fill a row only for a PE that hosts a
/// placed task.  Checked on a 96-node compaction on the 1,024-PE mesh:
/// every row the recorded run fills belongs to a PE one of its
/// `StartupPlace` or `Placed` events names, and an unrecorded run
/// fills the same rows.
#[test]
fn a_compaction_fills_only_the_hop_rows_of_the_pes_it_places_on() {
    use cyclosched::trace::Event;
    use cyclosched::workloads::{random_csdfg, RandomGraphConfig};
    use std::collections::BTreeSet;
    let cfg = RandomGraphConfig {
        nodes: 96,
        back_edges: 32,
        forward_density: 0.03,
        ..Default::default()
    };
    let g = random_csdfg(cfg, 7);
    let spec = "mesh:32x32";
    let machine = cyclosched::topology::parse_spec(spec).unwrap();
    let mut pass_a = cyclosched::analyze::analyze_machine(&machine);
    pass_a.merge(cyclosched::analyze::analyze_cross(&g, &machine));
    assert!(!pass_a.has_errors());
    assert!(machine.filled_rows().is_empty(), "Pass A filled a row");
    let (r, events) = cyclosched::trace::record(|| {
        cyclo_compact(&g, &machine, CompactConfig::default()).unwrap()
    });
    let named: BTreeSet<Pe> = events
        .iter()
        .filter_map(|t| match &t.event {
            Event::StartupPlace(p) => Some(Pe(p.pe)),
            Event::Placed(p) => Some(Pe(p.pe)),
            _ => None,
        })
        .collect();
    let filled = machine.filled_rows();
    assert!(!filled.is_empty());
    assert!(
        filled.iter().all(|p| named.contains(p)),
        "filled {filled:?}, named {named:?}"
    );
    validate(&r.graph, &machine, &r.schedule).unwrap();
    assert_eq!(machine.filled_rows(), filled, "validation filled a row");
    let plain = cyclosched::topology::parse_spec(spec).unwrap();
    let q = cyclo_compact(&g, &plain, CompactConfig::default()).unwrap();
    assert_eq!(q.schedule, r.schedule);
    assert_eq!(plain.filled_rows(), filled);
}

/// A recorded compaction on `mesh:32x32`, then its profile, report and
/// `--explain` notes: the consumers route toward the destination PEs of
/// the crossing `traffic.edge` rows, and fill no other route row.
#[test]
fn observing_a_run_fills_only_the_route_rows_its_traffic_reaches() {
    use cyclosched::trace::Event;
    use cyclosched::workloads::{random_csdfg, RandomGraphConfig};
    use std::collections::BTreeSet;
    let cfg = RandomGraphConfig {
        nodes: 96,
        back_edges: 32,
        forward_density: 0.03,
        ..Default::default()
    };
    let g = random_csdfg(cfg, 7);
    let machine = cyclosched::topology::parse_spec("mesh:32x32").unwrap();
    let (_, events) = cyclosched::trace::record(|| {
        cyclo_compact(&g, &machine, CompactConfig::default()).unwrap()
    });
    // Builds with the oracle check the bound family after compaction,
    // and the communication bound's witness routes one pair.
    let witness = machine.filled_routes();
    assert!(witness.len() <= 1, "compaction routed toward {witness:?}");
    let reached: BTreeSet<Pe> = events
        .iter()
        .filter_map(|t| match &t.event {
            Event::EdgeTraffic(e) if e.crossing() => Some(Pe(e.dst_pe)),
            _ => None,
        })
        .collect();
    let name = |n: u32| {
        g.name(cyclosched::model::NodeId::from_index(n as usize))
            .to_string()
    };
    let profile = cyclosched::profile::build(&events, &machine);
    let _page = cyclosched::report::render_report(
        &cyclosched::report::ReportInput {
            title: "random96 on mesh:32x32",
            events: &events,
            machine: &machine,
            profile: &profile,
            certificate: None,
        },
        name,
    );
    let notes = cyclosched::profile::pass_diff_notes(&profile, &machine, 5, name);
    assert!(!notes.is_empty(), "the run moved traffic");
    let filled = machine.filled_routes();
    assert!(filled.len() > witness.len());
    let stray: Vec<&Pe> = filled
        .iter()
        .filter(|p| !reached.contains(p) && !witness.contains(p))
        .collect();
    assert!(stray.is_empty(), "filled {stray:?} beyond {reached:?}");
    assert!(
        filled.len() < machine.num_pes() / 8,
        "{} rows",
        filled.len()
    );
}

/// One job shaped like `cyclosched schedule --certify`, on a freshly
/// parsed graph: Pass A sorts the zero-delay view (`analyze_graph`)
/// and computes the iteration bound (`analyze_cross`), and every later
/// reader of the input graph — start-up, the compaction floor, the
/// certificate, and the debug oracle's bound check — reads the facts
/// the graph kept.
#[test]
fn a_certify_job_derives_each_fact_of_its_graph_once() {
    use cyclosched::model::Fills;
    use cyclosched::workloads::{random_csdfg, RandomGraphConfig};
    let cfg = RandomGraphConfig {
        nodes: 200,
        back_edges: 66,
        forward_density: 0.03,
        ..Default::default()
    };
    let g = parser::parse(&parser::write(&random_csdfg(cfg, 7))).unwrap();
    let m = cyclosched::topology::parse_spec("mesh:8x8").unwrap();
    let fills = |topo, bound| Fills { topo, bound };
    assert_eq!(g.fills(), fills(0, 0));
    assert!(!cyclosched::analyze::analyze_graph(&g).has_errors());
    assert_eq!(g.fills(), fills(1, 0));
    let mut pass_a = cyclosched::analyze::analyze_machine(&m);
    pass_a.merge(cyclosched::analyze::analyze_cross(&g, &m));
    assert!(!pass_a.has_errors());
    assert_eq!(g.fills(), fills(1, 1));
    let r = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
    assert!(!r.history.is_empty(), "the passes ran");
    validate(&r.graph, &m, &r.schedule).unwrap();
    let report = cyclosched::bounds::certify_period(&g, &m, r.best_length);
    assert!(report.bounds.best_value() > 0);
    assert_eq!(g.fills(), fills(1, 1));
}
