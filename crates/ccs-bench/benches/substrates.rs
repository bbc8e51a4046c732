//! Criterion benchmarks of the substrate crates (B4-B5): topology
//! builds, distance queries and machine checks, retiming analyses,
//! schedule-table operations, simulator throughput, and the
//! observability consumers (Chrome export, report and diff pages).

use ccs_analyze::analyze_machine;
use ccs_bounds::compute_bounds;
use ccs_core::{cyclo_compact, startup_schedule, CompactConfig, StartupConfig};
use ccs_model::{Csdfg, NodeId};
use ccs_report::diff::{render_diff_report, DiffInput, DiffSide};
use ccs_report::{render_report, ReportInput};
use ccs_retiming::{clock_period, critical_cycle, iteration_bound};
use ccs_schedule::Schedule;
use ccs_sim::{replay_static, run_self_timed};
use ccs_topology::{parse_spec, Machine, Pe};
use ccs_trace::chrome::{to_chrome, Clock};
use ccs_workloads::{random_csdfg, OpTimes, RandomGraphConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A copy of `g` that keeps no derived fact (one delay rewritten to its
/// own value drops them), so an analysis timed on it computes the
/// zero-delay order and the iteration bound as a job's first read
/// does.  Each timed iteration includes the copy.
fn uncached(g: &Csdfg) -> Csdfg {
    let mut fresh = g.clone();
    if let Some(e) = g.deps().next() {
        fresh.set_delay(e, g.delay(e));
    }
    fresh
}

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group.bench_function("build/hypercube_10", |b| {
        b.iter(|| Machine::hypercube(black_box(10)))
    });
    let m = Machine::hypercube(10);
    group.bench_function("distance/hypercube_10", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in (0..1024).step_by(37) {
                for j in (0..1024).step_by(41) {
                    acc += u64::from(m.distance(Pe(i), Pe(j)));
                }
            }
            acc
        })
    });
    group.bench_function("build/mesh_32x32", |b| b.iter(|| Machine::mesh(32, 32)));
    // The machine layer of a perfbench `manype-compact` job: the spec
    // parse, Pass A's machine checks, and the communication bound.
    group.bench_function("parse_spec/complete_128", |b| {
        b.iter(|| parse_spec(black_box("complete:128")))
    });
    let mesh = Machine::mesh(32, 32);
    group.bench_function("analyze_machine/mesh_32x32", |b| {
        b.iter(|| analyze_machine(black_box(&mesh)))
    });
    // One route on a fresh machine: its first read builds the
    // adjacency and fills one destination's row of BFS parents.
    group.bench_function("route/mesh_32x32", |b| {
        b.iter(|| Machine::mesh(32, 32).route(Pe(0), black_box(Pe(1023))))
    });
    let g = random_csdfg(
        RandomGraphConfig {
            nodes: 96,
            back_edges: 32,
            forward_density: 0.03,
            ..Default::default()
        },
        5,
    );
    group.bench_function("compute_bounds/mesh_32x32_96n", |b| {
        b.iter(|| compute_bounds(&uncached(black_box(&g)), &mesh))
    });
    group.finish();
}

fn bench_retiming(c: &mut Criterion) {
    let mut group = c.benchmark_group("retiming");
    let config = |nodes: usize| RandomGraphConfig {
        nodes,
        back_edges: nodes / 3,
        ..Default::default()
    };
    let mut graphs: Vec<(usize, Csdfg)> = [16usize, 48, 96]
        .into_iter()
        .map(|n| (n, random_csdfg(config(n), 5)))
        .collect();
    // The sparse shape of perfbench's `large-certify` graphs (about
    // five edges per node) at its upper size.
    graphs.push((
        200,
        random_csdfg(
            RandomGraphConfig {
                forward_density: 8.0 / 200.0,
                ..config(200)
            },
            5,
        ),
    ));
    let machine = Machine::mesh(8, 8);
    for (nodes, g) in &graphs {
        group.bench_with_input(BenchmarkId::new("iteration_bound", nodes), g, |b, g| {
            b.iter(|| iteration_bound(&uncached(black_box(g))))
        });
        group.bench_with_input(BenchmarkId::new("min_clock_period", nodes), g, |b, g| {
            b.iter(|| clock_period::min_clock_period(&uncached(black_box(g))))
        });
        group.bench_with_input(BenchmarkId::new("critical_cycle", nodes), g, |b, g| {
            b.iter(|| critical_cycle(&uncached(black_box(g))))
        });
        group.bench_with_input(BenchmarkId::new("compute_bounds", nodes), g, |b, g| {
            b.iter(|| compute_bounds(&uncached(black_box(g)), &machine))
        });
    }
    group.finish();
}

fn bench_schedule_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_table");
    group.bench_function("place_remove_1k", |b| {
        b.iter(|| {
            let mut s = Schedule::new(8);
            for i in 0..1000usize {
                let pe = Pe((i % 8) as u32);
                let cs = (i / 8 * 3 + 1) as u32;
                s.place(NodeId::from_index(i), pe, cs, 2).unwrap();
            }
            for i in 0..1000usize {
                s.remove(NodeId::from_index(i)).unwrap();
            }
            s
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    let g = ccs_workloads::filters::elliptic_wave_filter(OpTimes::default());
    let machine = Machine::hypercube(3);
    let s = startup_schedule(&g, &machine, StartupConfig::default()).unwrap();
    group.bench_function("replay_static/elliptic_x100", |b| {
        b.iter(|| replay_static(black_box(&g), &machine, &s, 100))
    });
    group.bench_function("self_timed/elliptic_x100", |b| {
        b.iter(|| run_self_timed(black_box(&g), &machine, &s, 100))
    });
    group.finish();
}

/// The artifact writers of a `--trace`, `--report` and `--report-diff`
/// job on one recorded `elliptic` x `mesh:4x4` run (the diff page
/// compares the run with itself, as `--diff-policy reference` does).
fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("observe");
    // One iteration is a whole artifact (2-20 ms), so one sample holds
    // one call; take more than the default ten.
    group.sample_size(40);
    let g = ccs_workloads::filters::elliptic_wave_filter(OpTimes::default());
    let m = Machine::mesh(4, 4);
    let (outcome, events) = ccs_trace::record(|| cyclo_compact(&g, &m, CompactConfig::default()));
    let best = outcome.expect("legal").best_length;
    let profile = ccs_profile::build(&events, &m);
    let certificate = ccs_bounds::certify_period(&g, &m, best);
    let name = |n: u32| g.name(NodeId::from_index(n as usize)).to_string();
    group.bench_function("to_chrome/elliptic_mesh4x4", |b| {
        b.iter(|| to_chrome(black_box(&events), Clock::Logical))
    });
    group.bench_function("render_report/elliptic_mesh4x4", |b| {
        b.iter(|| {
            render_report(
                &ReportInput {
                    title: "elliptic on mesh:4x4",
                    events: black_box(&events),
                    machine: &m,
                    profile: &profile,
                    certificate: Some(&certificate),
                },
                name,
            )
        })
    });
    let side = || DiffSide {
        label: "mesh:4x4",
        events: black_box(&events),
        machine: &m,
        profile: &profile,
        certificate: Some(&certificate),
    };
    group.bench_function("render_diff_report/elliptic_mesh4x4", |b| {
        b.iter(|| {
            render_diff_report(
                &DiffInput {
                    title: "elliptic: mesh:4x4 vs itself",
                    a: side(),
                    b: side(),
                },
                name,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_topology,
    bench_retiming,
    bench_schedule_table,
    bench_simulator,
    bench_observe
);
criterion_main!(benches);
