//! Hot-path regression benchmark: wall-times the compaction-heavy
//! experiments and fingerprints every schedule on the paper suite, so
//! optimization PRs can prove both "faster" and "bit-identical".
//!
//! Usage:
//!
//! ```text
//! bench_hotpath [--json PATH] [--baseline PATH] [--seeds N] [--reps N]
//! ```
//!
//! * `--json PATH` — write the machine-readable report (timings in ms,
//!   schedule lengths, placement fingerprints) to `PATH`.  Every
//!   compaction also records a `{key}#retimed` fingerprint of the
//!   delays of its returned graph and its retiming.
//! * `--baseline PATH` — also read a previous report from `PATH`,
//!   embed its timings as `baseline_timings_ms`, compute per-experiment
//!   `speedup`, and fail (exit 1) if any schedule fingerprint differs.
//! * `--seeds N` — random-sweep seeds per cell (default 10).
//! * `--reps N` — timing repetitions, median reported (default 3).
//!
//! A `candidate_scan/*` section times the remapper's one candidate
//! sweep with pruning ([`ccs_core::ScanPolicy::Engine`]) and without
//! ([`ccs_core::ScanPolicy::Reference`]) on the many-PE machines and
//! asserts — every invocation — that both land on bit-identical
//! schedules; the per-machine ratio, i.e. what pruning buys, is
//! reported as `candidate_scan_speedup`.
//!
//! A certificate size tier times `certify_period` on the 1,000-,
//! 4,000- and 8,000-task one-SCC chains on `mesh:4x4` (timings
//! `certify_period/*`) and fingerprints each certificate's JSON
//! (`certify/*`).
//!
//! `job_certify_mesh8x8_200n` runs a whole `schedule --csv --certify`
//! job in-process — parse, Pass A, compaction, validation, the CSV and
//! the certificate — on a 200-node graph shaped like perfbench
//! `large-certify`'s on `mesh:8x8`, and fingerprints the CSV and the
//! certificate JSON.
//!
//! A big-machine tier times what a job on `mesh:32x32` pays for its
//! machine: `machine/mesh32x32` parses the spec and runs the Pass A
//! machine checks (fingerprinting their diagnostics), and
//! `compact_mesh32x32_96n` builds the machine and compacts a 96-node
//! graph shaped like perfbench `manype-compact`'s on it;
//! `compact_mesh64x64_96n` compacts the same graph on `mesh:64x64`.
//! `observe_mesh64x64_2n` records a two-task loop on `mesh:64x64` and
//! builds its profile, `--report` page and `--explain` text.
//!
//! Kernel keys time the paper's stages and the substrates one at a
//! time and fingerprint each output: `startup_schedule/*` (§3 start-up
//! on mesh:4x2), `rotate_remap_pass/*` (one §4 pass of fig7),
//! `retiming/*` (iteration bound, critical cycle, minimum clock period
//! and the bound family on 16- to 200-node graphs), `topology/*`
//! (machine build, distances, spec parse, one route and the bound
//! family on mesh:32x32), `schedule_table/place_remove_1k`,
//! `simulator/*` (static replay and self-timed execution of elliptic
//! x100) and, inside `artifact_bytes`, `observe/*` (the Chrome export,
//! report page and diff page of each recorded elliptic run).
//!
//! Every key whose call may fill what a graph or machine keeps (the
//! zero-delay order, the iteration bound, hop rows, routes) reads a
//! fresh graph and machine each repetition — a re-parse, a rebuild, or
//! an [`uncached`] graph copy made before the clock starts — so no
//! repetition reads what an earlier one kept, and each times what a
//! job pays.  A key whose one call takes under about a millisecond
//! runs [`BATCH`] calls a repetition and reports ms per call.
//!
//! Every timed section but `observe_mesh64x64_2n` runs with **no trace
//! sink installed** (asserted), so the numbers measure the
//! uninstrumented hot path.
//! A separate, untimed instrumented run afterwards feeds a
//! [`ccs_trace::metrics::MetricsSink`] and lands in the report as the
//! `"metrics"` section (per-phase counters + wall-time histograms),
//! and a profiled grid sweep lands as `"cells"` (per-cell counters,
//! deterministic — the part `bench-report` diffs between reports).
//! `"artifact_bytes"` records what a recorded `elliptic` run writes on
//! three machine sizes — the report page, the diff page, the heatmap
//! SVG, the `--trace` file and the `--explain` text, rendered
//! in-process — plus the report, trace and explain bytes of `fig1` on
//! `mesh:4x2`, a run that stops at its proven floor, and
//! `bench-report` gates their growth.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hint::black_box;
use std::time::Instant;

use ccs_bench::experiments::random_sweep;
use ccs_bench::uncached;
use ccs_bounds::compute_bounds;
use ccs_core::{
    cyclo_compact, rotate_remap_in_place, startup_schedule, CompactConfig, RemapConfig,
    StartupConfig,
};
use ccs_model::{Csdfg, NodeId};
use ccs_report::diff::{render_diff_report, DiffInput, DiffSide};
use ccs_report::{render_report, ReportInput};
use ccs_retiming::{critical_cycle, iteration_bound, min_clock_period};
use ccs_schedule::Schedule;
use ccs_topology::{parse_spec, Machine, Pe};
use ccs_trace::metrics::MetricsSink;
use ccs_workloads::random::{random_csdfg, RandomGraphConfig};
use serde_json::Value;

/// Calls a repetition of a key whose one call takes under about a
/// millisecond.
const BATCH: usize = 50;

/// FNV-1a 64-bit over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fingerprint of a text output.
fn text_print(text: &str) -> String {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.hex()
}

/// Fingerprint of a plain value (a ratio, retiming, bound set, route
/// or simulator report) by its `Debug` text.
fn debug_print(x: &impl Debug) -> String {
    text_print(&format!("{x:?}"))
}

/// Stable fingerprint of a schedule: every placement (node-id order)
/// plus the table dimensions and reported length.
fn fingerprint(s: &ccs_schedule::Schedule) -> String {
    let mut h = Fnv::new();
    h.write_u64(s.num_pes() as u64);
    h.write_u64(u64::from(s.length()));
    for (node, slot) in s.placements() {
        h.write_u64(node.index() as u64);
        h.write_u64(u64::from(slot.pe.0));
        h.write_u64(u64::from(slot.start));
        h.write_u64(u64::from(slot.duration));
    }
    h.hex()
}

/// Stable fingerprint of what a compaction returns besides its
/// schedule: the delay of every edge of [`ccs_core::Compaction::graph`]
/// (edge-id order) and the retiming of every task (node-id order).
fn retimed_fingerprint(r: &ccs_core::Compaction) -> String {
    let mut h = Fnv::new();
    for e in r.graph.deps() {
        h.write_u64(u64::from(r.graph.delay(e)));
    }
    for v in r.graph.tasks() {
        h.write(&r.retiming.get(v).to_le_bytes());
    }
    h.hex()
}

/// Records both fingerprints of compaction `r` under `key`: the
/// schedule's, and the retimed graph's as `{key}#retimed`.
fn insert_prints(prints: &mut BTreeMap<String, String>, key: &str, r: &ccs_core::Compaction) {
    prints.insert(key.to_string(), fingerprint(&r.schedule));
    prints.insert(format!("{key}#retimed"), retimed_fingerprint(r));
}

fn machine_suite() -> Vec<Machine> {
    vec![
        Machine::linear_array(8),
        Machine::mesh(4, 2),
        Machine::complete(8),
        Machine::hypercube(3),
    ]
}

/// Every root section a BENCH report may carry, in emission order.
/// The last three appear only when `--baseline` is given.
///
/// This is the producer side of the `bench-section-gated` drift pass:
/// `report_diff` must claim each section as gated or ungated, and the
/// assert in `main` keeps this declaration honest against the report
/// actually assembled.
const BENCH_SECTIONS: [&str; 13] = [
    "version",
    "seeds",
    "timings_ms",
    "schedule_lengths",
    "fingerprints",
    "bounds",
    "metrics",
    "cells",
    "candidate_scan_speedup",
    "artifact_bytes",
    "baseline_timings_ms",
    "speedup",
    "fingerprint_mismatches",
];

/// The timed keys of a run: the median ms per call and the output
/// fingerprint, by key.
#[derive(Default)]
struct Keys {
    timings: BTreeMap<String, f64>,
    prints: BTreeMap<String, String>,
}

impl Keys {
    /// Records the time of `key` and the fingerprint of its output.
    fn record(&mut self, key: impl Into<String>, ms: f64, print: String) {
        let key = key.into();
        self.timings.insert(key.clone(), ms);
        self.prints.insert(key, print);
    }
}

/// Times `f` on `calls` inputs a repetition, each made by `fresh`
/// before the repetition's clock starts, and returns the median over
/// `reps` repetitions of the ms per call, with the last output.
fn time_fresh<I, T>(
    reps: usize,
    calls: usize,
    mut fresh: impl FnMut() -> I,
    mut f: impl FnMut(&mut I) -> T,
) -> (f64, T) {
    let mut out = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let mut inputs: Vec<I> = (0..calls).map(|_| fresh()).collect();
        let t0 = Instant::now();
        for input in &mut inputs {
            out = Some(black_box(f(black_box(input))));
        }
        times.push(t0.elapsed().as_secs_f64() * 1e3 / calls as f64);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out.expect("at least one call"))
}

/// [`time_fresh`] of `calls` calls a repetition that read no input.
fn time_calls<T>(reps: usize, calls: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    time_fresh(reps, calls, || (), |()| f())
}

/// A random graph shaped like perfbench's: `nodes / 3` back edges and
/// forward density `density`.
fn random(nodes: usize, density: f64, seed: u64) -> Csdfg {
    random_csdfg(
        RandomGraphConfig {
            nodes,
            back_edges: nodes / 3,
            forward_density: density,
            ..Default::default()
        },
        seed,
    )
}

/// The catalogue kernel `name`.
fn workload(name: &str) -> Csdfg {
    ccs_workloads::workload_by_name(name)
        .expect("catalogue kernel")
        .build()
}

/// Bytes of the artifacts one recorded `elliptic` run writes on each
/// machine, rendered in-process as the CLI renders them: the
/// `--report` page, the `--report-diff --diff-policy reference` page
/// (side B reruns the same machine with the unpruned reference scan),
/// the `--heatmap-svg` file, the `--trace` file (logical clock) and
/// the `--explain` narrative with its ledger-diff notes.  Pure
/// functions of deterministic event streams, so the counts are exact.
/// The Chrome export, report page and diff page of each machine are
/// timed as `observe/*` keys.
fn artifact_bytes(reps: usize, keys: &mut Keys) -> Vec<(String, Value)> {
    let g = workload("elliptic");
    let name = |n: u32| g.name(NodeId::from_index(n as usize)).to_string();
    let reference = CompactConfig {
        remap: ccs_core::RemapConfig {
            scan: ccs_core::ScanPolicy::Reference,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut bytes = Vec::new();
    for spec in ["mesh:4x4", "hypercube:6", "hypercube:8"] {
        let m = parse_spec(spec).expect("machine spec");
        let ((ra, ea), (rb, eb)) = ccs_trace::record_pair(
            || cyclo_compact(&g, &m, CompactConfig::default()),
            || cyclo_compact(&g, &m, reference),
        );
        let (ra, rb) = (ra.expect("legal"), rb.expect("legal"));
        let (pa, pb) = (ccs_profile::build(&ea, &m), ccs_profile::build(&eb, &m));
        let ca = ccs_bounds::certify_period(&g, &m, ra.best_length);
        let cb = ccs_bounds::grade(ca.bounds.clone(), rb.best_length);
        let (t_report, report) = time_calls(reps, 1, || {
            render_report(
                &ReportInput {
                    title: &format!("elliptic on {}", m.name()),
                    events: &ea,
                    machine: &m,
                    profile: &pa,
                    certificate: Some(&ca),
                },
                name,
            )
        });
        // Side B lands on the same schedule, so the diff page is short:
        // its key times a batch.
        let label_b = format!("{} (reference policy)", m.name());
        let (t_diff, diff) = time_calls(reps, BATCH, || {
            render_diff_report(
                &DiffInput {
                    title: &format!("elliptic: {} vs {label_b}", m.name()),
                    a: DiffSide {
                        label: m.name(),
                        events: &ea,
                        machine: &m,
                        profile: &pa,
                        certificate: Some(&ca),
                    },
                    b: DiffSide {
                        label: &label_b,
                        events: &eb,
                        machine: &m,
                        profile: &pb,
                        certificate: Some(&cb),
                    },
                },
                name,
            )
        });
        let svg = ccs_profile::render::heatmap_svg(&pa, ccs_profile::routable(&m));
        let (t_trace, trace) = time_calls(reps, 1, || {
            ccs_trace::chrome::to_chrome(&ea, ccs_trace::chrome::Clock::Logical)
        });
        let explain = ccs_profile::explain_run(&ea, &pa, &m, name);
        let slug = spec.replace(':', "");
        for (what, t, text) in [
            ("render_report", t_report, &report),
            ("render_diff_report", t_diff, &diff),
            ("to_chrome", t_trace, &trace),
        ] {
            let print = text_print(text);
            keys.record(format!("observe/{what}/elliptic_{slug}"), t, print);
        }
        for (what, len) in [
            ("report", report.len()),
            ("diff", diff.len()),
            ("heatmap_svg", svg.len()),
            ("trace", trace.len()),
            ("explain", explain.len()),
        ] {
            bytes.push((format!("elliptic/{spec}/{what}"), Value::UInt(len as u64)));
        }
    }
    // No `elliptic` run above meets its floor; `fig1` on `mesh:4x2`
    // does on pass 16 of 64, so these keys carry the stop.
    let g = ccs_workloads::paper::fig1_example();
    let name = |n: u32| g.name(NodeId::from_index(n as usize)).to_string();
    let m = Machine::mesh(4, 2);
    let (r, events) = ccs_trace::record(|| cyclo_compact(&g, &m, CompactConfig::default()));
    let r = r.expect("legal");
    let profile = ccs_profile::build(&events, &m);
    let certificate = ccs_bounds::certify_period(&g, &m, r.best_length);
    let report = render_report(
        &ReportInput {
            title: &format!("fig1 on {}", m.name()),
            events: &events,
            machine: &m,
            profile: &profile,
            certificate: Some(&certificate),
        },
        name,
    );
    let trace = ccs_trace::chrome::to_chrome(&events, ccs_trace::chrome::Clock::Logical);
    let explain = ccs_profile::explain_run(&events, &profile, &m, name);
    for (what, len) in [
        ("report", report.len()),
        ("trace", trace.len()),
        ("explain", explain.len()),
    ] {
        bytes.push((format!("fig1/mesh:4x2/{what}"), Value::UInt(len as u64)));
    }
    bytes
}

/// The paper's stages and the substrate kernels, one at a time: §3
/// start-up, one §4 rotate-remap pass, the retiming and bound kernels,
/// machine builds, distances and routes, the schedule table and the
/// simulator.  `random64` and `sparse96` are the graphs of
/// `compact_mesh8x8_64n` and `compact_mesh32x32_96n`.
fn kernels(reps: usize, keys: &mut Keys, random64: &Csdfg, sparse96: &Csdfg) {
    let fig7 = workload("fig7");
    let elliptic = workload("elliptic");
    for (name, g) in [
        ("fig1/6n", &workload("fig1")),
        ("fig7/19n", &fig7),
        ("elliptic/34n", &elliptic),
        ("random/64n", random64),
    ] {
        let fresh = || (uncached(g), Machine::mesh(4, 2));
        let start =
            |(g, m): &mut (Csdfg, Machine)| startup_schedule(g, m, StartupConfig::default());
        let (t, s) = time_fresh(reps, BATCH, fresh, start);
        let print = fingerprint(&s.expect("legal"));
        keys.record(format!("startup_schedule/{name}"), t, print);
    }

    // One pass of §4 on the start-up schedule of fig7; the key
    // fingerprints the pass's outcome, schedule and retimed delays.
    for spec in ["linear:8", "complete:8", "hypercube:3"] {
        let machine = || parse_spec(spec).expect("valid spec");
        let s = startup_schedule(&fig7, &machine(), StartupConfig::default()).expect("legal");
        let fresh = || (uncached(&fig7), machine(), s.clone());
        let pass = |(g, m, s): &mut (Csdfg, Machine, Schedule)| {
            rotate_remap_in_place(g, m, s, RemapConfig::default())
        };
        let (t, _) = time_fresh(reps, BATCH, fresh, pass);
        let mut after = fresh();
        let outcome = pass(&mut after);
        let (g, _, s) = &after;
        let delays: Vec<u32> = g.deps().map(|e| g.delay(e)).collect();
        let print = debug_print(&(fingerprint(s), outcome, delays));
        let slug = spec.replace(':', "");
        keys.record(format!("rotate_remap_pass/{slug}"), t, print);
    }

    // The sparse shape of perfbench's `large-certify` graphs at its
    // upper size, and denser small graphs.
    for (nodes, density) in [(16, 0.15), (48, 0.15), (96, 0.15), (200, 0.04)] {
        let g = random(nodes, density, 5);
        let fresh = || uncached(&g);
        let key = |kernel: &str| format!("retiming/{kernel}/{nodes}");
        let (t, bound) = time_fresh(reps, BATCH, fresh, |g| iteration_bound(g));
        keys.record(key("iteration_bound"), t, debug_print(&bound));
        let (t, cycle) = time_fresh(reps, BATCH, fresh, |g| critical_cycle(g));
        keys.record(key("critical_cycle"), t, debug_print(&cycle));
        let (t, period) = time_fresh(reps, BATCH, fresh, |g| min_clock_period(g));
        keys.record(key("min_clock_period"), t, debug_print(&period));
        let fresh = || (uncached(&g), Machine::mesh(8, 8));
        let bound_family = |(g, m): &mut (Csdfg, Machine)| compute_bounds(g, m);
        let (t, bounds) = time_fresh(reps, BATCH, fresh, bound_family);
        keys.record(key("compute_bounds"), t, debug_print(&bounds));
    }

    // The machine layer of a perfbench `manype-compact` job.  `route`
    // and the bound family's witness read a fresh machine, whose first
    // route lists its links and fills one destination's row of BFS
    // parents.
    let (t, m) = time_calls(reps, BATCH, || Machine::hypercube(10));
    let print = text_print(&m.to_string());
    keys.record("topology/build/hypercube_10", t, print);
    let (t, hops) = time_calls(reps, BATCH, || {
        let mut acc = 0u64;
        for i in (0..1024).step_by(37) {
            for j in (0..1024).step_by(41) {
                acc += u64::from(m.distance(Pe(i), Pe(j)));
            }
        }
        acc
    });
    keys.record("topology/distance/hypercube_10", t, debug_print(&hops));
    let (t, m) = time_calls(reps, BATCH, || {
        parse_spec("complete:128").expect("valid spec")
    });
    let print = text_print(&m.to_string());
    keys.record("topology/parse_spec/complete_128", t, print);
    let fresh = || Machine::mesh(32, 32);
    let (t, route) = time_fresh(reps, BATCH, fresh, |m| m.route(Pe(0), Pe(1023)));
    keys.record("topology/route/mesh_32x32", t, debug_print(&route));
    let fresh = || (uncached(sparse96), Machine::mesh(32, 32));
    let bound_family = |(g, m): &mut (Csdfg, Machine)| compute_bounds(g, m);
    let (t, bounds) = time_fresh(reps, BATCH, fresh, bound_family);
    let print = debug_print(&bounds);
    keys.record("topology/compute_bounds/mesh_32x32_96n", t, print);

    let (t, s) = time_calls(reps, BATCH, || {
        let mut s = Schedule::new(8);
        for i in 0..1000u32 {
            let (node, cs) = (NodeId::from_index(i as usize), i / 8 * 3 + 1);
            s.place(node, Pe(i % 8), cs, 2).expect("free cell");
        }
        for i in 0..1000 {
            s.remove(NodeId::from_index(i)).expect("placed");
        }
        s
    });
    keys.record("schedule_table/place_remove_1k", t, fingerprint(&s));

    let fresh = || (uncached(&elliptic), Machine::hypercube(3));
    let (g, m) = fresh();
    let s = startup_schedule(&g, &m, StartupConfig::default()).expect("legal");
    let replay = |(g, m): &mut (Csdfg, Machine)| ccs_sim::replay_static(g, m, &s, 100);
    let (t, report) = time_fresh(reps, BATCH, fresh, replay);
    let print = debug_print(&report);
    keys.record("simulator/replay_static/elliptic_x100", t, print);
    let run = |(g, m): &mut (Csdfg, Machine)| ccs_sim::run_self_timed(g, m, &s, 100);
    let (t, report) = time_fresh(reps, BATCH, fresh, run);
    let print = debug_print(&report);
    keys.record("simulator/self_timed/elliptic_x100", t, print);
}

/// `cyclosched schedule - --machine SPEC --csv --certify` on `text`,
/// in-process: returns the CSV and the certificate JSON.
fn certify_job(text: &str, spec: &str) -> (String, String) {
    let g = ccs_model::parser::parse(text).expect("generated graphs parse");
    assert!(!ccs_analyze::analyze_graph(&g).has_errors());
    let m = parse_spec(spec).expect("valid spec");
    let mut pass_a = ccs_analyze::analyze_machine(&m);
    pass_a.merge(ccs_analyze::analyze_cross(&g, &m));
    assert!(!pass_a.has_errors());
    let r = cyclo_compact(&g, &m, CompactConfig::default()).expect("legal");
    ccs_schedule::validate(&r.graph, &m, &r.schedule).expect("valid schedule");
    let csv = ccs_schedule::to_csv(&r.graph, &r.schedule);
    let report = ccs_bounds::certify_period(&g, &m, r.best_length);
    black_box(report.render_human());
    black_box(ccs_analyze::certify_report(&report));
    (csv, report.to_json_pretty())
}

fn main() {
    let mut json_path = None;
    let mut baseline_path = None;
    let mut seeds = 10u64;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            "--seeds" => seeds = args.next().and_then(|v| v.parse().ok()).expect("--seeds N"),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    // Overhead guard: every timed/fingerprinted section below must run
    // the uninstrumented scheduler path.  If something installed a
    // sink (and leaked its guard), the timings and the zero-overhead
    // claim would be meaningless — fail loudly instead.
    assert!(
        !ccs_trace::installed(),
        "trace sink installed before timed sections"
    );

    // --- Schedule fingerprints & lengths: full paper suite x machines.
    // Each cell also gets its static lower bound (`ccs-bounds`) so the
    // report carries the bound/gap trajectory alongside the lengths —
    // `bench-report` gates gap growth the way it gates fingerprints.
    let mut keys = Keys::default();
    let mut lengths: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    let mut bounds: BTreeMap<String, (u64, &'static str, u32)> = BTreeMap::new();
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in machine_suite() {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            let key = format!("{}/{}", w.name, machine.name());
            let bs = compute_bounds(&g, &machine);
            let (bv, bk) = match bs.best() {
                Some(c) => (c.value, c.kind.name()),
                None => (0, "none"),
            };
            bounds.insert(key.clone(), (bv, bk, r.best_length));
            lengths.insert(key.clone(), (r.initial_length, r.best_length));
            insert_prints(&mut keys.prints, &key, &r);
        }
    }

    // --- Timed experiments.
    let (t, rows) = time_calls(reps, 1, || random_sweep(&[24, 48], seeds));
    keys.timings
        .insert(format!("random_sweep_24_48x{seeds}"), t);
    let mut h = Fnv::new();
    for row in &rows {
        h.write(row.machine.as_bytes());
        h.write_u64(row.nodes as u64);
        h.write_u64(row.mean_startup.to_bits());
        h.write_u64(row.mean_compacted.to_bits());
        h.write_u64(row.mean_oblivious.to_bits());
        h.write_u64(row.mean_bound_gap.to_bits());
    }
    keys.prints.insert("random_sweep_rows".into(), h.hex());

    // Compaction tiers, each machine parsed inside the timed closure as
    // a job does: a 64-node graph on a mesh and on a complete machine;
    // a 200-node graph shaped like perfbench `large-certify`'s on
    // `mesh:8x8`, one of its machines; and the largest graph shape of
    // perfbench `manype-compact` on 1,024 and 4,096 PEs (the result
    // does not change with the machine, so the time over
    // `compact_mesh32x32_96n` is what the idle PEs cost).
    let big = random(64, 0.15, 7);
    let large = random(200, 0.04, 7);
    let manype = random(96, 0.03, 7);
    for (g, spec) in [
        (&big, "mesh:8x8"),
        (&big, "complete:32"),
        (&large, "mesh:8x8"),
        (&manype, "mesh:32x32"),
        (&manype, "mesh:64x64"),
    ] {
        let compact = |g: &mut Csdfg| {
            let m = parse_spec(spec).expect("valid spec");
            cyclo_compact(g, &m, CompactConfig::default()).expect("legal")
        };
        let (t, r) = time_fresh(reps, 1, || uncached(g), compact);
        let (slug, nodes) = (spec.replace(':', ""), g.task_count());
        let key = format!("compact_{slug}_{nodes}n");
        keys.timings.insert(key.clone(), t);
        insert_prints(&mut keys.prints, &key, &r);
        lengths.insert(
            format!("random{nodes}/{slug}"),
            (r.initial_length, r.best_length),
        );
    }

    // A whole `schedule --csv --certify` job in-process on a graph
    // shaped like perfbench `large-certify`'s: parse, Pass A, the
    // compaction, validation, the CSV, and the certificate, as the CLI
    // runs them.  The key fingerprints the CSV and the certificate JSON.
    let job_text = ccs_model::parser::write(&random(200, 0.03, 7));
    let (t, (csv, certificate)) = time_calls(reps, 1, || certify_job(&job_text, "mesh:8x8"));
    let print = text_print(&(csv + &certificate));
    keys.record("job_certify_mesh8x8_200n", t, print);

    // --- Big-machine tier: a 1,024-PE mesh.  Each rep builds its own
    // machine, as a job does, so the timings include whatever the
    // machine costs to build and to read.
    let (t, (machine, report)) = time_calls(reps, 1, || {
        let m = parse_spec("mesh:32x32").expect("valid spec");
        let report = ccs_analyze::analyze_machine(&m);
        (m, report)
    });
    let print = text_print(&(machine.to_string() + &report.render_human()));
    keys.record("machine/mesh32x32", t, print);
    // A recorded run on the largest machine a spec may name: the
    // two-task loop on `mesh:64x64` (4,096 PEs), compacted under the
    // recorder, then folded into the profile, the `--report` page and
    // the `--explain` text as the CLI does.  The key fingerprints the
    // page and the text.
    let pair = ccs_model::parser::parse(
        "node A t=1\nnode B t=2\nedge A -> B d=0 c=1\nedge B -> A d=1 c=1\n",
    )
    .expect("two-task loop");
    let (t, (page, explain)) = time_fresh(
        reps,
        1,
        || uncached(&pair),
        |pair| {
            let m = parse_spec("mesh:64x64").expect("valid spec");
            let (r, events) =
                ccs_trace::record(|| cyclo_compact(pair, &m, CompactConfig::default()));
            let r = r.expect("legal");
            let name = |n: u32| pair.name(NodeId::from_index(n as usize)).to_string();
            let profile = ccs_profile::build(&events, &m);
            let certificate = ccs_bounds::certify_period(pair, &m, r.best_length);
            let page = render_report(
                &ReportInput {
                    title: &format!("loop on {}", m.name()),
                    events: &events,
                    machine: &m,
                    profile: &profile,
                    certificate: Some(&certificate),
                },
                name,
            );
            (page, ccs_profile::explain_run(&events, &profile, &m, name))
        },
    );
    keys.record("observe_mesh64x64_2n", t, text_print(&(page + &explain)));

    // --- Candidate-scan microbenchmark: the sweep with branch-and-bound
    // pruning against the same sweep unpruned, on the many-PE machines
    // where the per-PE scan dominates.  Both runs must land on
    // bit-identical schedules (asserted here, on every machine, every
    // invocation) — pruning is a pure speedup.
    let mut scan_speedups: Vec<(String, Value)> = Vec::new();
    for spec in ["mesh:4x4", "complete:16", "mesh:8x8", "complete:32"] {
        let compact_with = |scan| {
            let config = CompactConfig {
                remap: RemapConfig {
                    scan,
                    ..Default::default()
                },
                ..Default::default()
            };
            time_fresh(
                reps,
                1,
                || (uncached(&big), parse_spec(spec).expect("valid spec")),
                |(g, m)| cyclo_compact(g, m, config).expect("legal"),
            )
        };
        let (t_eng, r_eng) = compact_with(ccs_core::ScanPolicy::Engine);
        let (t_ref, r_ref) = compact_with(ccs_core::ScanPolicy::Reference);
        let fp = fingerprint(&r_eng.schedule);
        assert_eq!(
            fp,
            fingerprint(&r_ref.schedule),
            "candidate-scan engine diverged from the reference sweep on {spec}"
        );
        let slug = spec.replace(':', "");
        for (policy, t) in [("engine", t_eng), ("reference", t_ref)] {
            keys.timings
                .insert(format!("candidate_scan/{slug}/{policy}"), t);
        }
        keys.prints.insert(format!("candidate_scan/{slug}"), fp);
        scan_speedups.push((slug, Value::Float(t_ref / t_eng)));
    }

    // --- Certificate size tier: the bound family on one-SCC chains of
    // 1,000-8,000 tasks, graded at the serial period `W`.  The
    // fingerprint hashes the certificate JSON, so a bound value, witness
    // or verdict that moves fails the baseline comparison.  The timings
    // are keyed `certify_period/*`, apart from the fingerprints, so the
    // trajectory gate never compares them with the `certify/*` timings
    // of older reports, which reused one graph across repetitions.
    for nodes in [1000, 4000, 8000] {
        let g = ccs_workloads::scc_chain(nodes, 1);
        let period = u32::try_from(g.total_time()).expect("W fits a period");
        let fresh = || (uncached(&g), Machine::mesh(4, 4));
        let certify = |(g, m): &mut (Csdfg, Machine)| ccs_bounds::certify_period(g, m, period);
        let (t, report) = time_fresh(reps, 1, fresh, certify);
        let key = format!("scc_chain_{nodes}/mesh4x4");
        keys.timings.insert(format!("certify_period/{key}"), t);
        let print = text_print(&report.to_json_pretty());
        keys.prints.insert(format!("certify/{key}"), print);
    }

    let (t, _) = time_calls(reps, 1, || {
        let mut total = 0u64;
        for w in ccs_workloads::all_workloads() {
            let g = w.build();
            for machine in machine_suite() {
                let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
                total += u64::from(r.best_length);
            }
        }
        total
    });
    keys.timings.insert("paper_suite_compaction".into(), t);
    kernels(reps, &mut keys, &big, &manype);
    assert!(
        !ccs_trace::installed(),
        "trace sink installed after timed sections"
    );

    // --- Instrumented run (untimed): per-phase metrics registry.
    // One pass over the paper suite plus the 64-node mesh compaction,
    // with a MetricsSink collecting the structured event stream.  This
    // deliberately happens *after* every timed section so the sink
    // never perturbs the numbers above.
    let ((), sink) = ccs_trace::with_sink(MetricsSink::new(), || {
        for w in ccs_workloads::all_workloads() {
            let g = w.build();
            for machine in machine_suite() {
                let _ = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            }
        }
        let _ = cyclo_compact(&big, &Machine::mesh(8, 8), CompactConfig::default()).expect("legal");
    });
    let metrics = sink.into_metrics();

    // --- Per-cell profiled sweep (untimed): one row per workload x
    // machine with the cell's own counter registry.  Counters are pure
    // event-stream folds, so this section is byte-identical across
    // runs and thread counts and diffable by `bench-report`.
    let cells = ccs_bench::compact_grid_profiled(
        &ccs_workloads::all_workloads(),
        &machine_suite(),
        &[CompactConfig::default()],
    );
    let cells_value = Value::Array(
        cells
            .iter()
            .map(ccs_bench::ProfiledCell::to_value)
            .collect(),
    );
    assert!(
        !ccs_trace::installed(),
        "profiled sweep leaked a trace sink"
    );
    let artifacts = artifact_bytes(reps, &mut keys);
    assert!(
        !ccs_trace::installed(),
        "artifact rendering leaked a trace sink"
    );

    // --- Assemble the report.
    let Keys { timings, prints } = keys;
    let mut root: Vec<(String, Value)> = vec![
        (
            "version".into(),
            Value::String(env!("CARGO_PKG_VERSION").into()),
        ),
        ("seeds".into(), Value::UInt(seeds)),
        (
            "timings_ms".into(),
            Value::Object(
                timings
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ),
        (
            "schedule_lengths".into(),
            Value::Object(
                lengths
                    .iter()
                    .map(|(k, (i, b))| {
                        (
                            k.clone(),
                            Value::Object(vec![
                                ("initial".into(), Value::UInt(u64::from(*i))),
                                ("best".into(), Value::UInt(u64::from(*b))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "fingerprints".into(),
            Value::Object(
                prints
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            ),
        ),
        (
            "bounds".into(),
            Value::Object(
                bounds
                    .iter()
                    .map(|(k, (bv, bk, best))| {
                        let gap = u64::from(*best).saturating_sub(*bv);
                        let gap_pct = if *bv > 0 {
                            gap as f64 * 100.0 / *bv as f64
                        } else {
                            0.0
                        };
                        (
                            k.clone(),
                            Value::Object(vec![
                                ("bound".into(), Value::UInt(*bv)),
                                ("kind".into(), Value::String((*bk).into())),
                                ("best".into(), Value::UInt(u64::from(*best))),
                                ("gap".into(), Value::UInt(gap)),
                                ("gap_pct".into(), Value::Float(gap_pct)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics.to_value()),
        ("cells".into(), cells_value),
        (
            "candidate_scan_speedup".into(),
            Value::Object(scan_speedups),
        ),
        ("artifact_bytes".into(), Value::Object(artifacts)),
    ];

    let mut mismatches = 0usize;
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).expect("read baseline");
        let base: Value = serde_json::from_str(&text).expect("parse baseline");
        if let Value::Object(fields) = &base["fingerprints"] {
            for (key, val) in fields {
                let ours = prints.get(key).map(String::as_str);
                let theirs = val.as_str();
                if ours != theirs {
                    eprintln!(
                        "FINGERPRINT MISMATCH {key}: baseline {theirs:?} vs current {ours:?}"
                    );
                    mismatches += 1;
                }
            }
        }
        let mut base_t: Vec<(String, Value)> = Vec::new();
        let mut speedups: Vec<(String, Value)> = Vec::new();
        if let Value::Object(fields) = &base["timings_ms"] {
            for (key, val) in fields {
                if let Some(ms) = val.as_f64() {
                    base_t.push((key.clone(), Value::Float(ms)));
                    if let Some(now) = timings.get(key) {
                        speedups.push((key.clone(), Value::Float(ms / now)));
                    }
                }
            }
        }
        root.push(("baseline_timings_ms".into(), Value::Object(base_t)));
        root.push(("speedup".into(), Value::Object(speedups)));
        root.push((
            "fingerprint_mismatches".into(),
            Value::UInt(mismatches as u64),
        ));
    }

    for (key, _) in &root {
        assert!(
            BENCH_SECTIONS.contains(&key.as_str()),
            "BENCH root section {key:?} is not declared in BENCH_SECTIONS; \
             declare it so the bench-section-gated lint can see it"
        );
    }
    let report = Value::Object(root);
    let text = serde_json::to_string_pretty(&report).expect("serialize report");
    match &json_path {
        Some(path) => {
            std::fs::write(path, format!("{text}\n")).expect("write report");
            eprintln!("wrote {path}");
        }
        None => println!("{text}"),
    }

    for (k, v) in &timings {
        eprintln!("{k:<48} {v:>10.4} ms");
    }
    if mismatches > 0 {
        eprintln!("{mismatches} fingerprint mismatch(es) vs baseline");
        std::process::exit(1);
    }
}
