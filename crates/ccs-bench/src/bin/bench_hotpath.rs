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
//! A `certify/*` size tier times `certify_period` on the 1,000-,
//! 4,000- and 8,000-task one-SCC chains on `mesh:4x4` and fingerprints
//! each certificate's JSON.
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
//! Every other timed section runs with **no trace sink installed**
//! (asserted), so the numbers measure the uninstrumented hot path.
//! A separate, untimed instrumented run afterwards feeds a
//! [`ccs_trace::metrics::MetricsSink`] and lands in the report as the
//! `"metrics"` section (per-phase counters + wall-time histograms),
//! and a metered grid sweep lands as `"cells"` (per-cell counters,
//! deterministic — the part `bench-report` diffs between reports).
//! `"artifact_bytes"` records what a recorded `elliptic` run writes on
//! three machine sizes — the report page, the diff page, the heatmap
//! SVG, the `--trace` file and the `--explain` text, rendered
//! in-process — plus the report, trace and explain bytes of `fig1` on
//! `mesh:4x2`, a run that stops at its proven floor, and
//! `bench-report` gates their growth.

use std::collections::BTreeMap;
use std::time::Instant;

use ccs_bench::experiments::random_sweep;
use ccs_core::{cyclo_compact, CompactConfig};
use ccs_model::NodeId;
use ccs_report::diff::{render_diff_report, DiffInput, DiffSide};
use ccs_report::{render_report, ReportInput};
use ccs_topology::Machine;
use ccs_trace::metrics::MetricsSink;
use ccs_workloads::random::{random_csdfg, RandomGraphConfig};
use serde_json::Value;

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
    format!("{:016x}", h.0)
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
    format!("{:016x}", h.0)
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

/// Bytes of the artifacts one recorded `elliptic` run writes on each
/// machine, rendered in-process as the CLI renders them: the
/// `--report` page, the `--report-diff --diff-policy reference` page
/// (side B reruns the same machine with the unpruned reference scan),
/// the `--heatmap-svg` file, the `--trace` file (logical clock) and
/// the `--explain` narrative with its ledger-diff notes.  Pure
/// functions of deterministic event streams, so the counts are exact.
fn artifact_bytes() -> Vec<(String, Value)> {
    let g = ccs_workloads::workload_by_name("elliptic")
        .expect("catalogue kernel")
        .build();
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
        let m = ccs_topology::parse_spec(spec).expect("machine spec");
        let ((ra, ea), (rb, eb)) = ccs_trace::record_pair(
            || cyclo_compact(&g, &m, CompactConfig::default()),
            || cyclo_compact(&g, &m, reference),
        );
        let (ra, rb) = (ra.expect("legal"), rb.expect("legal"));
        let (pa, pb) = (ccs_profile::build(&ea, &m), ccs_profile::build(&eb, &m));
        let ca = ccs_bounds::certify_period(&g, &m, ra.best_length);
        let cb = ccs_bounds::grade(ca.bounds.clone(), rb.best_length);
        let report = render_report(
            &ReportInput {
                title: &format!("elliptic on {}", m.name()),
                events: &ea,
                machine: &m,
                profile: &pa,
                certificate: Some(&ca),
            },
            name,
        );
        let label_b = format!("{} (reference policy)", m.name());
        let diff = render_diff_report(
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
        );
        let svg = ccs_profile::render::heatmap_svg(&pa, ccs_profile::routable(&m));
        let trace = ccs_trace::chrome::to_chrome(&ea, ccs_trace::chrome::Clock::Logical);
        let explain = ccs_profile::explain_run(&ea, &pa, &m, name);
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

/// Medians `reps` timed runs of `f`, returning (median ms, last output).
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out.expect("at least one rep"))
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
    let mut lengths: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    let mut prints: BTreeMap<String, String> = BTreeMap::new();
    let mut bounds: BTreeMap<String, (u64, &'static str, u32)> = BTreeMap::new();
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in machine_suite() {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            let key = format!("{}/{}", w.name, machine.name());
            let bs = ccs_bounds::compute_bounds(&g, &machine);
            let (bv, bk) = match bs.best() {
                Some(c) => (c.value, c.kind.name()),
                None => (0, "none"),
            };
            bounds.insert(key.clone(), (bv, bk, r.best_length));
            lengths.insert(key.clone(), (r.initial_length, r.best_length));
            insert_prints(&mut prints, &key, &r);
        }
    }

    // --- Timed experiments.
    let mut timings: BTreeMap<String, f64> = BTreeMap::new();

    let (t, rows) = time_median(reps, || random_sweep(&[24, 48], seeds));
    timings.insert(format!("random_sweep_24_48x{seeds}"), t);
    let mut h = Fnv::new();
    for row in &rows {
        h.write(row.machine.as_bytes());
        h.write_u64(row.nodes as u64);
        h.write_u64(row.mean_startup.to_bits());
        h.write_u64(row.mean_compacted.to_bits());
        h.write_u64(row.mean_oblivious.to_bits());
        h.write_u64(row.mean_bound_gap.to_bits());
    }
    prints.insert("random_sweep_rows".into(), format!("{:016x}", h.0));

    let big = random_csdfg(
        RandomGraphConfig {
            nodes: 64,
            back_edges: 21,
            ..Default::default()
        },
        7,
    );
    let mesh = Machine::mesh(8, 8);
    let (t, r) = time_median(reps, || {
        cyclo_compact(&big, &mesh, CompactConfig::default()).expect("legal")
    });
    timings.insert("compact_mesh8x8_64n".into(), t);
    insert_prints(&mut prints, "compact_mesh8x8_64n", &r);
    lengths.insert("random64/mesh8x8".into(), (r.initial_length, r.best_length));

    let wide = Machine::complete(32);
    let (t, r) = time_median(reps, || {
        cyclo_compact(&big, &wide, CompactConfig::default()).expect("legal")
    });
    timings.insert("compact_complete32_64n".into(), t);
    insert_prints(&mut prints, "compact_complete32_64n", &r);
    lengths.insert(
        "random64/complete32".into(),
        (r.initial_length, r.best_length),
    );

    // Size tier for the compaction loop: a 200-node graph shaped like
    // perfbench `large-certify`'s (`nodes / 3` back edges, forward
    // density `8 / nodes`) on `mesh:8x8`, one of its machines.
    let large = random_csdfg(
        RandomGraphConfig {
            nodes: 200,
            back_edges: 66,
            forward_density: 0.04,
            ..Default::default()
        },
        7,
    );
    let (t, r) = time_median(reps, || {
        cyclo_compact(&large, &mesh, CompactConfig::default()).expect("legal")
    });
    timings.insert("compact_mesh8x8_200n".into(), t);
    insert_prints(&mut prints, "compact_mesh8x8_200n", &r);
    lengths.insert(
        "random200/mesh8x8".into(),
        (r.initial_length, r.best_length),
    );

    // --- Big-machine tier: a 1,024-PE mesh.  Each rep builds its own
    // machine, as a job does, so the timings include whatever the
    // machine costs to build and to read.
    let (t, (machine, report)) = time_median(reps, || {
        let m = ccs_topology::parse_spec("mesh:32x32").expect("valid spec");
        let report = ccs_analyze::analyze_machine(&m);
        (m, report)
    });
    timings.insert("machine/mesh32x32".into(), t);
    let mut h = Fnv::new();
    h.write(machine.to_string().as_bytes());
    h.write(report.render_human().as_bytes());
    prints.insert("machine/mesh32x32".into(), format!("{:016x}", h.0));
    // A graph shaped like perfbench `manype-compact`'s largest
    // (`nodes / 3` back edges, forward density 0.03).
    let manype = random_csdfg(
        RandomGraphConfig {
            nodes: 96,
            back_edges: 32,
            forward_density: 0.03,
            ..Default::default()
        },
        7,
    );
    let (t, r) = time_median(reps, || {
        let m = ccs_topology::parse_spec("mesh:32x32").expect("valid spec");
        cyclo_compact(&manype, &m, CompactConfig::default()).expect("legal")
    });
    timings.insert("compact_mesh32x32_96n".into(), t);
    insert_prints(&mut prints, "compact_mesh32x32_96n", &r);
    lengths.insert(
        "random96/mesh32x32".into(),
        (r.initial_length, r.best_length),
    );
    // The same graph on the largest machine a spec may name (4,096
    // PEs): the result does not change with the machine, so the time
    // over `compact_mesh32x32_96n` is what the idle PEs cost.
    let (t, r) = time_median(reps, || {
        let m = ccs_topology::parse_spec("mesh:64x64").expect("valid spec");
        cyclo_compact(&manype, &m, CompactConfig::default()).expect("legal")
    });
    timings.insert("compact_mesh64x64_96n".into(), t);
    insert_prints(&mut prints, "compact_mesh64x64_96n", &r);
    lengths.insert(
        "random96/mesh64x64".into(),
        (r.initial_length, r.best_length),
    );
    // A recorded run on the largest machine a spec may name: the
    // two-task loop on `mesh:64x64` (4,096 PEs), compacted under the
    // recorder, then folded into the profile, the `--report` page and
    // the `--explain` text as the CLI does.  The key fingerprints the
    // page and the text.
    let pair = ccs_model::parser::parse(
        "node A t=1\nnode B t=2\nedge A -> B d=0 c=1\nedge B -> A d=1 c=1\n",
    )
    .expect("two-task loop");
    let (t, (page, explain)) = time_median(reps, || {
        let m = ccs_topology::parse_spec("mesh:64x64").expect("valid spec");
        let (r, events) = ccs_trace::record(|| cyclo_compact(&pair, &m, CompactConfig::default()));
        let r = r.expect("legal");
        let name = |n: u32| pair.name(NodeId::from_index(n as usize)).to_string();
        let profile = ccs_profile::build(&events, &m);
        let certificate = ccs_bounds::certify_period(&pair, &m, r.best_length);
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
    });
    timings.insert("observe_mesh64x64_2n".into(), t);
    let mut h = Fnv::new();
    h.write(page.as_bytes());
    h.write(explain.as_bytes());
    prints.insert("observe_mesh64x64_2n".into(), format!("{:016x}", h.0));

    // --- Candidate-scan microbenchmark: the sweep with branch-and-bound
    // pruning against the same sweep unpruned, on the many-PE machines
    // where the per-PE scan dominates.  Both runs must land on
    // bit-identical schedules (asserted here, on every machine, every
    // invocation) — pruning is a pure speedup.
    let mut scan_speedups: Vec<(String, Value)> = Vec::new();
    for (slug, machine) in [
        ("mesh4x4", Machine::mesh(4, 4)),
        ("complete16", Machine::complete(16)),
        ("mesh8x8", Machine::mesh(8, 8)),
        ("complete32", Machine::complete(32)),
    ] {
        let config_with = |scan| CompactConfig {
            remap: ccs_core::RemapConfig {
                scan,
                ..Default::default()
            },
            ..Default::default()
        };
        let (t_eng, r_eng) = time_median(reps, || {
            cyclo_compact(&big, &machine, config_with(ccs_core::ScanPolicy::Engine)).expect("legal")
        });
        let (t_ref, r_ref) = time_median(reps, || {
            cyclo_compact(&big, &machine, config_with(ccs_core::ScanPolicy::Reference))
                .expect("legal")
        });
        let fp = fingerprint(&r_eng.schedule);
        assert_eq!(
            fp,
            fingerprint(&r_ref.schedule),
            "candidate-scan engine diverged from the reference sweep on {}",
            machine.name()
        );
        timings.insert(format!("candidate_scan/{slug}/engine"), t_eng);
        timings.insert(format!("candidate_scan/{slug}/reference"), t_ref);
        prints.insert(format!("candidate_scan/{slug}"), fp);
        scan_speedups.push((slug.into(), Value::Float(t_ref / t_eng)));
    }

    // --- Certificate size tier: the bound family on one-SCC chains of
    // 1,000-8,000 tasks, graded at the serial period `W`.  The
    // fingerprint hashes the certificate JSON, so a bound value, witness
    // or verdict that moves fails the baseline comparison.
    let mesh4x4 = Machine::mesh(4, 4);
    for nodes in [1000, 4000, 8000] {
        let g = ccs_workloads::scc_chain(nodes, 1);
        let period = u32::try_from(g.total_time()).expect("W fits a period");
        let (t, report) = time_median(reps, || ccs_bounds::certify_period(&g, &mesh4x4, period));
        let key = format!("certify/scc_chain_{nodes}/mesh4x4");
        let mut h = Fnv::new();
        h.write(report.to_json_pretty().as_bytes());
        timings.insert(key.clone(), t);
        prints.insert(key, format!("{:016x}", h.0));
    }

    let (t, _) = time_median(reps, || {
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
    timings.insert("paper_suite_compaction".into(), t);
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
        let _ = cyclo_compact(&big, &mesh, CompactConfig::default()).expect("legal");
    });
    let metrics = sink.into_metrics();

    // --- Per-cell metered sweep (untimed): one row per workload x
    // machine with the cell's own counter registry.  Counters are pure
    // event-stream folds, so this section is byte-identical across
    // runs and thread counts and diffable by `bench-report`.
    let cells = ccs_bench::compact_grid_metered(
        &ccs_workloads::all_workloads(),
        &machine_suite(),
        &[CompactConfig::default()],
    );
    let cells_value = Value::Array(cells.iter().map(ccs_bench::MeteredCell::to_value).collect());
    assert!(!ccs_trace::installed(), "metered sweep leaked a trace sink");
    let artifacts = artifact_bytes();
    assert!(
        !ccs_trace::installed(),
        "artifact rendering leaked a trace sink"
    );

    // --- Assemble the report.
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
        eprintln!("{k:<28} {v:>10.2} ms");
    }
    if mismatches > 0 {
        eprintln!("{mismatches} fingerprint mismatch(es) vs baseline");
        std::process::exit(1);
    }
}
