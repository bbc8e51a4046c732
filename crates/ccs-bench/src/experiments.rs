//! The experiment drivers behind the `exp_*` binaries — kept in the
//! library so they are unit-testable and reusable.

use ccs_core::baselines::{oblivious_list_scheduling, oblivious_rotation_scheduling};
use ccs_core::{
    cyclo_compact, startup_schedule, CompactConfig, Priority, RemapMode, StartupConfig,
};
use ccs_model::transform::slowdown;
use ccs_model::Csdfg;
use ccs_retiming::iteration_bound;
use ccs_schedule::{validate, Schedule};
use ccs_sim::{replay_static, run_self_timed};
use ccs_topology::Machine;
use ccs_workloads::{random_csdfg, RandomGraphConfig};

/// One cell group of the paper's Table 11.
#[derive(Clone, Debug)]
pub struct Table11Row {
    /// Application name (`"Elliptic Filter"` / `"Lattice Filter"`).
    pub application: &'static str,
    /// `"w/o"` or `"with"` relaxation.
    pub relax: &'static str,
    /// Per-machine `(init, after)` schedule lengths, in the paper's
    /// machine order: completely connected, linear array, ring, 2-D
    /// mesh, hypercube.
    pub cells: Vec<(u32, u32)>,
}

/// The five machines of Table 11, in the paper's column order.
pub fn table11_machines() -> Vec<Machine> {
    vec![
        Machine::complete(8),
        Machine::linear_array(8),
        Machine::ring(8),
        Machine::mesh(4, 2),
        Machine::hypercube(3),
    ]
}

/// Reproduces Table 11: elliptic + lattice filters, slow-down 3, both
/// remapping policies, five architectures.
pub fn table11() -> Vec<Table11Row> {
    let elliptic = slowdown(
        &ccs_workloads::filters::elliptic_wave_filter(ccs_workloads::OpTimes::default()),
        3,
    );
    let lattice = slowdown(
        &ccs_workloads::filters::lattice_filter(5, ccs_workloads::OpTimes::default()),
        3,
    );
    let machines = table11_machines();
    let mut rows = Vec::new();
    for (relax, mode) in [
        ("w/o", RemapMode::WithoutRelaxation),
        ("with", RemapMode::WithRelaxation),
    ] {
        for (name, graph) in [("Elliptic Filter", &elliptic), ("Lattice Filter", &lattice)] {
            let mut cells = Vec::new();
            for machine in &machines {
                let r = cyclo_compact(graph, machine, CompactConfig::with_mode(mode))
                    .expect("legal workload");
                debug_assert!(validate(&r.graph, machine, &r.schedule).is_ok());
                cells.push((r.initial_length, r.best_length));
            }
            rows.push(Table11Row {
                application: name,
                relax,
                cells,
            });
        }
    }
    rows
}

/// One machine's worth of the 19-node experiment (Tables 1-10): the
/// rendered start-up and compacted tables plus their lengths.
#[derive(Clone, Debug)]
pub struct NineteenNodeResult {
    /// Machine name.
    pub machine: String,
    /// Start-up schedule length (paper: 12-15).
    pub startup_len: u32,
    /// Compacted schedule length (paper: 5-7).
    pub compacted_len: u32,
    /// Rendered start-up table (paper's odd-numbered tables).
    pub startup_table: String,
    /// Rendered compacted table (paper's even-numbered tables).
    pub compacted_table: String,
}

/// Runs the 19-node example on every paper machine.
pub fn nineteen_node() -> Vec<NineteenNodeResult> {
    let g = ccs_workloads::paper::fig7_example();
    table11_machines()
        .into_iter()
        .map(|machine| {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            let name = |v| r.graph.name(v).to_string();
            NineteenNodeResult {
                machine: machine.name().to_string(),
                startup_len: r.initial_length,
                compacted_len: r.best_length,
                startup_table: r.initial.render(name),
                compacted_table: r.schedule.render(|v| r.graph.name(v).to_string()),
            }
        })
        .collect()
}

/// Convergence trace: schedule length after every pass, for both
/// remapping policies (ablation E10).
pub fn relaxation_trace(g: &Csdfg, machine: &Machine, passes: usize) -> (Vec<u32>, Vec<u32>) {
    let run = |mode| {
        let cfg = CompactConfig {
            passes,
            stop_on_revert: false,
            ..CompactConfig::with_mode(mode)
        };
        let r = cyclo_compact(g, machine, cfg).expect("legal");
        r.history.iter().map(|rec| rec.length).collect::<Vec<u32>>()
    };
    (
        run(RemapMode::WithRelaxation),
        run(RemapMode::WithoutRelaxation),
    )
}

/// One row of the priority-function ablation (E11).
#[derive(Clone, Debug)]
pub struct PriorityRow {
    /// Workload name.
    pub workload: &'static str,
    /// Machine name.
    pub machine: String,
    /// Start-up lengths for (PF, mobility-only, FIFO).
    pub lengths: [u32; 3],
}

/// Start-up schedule length under each ready-list policy.
pub fn priority_ablation() -> Vec<PriorityRow> {
    let mut rows = Vec::new();
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in [
            Machine::linear_array(8),
            Machine::mesh(4, 2),
            Machine::complete(8),
        ] {
            let mut lengths = [0u32; 3];
            for (i, p) in [
                Priority::CommunicationSensitive,
                Priority::MobilityOnly,
                Priority::Fifo,
            ]
            .into_iter()
            .enumerate()
            {
                let cfg = StartupConfig {
                    priority: p,
                    ..Default::default()
                };
                lengths[i] = startup_schedule(&g, &machine, cfg).expect("legal").length();
            }
            rows.push(PriorityRow {
                workload: w.name,
                machine: machine.name().to_string(),
                lengths,
            });
        }
    }
    rows
}

/// One row of the random sweep (E12).
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Graph size.
    pub nodes: usize,
    /// Machine name.
    pub machine: String,
    /// Mean start-up length across seeds.
    pub mean_startup: f64,
    /// Mean compacted length across seeds.
    pub mean_compacted: f64,
    /// Mean oblivious-list baseline length.
    pub mean_oblivious: f64,
    /// Mean ratio of compacted length to the iteration-bound ceiling.
    pub mean_bound_gap: f64,
}

/// Random-graph sweep over sizes x machines, `seeds` graphs per cell,
/// parallelized across (size, machine) cells via
/// [`crate::driver::run_many`]; row order is deterministic (sizes
/// outer, machines inner) regardless of thread count.
pub fn random_sweep(sizes: &[usize], seeds: u64) -> Vec<SweepRow> {
    let machines = [
        Machine::linear_array(8),
        Machine::mesh(4, 2),
        Machine::complete(8),
    ];
    let cells: Vec<(usize, &Machine)> = sizes
        .iter()
        .flat_map(|&nodes| machines.iter().map(move |m| (nodes, m)))
        .collect();
    crate::driver::run_many(cells, |(nodes, machine)| {
        let mut startup_sum = 0u64;
        let mut compact_sum = 0u64;
        let mut oblivious_sum = 0u64;
        let mut gap_sum = 0f64;
        for seed in 0..seeds {
            let cfg = RandomGraphConfig {
                nodes,
                back_edges: nodes / 3,
                ..Default::default()
            };
            let g = random_csdfg(cfg, seed);
            let r = cyclo_compact(&g, machine, CompactConfig::default()).expect("legal");
            let ob = oblivious_list_scheduling(&g, machine).expect("legal");
            startup_sum += u64::from(r.initial_length);
            compact_sum += u64::from(r.best_length);
            oblivious_sum += u64::from(ob.actual_length);
            let floor = iteration_bound(&g)
                .map(|b| b.ceil() as f64)
                .unwrap_or(1.0)
                .max(1.0);
            gap_sum += f64::from(r.best_length) / floor;
        }
        let n = seeds as f64;
        SweepRow {
            nodes,
            machine: machine.name().to_string(),
            mean_startup: startup_sum as f64 / n,
            mean_compacted: compact_sum as f64 / n,
            mean_oblivious: oblivious_sum as f64 / n,
            mean_bound_gap: gap_sum / n,
        }
    })
}

/// One row of the contention study (E14, extension): the same
/// compacted schedule executed self-timed under the paper's
/// contention-free model vs the link-contended model.
#[derive(Clone, Debug)]
pub struct ContentionRow {
    /// Workload name.
    pub workload: &'static str,
    /// Machine name.
    pub machine: String,
    /// Contention-free self-timed initiation interval.
    pub free_ii: f64,
    /// Contended self-timed initiation interval.
    pub contended_ii: f64,
    /// Mean link utilization in the contended run.
    pub link_utilization: f64,
    /// Busiest link `(a, b)` (1-based PE numbers) and its busy cycles.
    pub hottest: Option<((usize, usize), u64)>,
}

impl ContentionRow {
    /// `contended / free` inflation factor (>= 1 up to rounding).
    pub fn inflation(&self) -> f64 {
        if self.free_ii == 0.0 {
            1.0
        } else {
            self.contended_ii / self.free_ii
        }
    }
}

/// Runs the contention study: how much does the paper's
/// "no congestion" assumption (Definition 3.5) flatter the schedules?
pub fn contention_study(iterations: u32) -> Vec<ContentionRow> {
    let mut rows = Vec::new();
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in [
            Machine::linear_array(8),
            Machine::ring(8),
            Machine::mesh(4, 2),
        ] {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            let free = run_self_timed(&r.graph, &machine, &r.schedule, iterations);
            let contended = ccs_sim::run_contended(&r.graph, &machine, &r.schedule, iterations);
            rows.push(ContentionRow {
                workload: w.name,
                machine: machine.name().to_string(),
                free_ii: free.initiation_interval,
                contended_ii: contended.base.initiation_interval,
                link_utilization: contended
                    .links
                    .mean_utilization(contended.base.makespan, machine.links().len()),
                hottest: contended
                    .links
                    .hottest()
                    .map(|((a, b), c)| ((a + 1, b + 1), c)),
            });
        }
    }
    rows
}

/// One row of the optimality-gap study (E15, extension): the heuristic
/// against the exact branch-and-bound scheduler on tiny instances.
#[derive(Clone, Debug)]
pub struct GapRow {
    /// Random seed of the instance.
    pub seed: u64,
    /// Machine name.
    pub machine: String,
    /// Exact optimum (without retiming), if proven within budget.
    pub optimal: Option<u32>,
    /// Start-up (no retiming) heuristic length.
    pub startup: u32,
    /// Full cyclo-compaction length (with retiming — may beat
    /// `optimal`).
    pub compacted: u32,
}

/// Runs the optimality-gap study on `count` random 5-node instances.
pub fn optimality_gap(count: u64) -> Vec<GapRow> {
    use ccs_core::optimal::optimal_schedule;
    let mut rows = Vec::new();
    for seed in 0..count {
        let cfg = RandomGraphConfig {
            nodes: 5,
            forward_density: 0.3,
            back_edges: 2,
            max_time: 3,
            max_volume: 2,
            max_delay: 2,
        };
        let g = random_csdfg(cfg, seed);
        for machine in [Machine::linear_array(3), Machine::complete(3)] {
            let opt = optimal_schedule(&g, &machine, 20_000_000);
            let startup = startup_schedule(&g, &machine, StartupConfig::default())
                .expect("legal")
                .length();
            let compacted = cyclo_compact(&g, &machine, CompactConfig::default())
                .expect("legal")
                .best_length;
            rows.push(GapRow {
                seed,
                machine: machine.name().to_string(),
                optimal: opt.schedule().map(Schedule::length),
                startup,
                compacted,
            });
        }
    }
    rows
}

/// One row of the processor-scaling study (E16, extension).
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Number of PEs (completely connected machine).
    pub pes: usize,
    /// Compacted schedule length.
    pub length: u32,
    /// The graph's iteration-bound ceiling (PE-independent floor).
    pub bound: u64,
}

/// Compacted schedule length of a workload on completely connected
/// machines of growing size — the speedup saturation curve.  Each PE
/// count is an independent scheduling problem, so the curve is
/// evaluated in parallel via [`crate::driver::run_many`] (rows come
/// back in PE order at any thread count).
pub fn pe_scaling(workload: &str, max_pes: usize) -> Vec<ScalingRow> {
    let g = ccs_workloads::workload_by_name(workload)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"))
        .build();
    let bound = iteration_bound(&g).map(|b| b.ceil()).unwrap_or(1);
    crate::driver::run_many((1..=max_pes).collect(), |pes| {
        let machine = Machine::complete(pes);
        let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
        ScalingRow {
            pes,
            length: r.best_length,
            bound,
        }
    })
}

/// One row of the multi-row-rotation ablation (E17, extension).
#[derive(Clone, Debug)]
pub struct MultirowRow {
    /// Workload name.
    pub workload: &'static str,
    /// Machine name.
    pub machine: String,
    /// Best compacted length when rotating 1, 2 and 3 rows per pass.
    pub lengths: [u32; 3],
}

/// Rotating more than one schedule row per pass (extension of
/// Definition 4.1): bigger moves, coarser search.  Reports the best
/// compacted lengths per rows-per-pass setting.
pub fn multirow_ablation() -> Vec<MultirowRow> {
    use ccs_core::RemapConfig;
    let mut rows_out = Vec::new();
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in [Machine::linear_array(8), Machine::complete(8)] {
            let mut lengths = [0u32; 3];
            for (i, rows) in [1u32, 2, 3].into_iter().enumerate() {
                let cfg = CompactConfig {
                    remap: RemapConfig {
                        rows_per_pass: rows,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                lengths[i] = cyclo_compact(&g, &machine, cfg).expect("legal").best_length;
            }
            rows_out.push(MultirowRow {
                workload: w.name,
                machine: machine.name().to_string(),
                lengths,
            });
        }
    }
    rows_out
}

/// One row of the unfolding-vs-retiming study (E18, extension).
#[derive(Clone, Debug)]
pub struct UnfoldRow {
    /// Workload name.
    pub workload: &'static str,
    /// Unfolding factor.
    pub factor: u32,
    /// Compacted schedule length of the unfolded graph.
    pub length: u32,
    /// Per-original-iteration cost `length / factor`.
    pub per_iteration: f64,
    /// Iteration bound of the original graph (per-iteration floor).
    pub bound: f64,
}

/// Unfolding study: schedule `unfold(g, f)` for `f = 1..=max_factor`
/// and report the per-iteration cost.  Unfolding exposes inter-
/// iteration parallelism *structurally* (bigger graphs), whereas the
/// paper's rotation exposes it *incrementally* (retiming); comparing
/// per-iteration costs shows how much of the unfolding win rotation
/// already captures.
pub fn unfolding_study(max_factor: u32) -> Vec<UnfoldRow> {
    use ccs_model::transform::unfold;
    let machine = Machine::complete(8);
    let mut rows = Vec::new();
    for w in ["fig1", "iir", "diffeq"] {
        let g = ccs_workloads::workload_by_name(w)
            .expect("known workload")
            .build();
        let bound = iteration_bound(&g).map(|b| b.as_f64()).unwrap_or(0.0);
        for f in 1..=max_factor {
            let gu = unfold(&g, f);
            let r = cyclo_compact(&gu, &machine, CompactConfig::default()).expect("legal");
            rows.push(UnfoldRow {
                workload: w,
                factor: f,
                length: r.best_length,
                per_iteration: f64::from(r.best_length) / f64::from(f),
                bound,
            });
        }
    }
    rows
}

/// One row of the jitter-robustness study (E19, extension).
#[derive(Clone, Debug)]
pub struct JitterRow {
    /// Workload name.
    pub workload: &'static str,
    /// Machine name.
    pub machine: String,
    /// Nominal self-timed II of the compacted schedule.
    pub nominal: f64,
    /// Mean jittered II over the seeds, per max-jitter setting 1..=3.
    pub jittered: [f64; 3],
}

/// Jitter-robustness study: how gracefully do compacted schedules
/// degrade when task latencies fluctuate by up to 1..3 cycles?
pub fn jitter_study(iterations: u32, seeds: u64) -> Vec<JitterRow> {
    use ccs_sim::{run_jittered, JitterConfig};
    let mut rows = Vec::new();
    for w in ["fig7", "elliptic", "lattice"] {
        let g = ccs_workloads::workload_by_name(w).expect("known").build();
        for machine in [Machine::mesh(4, 2), Machine::complete(8)] {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            let nominal =
                run_self_timed(&r.graph, &machine, &r.schedule, iterations).initiation_interval;
            let mut jittered = [0.0f64; 3];
            for (ix, max_jitter) in [1u32, 2, 3].into_iter().enumerate() {
                let mut acc = 0.0;
                for seed in 0..seeds {
                    acc += run_jittered(
                        &r.graph,
                        &machine,
                        &r.schedule,
                        iterations,
                        JitterConfig { max_jitter, seed },
                    )
                    .initiation_interval;
                }
                jittered[ix] = acc / seeds as f64;
            }
            rows.push(JitterRow {
                workload: w,
                machine: machine.name().to_string(),
                nominal,
                jittered,
            });
        }
    }
    rows
}

/// Summary of the everything-validates experiment (E13).
#[derive(Clone, Copy, Debug, Default)]
pub struct ValidationSummary {
    /// Schedules checked.
    pub schedules: usize,
    /// Schedules that passed both the algebraic checker and the replay.
    pub passed: usize,
    /// Total replay iterations executed.
    pub replay_iterations: u64,
    /// Total messages simulated.
    pub messages: u64,
}

/// Runs every workload on every paper machine through both the
/// algebraic checker and the cycle-accurate simulator.
pub fn validate_everything(replay_iters: u32) -> ValidationSummary {
    let mut summary = ValidationSummary::default();
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in table11_machines() {
            for mode in [RemapMode::WithRelaxation, RemapMode::WithoutRelaxation] {
                let r = cyclo_compact(&g, &machine, CompactConfig::with_mode(mode)).expect("legal");
                summary.schedules += 1;
                let algebraic = validate(&r.graph, &machine, &r.schedule).is_ok();
                let replay = replay_static(&r.graph, &machine, &r.schedule, replay_iters);
                let st = run_self_timed(&r.graph, &machine, &r.schedule, replay_iters);
                summary.replay_iterations += u64::from(replay_iters);
                summary.messages += replay.messages;
                let self_timed_ok = st.initiation_interval <= f64::from(r.best_length) + 1e-9;
                if algebraic && replay.is_valid() && self_timed_ok {
                    summary.passed += 1;
                }
            }
        }
    }
    // Also pass the communication-oblivious baselines through.
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in table11_machines() {
            let bl = oblivious_list_scheduling(&g, &machine).expect("legal");
            summary.schedules += 1;
            if validate(&g, &machine, &bl.schedule).is_ok()
                && replay_static(&g, &machine, &bl.schedule, replay_iters).is_valid()
            {
                summary.passed += 1;
            }
            let (br, retimed) = oblivious_rotation_scheduling(&g, &machine, 32).expect("legal");
            summary.schedules += 1;
            if validate(&retimed, &machine, &br.schedule).is_ok()
                && replay_static(&retimed, &machine, &br.schedule, replay_iters).is_valid()
            {
                summary.passed += 1;
            }
            summary.replay_iterations += 2 * u64::from(replay_iters);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table11_shape_matches_paper() {
        let rows = table11();
        assert_eq!(rows.len(), 4); // 2 apps x 2 policies
        for row in &rows {
            assert_eq!(row.cells.len(), 5);
            for &(init, after) in &row.cells {
                assert!(
                    after <= init,
                    "{} {}: {} > {}",
                    row.application,
                    row.relax,
                    after,
                    init
                );
            }
        }
        // Relaxation dominates without-relaxation per app/machine.
        for app in ["Elliptic Filter", "Lattice Filter"] {
            let with = rows
                .iter()
                .find(|r| r.application == app && r.relax == "with")
                .unwrap();
            let without = rows
                .iter()
                .find(|r| r.application == app && r.relax == "w/o")
                .unwrap();
            for (w, wo) in with.cells.iter().zip(&without.cells) {
                assert!(w.1 <= wo.1, "{app}: with {} > w/o {}", w.1, wo.1);
            }
        }
        // Completely connected (column 0) is the shortest "after" cell
        // in the relaxed rows.
        for row in rows.iter().filter(|r| r.relax == "with") {
            let cc = row.cells[0].1;
            for &(_, after) in &row.cells[1..] {
                assert!(cc <= after, "{}: cc {} > {}", row.application, cc, after);
            }
        }
    }

    #[test]
    fn nineteen_node_shapes() {
        let results = nineteen_node();
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.compacted_len < r.startup_len, "{}", r.machine);
            assert!(r.startup_table.contains("pe1"));
            assert!(r.compacted_table.contains("pe1"));
        }
    }

    #[test]
    fn relaxation_trace_lengths() {
        let g = ccs_workloads::paper::fig1_example();
        let m = Machine::mesh(2, 2);
        let (with, without) = relaxation_trace(&g, &m, 10);
        assert_eq!(with.len(), 10);
        assert_eq!(without.len(), 10);
        // without relaxation: monotone non-increasing
        for w in without.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // both reach at least the paper's 5
        assert!(with.iter().min().unwrap() <= &5);
    }

    #[test]
    fn priority_ablation_pf_competitive() {
        let rows = priority_ablation();
        assert!(!rows.is_empty());
        // PF must win or tie against FIFO in aggregate.
        let pf: u64 = rows.iter().map(|r| u64::from(r.lengths[0])).sum();
        let fifo: u64 = rows.iter().map(|r| u64::from(r.lengths[2])).sum();
        assert!(pf <= fifo, "PF {pf} worse than FIFO {fifo} in aggregate");
    }

    #[test]
    fn small_random_sweep_runs() {
        let rows = random_sweep(&[10], 3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.mean_compacted <= r.mean_startup + 1e-9);
            assert!(r.mean_bound_gap >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn validation_summary_all_pass() {
        let s = validate_everything(4);
        assert_eq!(s.schedules, s.passed, "some schedules failed validation");
        assert!(s.schedules >= 7 * 5 * 2);
    }

    #[test]
    fn contention_only_slows_down() {
        for row in contention_study(12) {
            assert!(
                row.inflation() >= 1.0 - 1e-9,
                "{} on {}: contention sped things up?",
                row.workload,
                row.machine
            );
            assert!((0.0..=1.0).contains(&row.link_utilization));
        }
    }

    #[test]
    fn optimality_gap_orderings() {
        for row in optimality_gap(6) {
            if let Some(opt) = row.optimal {
                // Start-up (no retiming) can never beat the exact
                // no-retiming optimum; compaction (with retiming) can.
                assert!(row.startup >= opt, "seed {} on {}", row.seed, row.machine);
            }
            assert!(row.compacted <= row.startup);
        }
    }

    #[test]
    fn pe_scaling_monotone_and_bounded() {
        let rows = pe_scaling("lattice", 6);
        assert_eq!(rows.len(), 6);
        for w in rows.windows(2) {
            // More PEs on a completely connected machine never hurt by
            // much; allow small heuristic noise but enforce the floor.
            assert!(u64::from(w[1].length) >= w[1].bound);
        }
        // 1 PE serializes everything: length >= total work.
        assert!(rows[0].length as u64 >= 20);
    }
}
