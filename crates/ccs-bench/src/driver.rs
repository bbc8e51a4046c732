//! Deterministic parallel fan-out for experiment grids.
//!
//! Every experiment that sweeps *independent* scheduling problems —
//! workloads × machines × configs, random seeds × sizes, growing PE
//! counts — funnels through [`run_many`]: a rayon-parallel map whose
//! output order equals the input order at any thread count (the
//! workspace `rayon` stand-in concatenates per-chunk results in input
//! order, and upstream rayon's `collect` on an indexed iterator has the
//! same property).  Experiments therefore produce byte-identical
//! reports whether run with `RAYON_NUM_THREADS=1` or 64.
//!
//! [`compact_grid`] is the common special case: `cyclo_compact` over a
//! full workloads × machines × configs grid, row-major.
//!
//! [`compact_grid_profiled`] runs the same sweep with a per-cell sink
//! installed, so every cell comes back with the scheduler's hot-path
//! counters (edges swept, slots probed, traffic attribution, ...) and
//! the traffic of its best schedule.  Both are pure event-stream folds,
//! so the profiled report is as thread-count-invariant as the plain
//! one; profiling is opt-in because installing a sink takes the
//! instrumented scheduler path.

use ccs_core::{cyclo_compact, CompactConfig};
use ccs_profile::{EdgeTraffic, LinkLoad};
use ccs_topology::Machine;
use ccs_trace::metrics::{Metrics, MetricsSink};
use ccs_trace::{Event, Sink, TrafficLedger};
use ccs_workloads::Workload;
use rayon::prelude::*;
use serde::Value;

/// Maps `f` over `inputs` in parallel; results come back in input
/// order regardless of thread count.
///
/// This is the only parallelism entry point the experiment harness
/// uses, so determinism arguments reduce to one place: cell functions
/// must be pure (no shared mutable state, no time/thread dependence),
/// and then the whole sweep is reproducible.
pub fn run_many<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    inputs.into_par_iter().map(f).collect()
}

/// One cell of a [`compact_grid`] sweep.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Workload registry name.
    pub workload: &'static str,
    /// Machine name.
    pub machine: String,
    /// Index into the `configs` slice passed to [`compact_grid`].
    pub config_ix: usize,
    /// Start-up schedule length.
    pub initial: u32,
    /// Best compacted schedule length.
    pub best: u32,
    /// Strongest static lower bound on the period (`ccs-bounds`); 0 for
    /// an empty graph, where no bound applies.
    pub bound: u64,
    /// Name of the binding bound family (`cycle_ratio`, `resource`,
    /// `critical_path`, `communication`), or `none`.
    pub bound_kind: &'static str,
}

impl GridCell {
    /// Steps between the achieved period and the proven bound.
    pub fn gap(&self) -> u64 {
        u64::from(self.best).saturating_sub(self.bound)
    }

    /// The gap as a percentage of the bound (0.0 when no bound
    /// applies — an empty graph is trivially optimal).
    pub fn gap_pct(&self) -> f64 {
        if self.bound == 0 {
            0.0
        } else {
            self.gap() as f64 * 100.0 / self.bound as f64
        }
    }
}

/// Row-major (workload outer, machine middle, config inner) input list
/// for the grid sweeps.
fn grid_inputs<'a>(
    workloads: &'a [Workload],
    machines: &'a [Machine],
    configs: &[CompactConfig],
) -> Vec<(&'a Workload, &'a Machine, usize, CompactConfig)> {
    let mut cells = Vec::with_capacity(workloads.len() * machines.len() * configs.len());
    for w in workloads {
        for m in machines {
            for (ci, c) in configs.iter().enumerate() {
                cells.push((w, m, ci, *c));
            }
        }
    }
    cells
}

fn solve_cell(w: &Workload, m: &Machine, ci: usize, c: CompactConfig) -> GridCell {
    let g = w.build();
    let r = cyclo_compact(&g, m, c).expect("legal workload");
    let bounds = ccs_bounds::compute_bounds(&g, m);
    let (bound, bound_kind) = match bounds.best() {
        Some(cert) => (cert.value, cert.kind.name()),
        None => (0, "none"),
    };
    GridCell {
        workload: w.name,
        machine: m.name().to_string(),
        config_ix: ci,
        initial: r.initial_length,
        best: r.best_length,
        bound,
        bound_kind,
    }
}

/// Runs `cyclo_compact` on every workload × machine × config cell in
/// parallel.  Result order is row-major — workloads outer, machines
/// middle, configs inner — independent of thread count.
pub fn compact_grid(
    workloads: &[Workload],
    machines: &[Machine],
    configs: &[CompactConfig],
) -> Vec<GridCell> {
    preflight(workloads, machines);
    run_many(
        grid_inputs(workloads, machines, configs),
        |(w, m, ci, c)| solve_cell(w, m, ci, c),
    )
}

/// Fans one event stream out to two sinks, in order.  Lets a grid cell
/// collect its counter registry *and* its traffic ledger from a single
/// instrumented run.
pub struct Tee<A: Sink, B: Sink>(pub A, pub B);

impl<A: Sink, B: Sink> Sink for Tee<A, B> {
    fn event(&mut self, ev: Event) {
        self.0.event(ev.clone());
        self.1.event(ev);
    }
}

/// One cell of a [`compact_grid_profiled`] sweep: the plain cell, its
/// counter registry, and the traffic of its final best schedule — the
/// input the sweep grid dashboard renders one heatmap tile from.
#[derive(Clone, Debug)]
pub struct ProfiledCell {
    /// The schedule-length outcome, as in [`compact_grid`].
    pub cell: GridCell,
    /// Hot-path counters recorded while solving this cell.  Only the
    /// counters are deterministic; the wall-clock histograms are not.
    pub metrics: Metrics,
    /// The per-edge traffic ledger of the best schedule, folded from
    /// the same event stream as the counters.
    pub edges: Vec<EdgeTraffic>,
    /// The hop-weighted link loads of `edges`
    /// ([`ccs_profile::link_loads`]).
    pub links: Vec<LinkLoad>,
    /// Whether the machine routes (`ccs_profile::routable`): on
    /// routable cells the dashboard's heatmaps carry conservation
    /// totals that `report-check` re-verifies.
    pub routable: bool,
}

impl ProfiledCell {
    /// Deterministic JSON summary of the cell: identity, lengths, and
    /// the counter registry (histograms and traffic deliberately
    /// excluded so the value is byte-identical across runs and thread
    /// counts).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "workload".to_string(),
                Value::String(self.cell.workload.to_string()),
            ),
            (
                "machine".to_string(),
                Value::String(self.cell.machine.clone()),
            ),
            (
                "config_ix".to_string(),
                Value::UInt(self.cell.config_ix as u64),
            ),
            (
                "initial".to_string(),
                Value::UInt(u64::from(self.cell.initial)),
            ),
            ("best".to_string(), Value::UInt(u64::from(self.cell.best))),
            ("bound".to_string(), Value::UInt(self.cell.bound)),
            (
                "bound_kind".to_string(),
                Value::String(self.cell.bound_kind.to_string()),
            ),
            ("gap".to_string(), Value::UInt(self.cell.gap())),
            ("gap_pct".to_string(), Value::Float(self.cell.gap_pct())),
            ("counters".to_string(), self.metrics.counters_value()),
        ])
    }
}

/// [`compact_grid`] with each cell's counters and final traffic: each
/// cell runs once under a [`Tee`] of a [`MetricsSink`] and a live
/// [`TrafficLedger`], installed on whatever worker thread picks the
/// cell up, so no counters bleed between cells and the dashboard's
/// heatmaps and the BENCH counters describe the *same* run.  Both fold
/// the deterministic event stream, so a sweep serialized via
/// [`ProfiledCell::to_value`] is byte-identical across thread counts —
/// the property `tests/determinism.rs` pins.
pub fn compact_grid_profiled(
    workloads: &[Workload],
    machines: &[Machine],
    configs: &[CompactConfig],
) -> Vec<ProfiledCell> {
    preflight(workloads, machines);
    run_many(
        grid_inputs(workloads, machines, configs),
        |(w, m, ci, c)| {
            let (cell, Tee(metrics, ledger)) =
                ccs_trace::with_sink(Tee(MetricsSink::new(), TrafficLedger::default()), || {
                    solve_cell(w, m, ci, c)
                });
            let edges = ledger.rows().to_vec();
            ProfiledCell {
                cell,
                metrics: metrics.into_metrics(),
                links: ccs_profile::link_loads(m, &edges),
                edges,
                routable: ccs_profile::routable(m),
            }
        },
    )
}

/// Pass A preflight: every workload x machine pair must be free of
/// analyzer *errors* before the sweep burns CPU on it.  Runs once per
/// grid, sequentially, outside every timed region — experiment
/// binaries call [`compact_grid`] from untimed setup code, and the
/// hot-path benchmark builds its `"cells"` section after its timed
/// sections.
///
/// # Panics
///
/// Panics with the rendered diagnostics when any pair has errors; an
/// experiment grid with an illegal cell would otherwise die later with
/// a less helpful message from inside the scheduler.
fn preflight(workloads: &[Workload], machines: &[Machine]) {
    for w in workloads {
        let g = w.build();
        for m in machines {
            let report = ccs_analyze::analyze(&g, m);
            assert!(
                !report.has_errors(),
                "preflight: workload {:?} on {} has analyzer errors:\n{}",
                w.name,
                m.name(),
                report.render_human()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_many_preserves_input_order() {
        let out = run_many((0..257usize).collect(), |i| i * 3);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn profiled_grid_matches_plain_grid_and_counts_work() {
        let workloads: Vec<Workload> = ccs_workloads::all_workloads()
            .into_iter()
            .filter(|w| w.name == "fig1")
            .collect();
        let machines = vec![Machine::mesh(2, 2)];
        let configs = vec![CompactConfig::default()];
        let plain = compact_grid(&workloads, &machines, &configs);
        let profiled = compact_grid_profiled(&workloads, &machines, &configs);
        assert_eq!(plain.len(), profiled.len());
        for (p, m) in plain.iter().zip(&profiled) {
            assert_eq!(p.workload, m.cell.workload);
            assert_eq!(p.machine, m.cell.machine);
            assert_eq!((p.initial, p.best), (m.cell.initial, m.cell.best));
            assert_eq!((p.bound, p.bound_kind), (m.cell.bound, m.cell.bound_kind));
            assert!(p.bound >= 1, "every workload has a positive bound");
            assert!(p.bound <= u64::from(p.best), "bound must be sound");
            // The cell actually recorded scheduler work and traffic.
            assert!(m.metrics.counters["edges_swept"] > 0);
            assert!(m.metrics.counters["traffic_events"] > 0);
            assert!(!m.edges.is_empty(), "fig1 has edges");
            let v = m.to_value();
            assert_eq!(v["workload"].as_str(), Some("fig1"));
            assert_eq!(v["bound"].as_u64(), Some(p.bound));
            assert!(v["gap_pct"].as_f64().is_some());
            assert!(v["counters"]["placements"].as_u64().unwrap() > 0);
            assert!(v.get("histograms").is_none(), "histograms must not leak");
        }
        // Profiling must not leak a sink past the sweep.
        assert!(!ccs_trace::installed());
    }

    /// The ledger a [`Tee`] folds live, and its link loads, equal the
    /// final edges and links of [`ccs_profile::build`] over a recorded
    /// run of the same cell.
    #[test]
    fn live_ledgers_equal_the_replayed_profiles() {
        let workloads: Vec<Workload> = ccs_workloads::all_workloads()
            .into_iter()
            .filter(|w| w.name == "fig1" || w.name == "elliptic")
            .collect();
        let machines = Machine::paper_suite();
        let configs = vec![CompactConfig::default()];
        let live = compact_grid_profiled(&workloads, &machines, &configs);
        assert_eq!(live.len(), 2 * machines.len());
        let mut cells = live.iter();
        let mut moved = 0;
        for w in &workloads {
            let g = w.build();
            for m in &machines {
                let cell = cells.next().expect("one cell per pair");
                let (_, events) = ccs_trace::record(|| cyclo_compact(&g, m, configs[0]));
                let replayed = ccs_profile::build(&events, m);
                let what = format!("{} on {}", w.name, m.name());
                assert_eq!(cell.edges, replayed.edges, "{what}");
                assert_eq!(cell.links, replayed.links, "{what}");
                assert!(!cell.edges.is_empty(), "{what}");
                moved += usize::from(replayed.edges != replayed.pass_ledgers[0].edges);
            }
        }
        assert!(
            moved > 0,
            "some final ledger differs from its start-up ledger"
        );
    }

    #[test]
    fn compact_grid_matches_sequential_loop() {
        let workloads: Vec<Workload> = ccs_workloads::all_workloads()
            .into_iter()
            .filter(|w| w.name == "fig1" || w.name == "iir")
            .collect();
        let machines = vec![Machine::linear_array(4), Machine::complete(4)];
        let configs = vec![CompactConfig::default()];
        let grid = compact_grid(&workloads, &machines, &configs);
        assert_eq!(grid.len(), 4);
        let mut ix = 0;
        for w in &workloads {
            for m in &machines {
                let r = cyclo_compact(&w.build(), m, configs[0]).expect("legal");
                assert_eq!(grid[ix].workload, w.name);
                assert_eq!(grid[ix].machine, m.name());
                assert_eq!(grid[ix].initial, r.initial_length);
                assert_eq!(grid[ix].best, r.best_length);
                ix += 1;
            }
        }
    }
}
