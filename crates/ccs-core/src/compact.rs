//! The cyclo-compaction driver (paper §4, `Algorithm Cyclo-Compact`).

use crate::remap::{nid, remap_probed, RemapConfig, RemapMode, Scratch};
use crate::startup::{startup_probed, StartupConfig};
use ccs_model::{Csdfg, ModelError, NodeId};
use ccs_retiming::Retiming;
use ccs_schedule::{PslLedger, Schedule};
use ccs_topology::Machine;
use ccs_trace::{Event, Off, Probe, Tls};
use serde::{DeError, Deserialize, Serialize, Value};
use std::time::Instant;

/// Options for [`cyclo_compact`].
#[derive(Clone, Copy, Debug)]
pub struct CompactConfig {
    /// Maximum number of rotate-remap passes (the paper's `z`).  The
    /// run stops earlier once the best schedule meets its proven floor
    /// (see [`Compaction::floor`]).
    pub passes: usize,
    /// Start-up scheduler options.
    pub startup: StartupConfig,
    /// Remapping options (relaxation policy, growth budget).
    pub remap: RemapConfig,
    /// Stop as soon as a pass is reverted (the search has stalled).
    /// With relaxation this is rare; without relaxation it is the
    /// natural fixpoint.
    pub stop_on_revert: bool,
}

impl Default for CompactConfig {
    fn default() -> Self {
        CompactConfig {
            passes: 64,
            startup: StartupConfig::default(),
            remap: RemapConfig::default(),
            stop_on_revert: true,
        }
    }
}

impl CompactConfig {
    /// Convenience: default configuration with the given relaxation
    /// mode.
    pub fn with_mode(mode: RemapMode) -> Self {
        CompactConfig {
            remap: RemapConfig {
                mode,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Telemetry for one pass of the driver.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// 1-based pass number.
    pub pass: usize,
    /// Nodes rotated in this pass.
    pub rotated: Vec<NodeId>,
    /// Schedule length after the pass.
    pub length: u32,
    /// Whether the pass was rolled back.
    pub reverted: bool,
    /// Wall-clock milliseconds the pass took, measured only while a
    /// trace sink is installed (`0.0` otherwise, so an unrecorded run
    /// reads no clock).  Observability only — excluded from every
    /// determinism fingerprint (the schedule and the decision sequence
    /// stay a pure function of the inputs).
    pub wall_ms: f64,
}

// Manual impls: the vendored serde derive handles named-field structs
// only via `Serialize`/`Deserialize` on every field, and `NodeId`
// deliberately has no serde surface (schedules serialize raw indices).
//
// `Serialize` deliberately omits `wall_ms`, so every export stays
// byte-identical across runs and machines; `Deserialize` reads the
// field when outside input carries it.
impl Serialize for PassRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("pass".to_string(), Value::UInt(self.pass as u64)),
            (
                "rotated".to_string(),
                Value::Array(
                    self.rotated
                        .iter()
                        .map(|&v| Value::UInt(u64::from(nid(v))))
                        .collect(),
                ),
            ),
            ("length".to_string(), Value::UInt(u64::from(self.length))),
            ("reverted".to_string(), Value::Bool(self.reverted)),
        ])
    }
}

impl Deserialize for PassRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pass = v
            .get("pass")
            .and_then(Value::as_u64)
            .ok_or_else(|| DeError::msg("PassRecord: missing `pass`"))?;
        let rotated = v
            .get("rotated")
            .and_then(Value::as_array)
            .ok_or_else(|| DeError::msg("PassRecord: missing `rotated`"))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .and_then(|i| usize::try_from(i).ok())
                    .map(NodeId::from_index)
                    .ok_or_else(|| DeError::msg("PassRecord: bad node index"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let length = v
            .get("length")
            .and_then(Value::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| DeError::msg("PassRecord: missing `length`"))?;
        let reverted = v
            .get("reverted")
            .and_then(Value::as_bool)
            .ok_or_else(|| DeError::msg("PassRecord: missing `reverted`"))?;
        let wall_ms = v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
        Ok(PassRecord {
            pass: usize::try_from(pass).map_err(|_| DeError::msg("PassRecord: pass overflow"))?,
            rotated,
            length,
            reverted,
            wall_ms,
        })
    }
}

/// Result of [`cyclo_compact`].
#[derive(Clone, Debug)]
pub struct Compaction {
    /// The best (shortest) schedule observed, the paper's `Q`.
    pub schedule: Schedule,
    /// The retimed graph matching [`Compaction::schedule`].
    pub graph: Csdfg,
    /// Cumulative retiming from the input graph to
    /// [`Compaction::graph`].
    pub retiming: Retiming,
    /// The start-up schedule the search began from.
    pub initial: Schedule,
    /// Length of the start-up schedule.
    pub initial_length: u32,
    /// Length of the best schedule.
    pub best_length: u32,
    /// The proven floor the run stops at: `ccs_bounds::cheap_floor` of
    /// the input, the larger of the cycle-ratio and resource bounds.
    /// No legal retiming of the input has a shorter schedule, so once
    /// `best_length <= floor` no pass is run.
    pub floor: u32,
    /// Per-pass telemetry.
    pub history: Vec<PassRecord>,
}

impl Compaction {
    /// Relative improvement `initial / best` (>= 1).
    pub fn speedup(&self) -> f64 {
        f64::from(self.initial_length) / f64::from(self.best_length)
    }
}

/// Runs start-up scheduling followed by up to `config.passes`
/// rotate-remap passes, returning the best schedule seen (paper's
/// `Cyclo-Compact(G, z)`).  No pass runs once the best schedule meets
/// its proven floor ([`Compaction::floor`]): the best schedule is
/// replaced only by a strictly shorter one, and none exists.
///
/// # Errors
///
/// Returns an error if `g` is not a legal CSDFG.
pub fn cyclo_compact(
    g: &Csdfg,
    machine: &Machine,
    config: CompactConfig,
) -> Result<Compaction, ModelError> {
    // One dispatch per run; the probe is threaded through startup and
    // every pass, so the uninstrumented path never re-checks the sink.
    if ccs_trace::installed() {
        compact_probed(g, machine, config, None, &mut Tls)
    } else {
        compact_probed(g, machine, config, None, &mut Off)
    }
}

/// [`cyclo_compact`] instrumented against probe `P`.  `floor`
/// replaces the proven floor when given; only tests pass one (0, so
/// that no run with tasks stops early).
pub(crate) fn compact_probed<P: Probe>(
    g: &Csdfg,
    machine: &Machine,
    config: CompactConfig,
    floor: Option<u32>,
    probe: &mut P,
) -> Result<Compaction, ModelError> {
    if P::ACTIVE {
        probe.emit(Event::CompactBegin {
            tasks: u32::try_from(g.task_count()).unwrap_or(u32::MAX),
            pes: u32::try_from(machine.num_pes()).unwrap_or(u32::MAX),
            max_passes: u32::try_from(config.passes).unwrap_or(u32::MAX),
        });
    }
    let initial = startup_probed(g, machine, config.startup, probe)?;
    let initial_length = initial.length();
    // Proven after start-up, which returns an error for an illegal
    // graph where the bound would panic.
    let floor = floor
        .unwrap_or_else(|| u32::try_from(ccs_bounds::cheap_floor(g, machine)).unwrap_or(u32::MAX));

    // The working graph is always `retiming.apply(g)`, so the best
    // pair is snapshotted as its retiming alone, and after the loop the
    // working graph is retimed to it.
    let mut cur_sched = initial.clone();
    let mut cur_graph = g.clone();
    let mut retiming = Retiming::zero_for(g);
    let mut ledger = PslLedger::new(&cur_graph, machine, &cur_sched);
    let mut scratch = Scratch::default();
    let mut best_sched = initial.clone();
    let mut best_retiming = retiming.clone();
    let mut history = Vec::with_capacity(config.passes);

    let mut passes_run: u32 = 0;
    for pass in 1..=config.passes {
        // Stop at the proof: the best schedule meets a proven floor.
        if best_sched.length() <= floor {
            break;
        }
        let prev_len = cur_sched.length();
        if P::ACTIVE {
            probe.emit(Event::PassBegin {
                pass: u32::try_from(pass).unwrap_or(u32::MAX),
                prev_len,
                rows: config.remap.rows_per_pass.clamp(1, prev_len.max(1)),
            });
        }
        // CLOCK: feeds PassRecord::wall_ms, the one sanctioned timing
        // field — read for recorded runs only, and excluded from
        // fingerprints and ledger diffs.
        let t0 = P::ACTIVE.then(Instant::now);
        // The pass mutates the working pair and its PSL ledger in
        // place; a reverted pass restores all three, so nothing is
        // cloned on the per-pass hot path.  Every pass scans in the
        // run's one set of buffers.
        let out = remap_probed(
            &mut cur_graph,
            machine,
            &mut cur_sched,
            &mut ledger,
            &mut scratch,
            config.remap,
            probe,
        );
        let wall_ms = t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
        passes_run += 1;
        if !out.reverted {
            for &v in &out.rotated {
                retiming.bump(v, 1);
            }
        }
        let reverted = out.reverted;
        if P::ACTIVE {
            probe.emit(Event::PassEnd {
                pass: u32::try_from(pass).unwrap_or(u32::MAX),
                accepted: !reverted,
                length: cur_sched.length(),
            });
        }
        history.push(PassRecord {
            pass,
            rotated: out.rotated,
            length: cur_sched.length(),
            reverted,
            wall_ms,
        });
        if reverted {
            if config.stop_on_revert {
                break;
            }
            continue;
        }
        // Pass B oracle: an accepted pass must leave a valid pair
        // (no-op unless debug assertions or the `paranoid` feature).
        crate::oracle::verify(
            "cyclo_compact: accepted pass",
            &cur_graph,
            machine,
            &cur_sched,
        );
        if P::ACTIVE {
            let occ = cur_sched.occupancy();
            probe.emit(Event::OccupancySnapshot {
                pass: u32::try_from(pass).unwrap_or(u32::MAX),
                busy_cells: occ.busy_cells,
                holes: occ.holes,
                used_pes: occ.used_pes,
                length: occ.length,
            });
        }
        // Snapshot only on improvement, into the best pair's own
        // allocations.
        if cur_sched.length() < best_sched.length() {
            best_sched.clone_from(&cur_sched);
            best_retiming.clone_from(&retiming);
            if P::ACTIVE {
                probe.emit(Event::BestSnapshot {
                    pass: u32::try_from(pass).unwrap_or(u32::MAX),
                    length: best_sched.length(),
                });
            }
        }
    }

    let best_length = best_sched.length();
    // The working graph becomes the best one: every delay retimed from
    // `g`'s, as `best_retiming.apply(g)` would set it on a fresh copy.
    let mut best_graph = cur_graph;
    for e in g.deps() {
        let d = best_retiming.retimed_delay(g, e);
        // INVARIANT: the best retiming is one the loop applied to the
        // working graph, so every retimed delay was a legal one.
        best_graph.set_delay(e, u32::try_from(d).expect("a legal retiming"));
    }
    // Bound oracle (paranoid/debug builds): the best validated
    // schedule must never beat a statically proven lower bound of the
    // *input* graph — the bounds are retiming-invariant, so every
    // rotation the loop performed is covered.  A trip means the bound
    // engine or the validator is wrong; fail loudly either way.
    crate::oracle::verify_bounds("cyclo_compact: end", g, machine, &best_sched);
    // Authoritative final ledger: traffic attribution and per-PE loads
    // of the *best* schedule (which may predate the last accepted pass
    // under relaxation).  `ccs-profile` folds exactly this section.
    crate::traffic::emit_edge_traffic(&best_graph, machine, &best_sched, probe);
    crate::traffic::emit_pe_loads(&best_sched, probe);
    if P::ACTIVE {
        probe.emit(Event::CompactEnd {
            initial: initial_length,
            best: best_length,
            passes: passes_run,
            floor,
        });
    }
    Ok(Compaction {
        schedule: best_sched,
        graph: best_graph,
        retiming: best_retiming,
        initial,
        initial_length,
        best_length,
        floor,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_schedule::validate;

    fn fig1() -> (Csdfg, Vec<NodeId>, Machine) {
        let mut g = Csdfg::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| {
                let t = if *n == "B" || *n == "E" { 2 } else { 1 };
                g.add_task(*n, t).unwrap()
            })
            .collect();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        g.add_dep(a, e, 0, 1).unwrap();
        g.add_dep(b, d, 0, 1).unwrap();
        g.add_dep(b, e, 0, 2).unwrap();
        g.add_dep(c, e, 0, 1).unwrap();
        g.add_dep(d, a, 3, 3).unwrap();
        g.add_dep(d, f, 0, 2).unwrap();
        g.add_dep(e, f, 0, 1).unwrap();
        g.add_dep(f, e, 1, 1).unwrap();
        (g, ids, Machine::mesh(2, 2))
    }

    #[test]
    fn paper_example_compacts_from_seven_to_five() {
        let (g, _, m) = fig1();
        let result = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        assert_eq!(result.initial_length, 7);
        assert!(result.best_length <= 5, "got {}", result.best_length);
        assert!(validate(&result.graph, &m, &result.schedule).is_ok());
        assert!(result.speedup() >= 1.4 - 1e-9);
    }

    #[test]
    fn best_schedule_matches_retimed_graph() {
        let (g, _, m) = fig1();
        let result = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        // The recorded retiming applied to the input graph must equal
        // the returned graph.
        assert!(result.retiming.is_legal(&g));
        let reapplied = result.retiming.apply(&g);
        for e in g.deps() {
            assert_eq!(reapplied.delay(e), result.graph.delay(e));
        }
    }

    #[test]
    fn without_relaxation_lengths_monotone() {
        let (g, _, m) = fig1();
        let result = cyclo_compact(
            &g,
            &m,
            CompactConfig::with_mode(RemapMode::WithoutRelaxation),
        )
        .unwrap();
        let mut prev = result.initial_length;
        for rec in &result.history {
            if !rec.reverted {
                assert!(
                    rec.length <= prev,
                    "pass {} grew {} -> {}",
                    rec.pass,
                    prev,
                    rec.length
                );
                prev = rec.length;
            }
        }
    }

    #[test]
    fn both_modes_valid_on_all_paper_machines() {
        let (g, _, _) = fig1();
        for machine in Machine::paper_suite() {
            for mode in [RemapMode::WithoutRelaxation, RemapMode::WithRelaxation] {
                let result = cyclo_compact(&g, &machine, CompactConfig::with_mode(mode)).unwrap();
                assert!(
                    validate(&result.graph, &machine, &result.schedule).is_ok(),
                    "{mode:?} on {}",
                    machine.name()
                );
                assert!(result.best_length <= result.initial_length);
            }
        }
    }

    #[test]
    fn zero_passes_returns_startup() {
        let (g, _, m) = fig1();
        let cfg = CompactConfig {
            passes: 0,
            ..Default::default()
        };
        let result = cyclo_compact(&g, &m, cfg).unwrap();
        assert_eq!(result.best_length, result.initial_length);
        assert!(result.history.is_empty());
    }

    #[test]
    fn stops_once_the_best_meets_the_floor() {
        let (g, _, m) = fig1();
        let result = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        // ceil(B) = 3 binds; the best first reaches it on pass 16.
        assert_eq!((result.best_length, result.floor), (3, 3));
        assert_eq!(result.history.len(), 16);
        assert_eq!(result.history.last().map(|r| r.length), Some(3));
        // With the floor at 0 the loop runs all 64 passes to the same
        // result.
        let full = compact_probed(&g, &m, CompactConfig::default(), Some(0), &mut Off).unwrap();
        assert_eq!(full.history.len(), 64);
        assert_eq!(full.schedule, result.schedule);
        assert_eq!(full.retiming, result.retiming);
    }

    #[test]
    fn history_records_every_pass() {
        let (g, _, m) = fig1();
        let cfg = CompactConfig {
            passes: 5,
            stop_on_revert: false,
            ..Default::default()
        };
        let result = cyclo_compact(&g, &m, cfg).unwrap();
        assert_eq!(result.history.len(), 5);
        for (i, rec) in result.history.iter().enumerate() {
            assert_eq!(rec.pass, i + 1);
        }
    }

    #[test]
    fn pass_records_have_wall_time_and_round_trip_serde() {
        let (g, _, m) = fig1();
        // An unrecorded run reads no clock.
        let plain = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        assert!(plain.history.iter().all(|rec| rec.wall_ms == 0.0));
        let (result, _) =
            ccs_trace::record(|| cyclo_compact(&g, &m, CompactConfig::default()).unwrap());
        assert!(!result.history.is_empty());
        for rec in &result.history {
            assert!(rec.wall_ms >= 0.0);
            // Default serialization omits the non-deterministic clock.
            let v = rec.to_value();
            assert!(v.get("wall_ms").is_none(), "wall_ms leaked: {v:?}");
            let back = PassRecord::from_value(&v).unwrap();
            assert_eq!(back.pass, rec.pass);
            assert_eq!(back.rotated, rec.rotated);
            assert_eq!(back.length, rec.length);
            assert_eq!(back.reverted, rec.reverted);
            assert_eq!(back.wall_ms, 0.0);
        }
        // Records that carry `wall_ms` load it.
        let v = Value::Object(vec![
            ("pass".to_string(), Value::UInt(2)),
            ("rotated".to_string(), Value::Array(vec![])),
            ("length".to_string(), Value::UInt(4)),
            ("reverted".to_string(), Value::Bool(true)),
            ("wall_ms".to_string(), Value::Float(1.5)),
        ]);
        assert_eq!(PassRecord::from_value(&v).unwrap().wall_ms, 1.5);
        // Older serialized records without `wall_ms` still load.
        let v = Value::Object(vec![
            ("pass".to_string(), Value::UInt(1)),
            ("rotated".to_string(), Value::Array(vec![Value::UInt(0)])),
            ("length".to_string(), Value::UInt(5)),
            ("reverted".to_string(), Value::Bool(false)),
        ]);
        let rec = PassRecord::from_value(&v).unwrap();
        assert_eq!(rec.wall_ms, 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let (g, _, m) = fig1();
        let plain = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        let (traced, events) =
            ccs_trace::record(|| cyclo_compact(&g, &m, CompactConfig::default()).unwrap());
        assert_eq!(traced.best_length, plain.best_length);
        assert_eq!(traced.initial_length, plain.initial_length);
        let a: Vec<_> = traced.schedule.placements().collect();
        let b: Vec<_> = plain.schedule.placements().collect();
        assert_eq!(a, b, "tracing must not perturb the schedule");
        assert!(!events.is_empty());
        // Every remapped node names its chosen slot; the stream starts
        // with the compact span and ends with its close.
        assert!(matches!(
            events.first().map(|t| &t.event),
            Some(ccs_trace::Event::CompactBegin { .. })
        ));
        assert!(matches!(
            events.last().map(|t| &t.event),
            Some(ccs_trace::Event::CompactEnd { .. })
        ));
        let places = events
            .iter()
            .filter(|t| matches!(t.event, ccs_trace::Event::Placed(_)))
            .count();
        let rotated: usize = traced
            .history
            .iter()
            .filter(|r| !r.reverted)
            .map(|r| r.rotated.len())
            .sum();
        assert!(places >= rotated, "placed {places} < rotated {rotated}");
    }

    #[test]
    fn single_node_graph() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        g.add_dep(a, a, 1, 1).unwrap();
        let m = Machine::complete(2);
        let result = cyclo_compact(&g, &m, CompactConfig::default()).unwrap();
        assert_eq!(result.best_length, 2);
        assert!(validate(&result.graph, &m, &result.schedule).is_ok());
    }
}
