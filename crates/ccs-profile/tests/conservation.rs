//! Conservation law: the profile's attributed traffic must equal the
//! schedule validator's *independently computed* communication cost.
//!
//! `ccs-core` emits the attribution events; `ccs-schedule`'s checker
//! recomputes `M(PE(u), PE(v)) = hops · c(e)` straight from the graph,
//! machine, and table.  If they ever disagree, either the emission
//! sites or the cost model drifted.
//!
//! The per-pass ledgers obey the same law: a replay of the driver loop
//! recomputes every accepted phase's ledger from scratch, which the
//! start-up snapshot plus the recorded pass deltas must rebuild.  The
//! same replay checks the pass story the profile keeps (the start-up
//! placement, and each pass's rotation set, outcome and lengths) and
//! the graph and retiming the driver returns.

use ccs_core::compact::{cyclo_compact, CompactConfig};
use ccs_core::{rotate_remap_in_place, startup_schedule, RemapConfig, RemapMode};
use ccs_model::Csdfg;
use ccs_schedule::checker::edge_comm_cost;
use ccs_schedule::Schedule;
use ccs_topology::Machine;
use ccs_trace::{EdgeTraffic, Event};
use proptest::prelude::*;

fn arb_csdfg() -> impl Strategy<Value = Csdfg> {
    (2usize..8).prop_flat_map(|n| {
        let times = proptest::collection::vec(1u32..4, n);
        let edges = proptest::collection::vec((0..n, 0..n, 0u32..3, 1u32..4), 1..n * 2);
        (times, edges).prop_map(move |(times, edges)| {
            let mut g = Csdfg::new();
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| g.add_task(format!("v{i}"), t).unwrap())
                .collect();
            for (a, b, d, c) in edges {
                let delay = if a < b { d } else { d.max(1) };
                g.add_dep(ids[a], ids[b], delay, c).unwrap();
            }
            g
        })
    })
}

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        (2usize..6).prop_map(Machine::linear_array),
        (3usize..7).prop_map(Machine::ring),
        (2usize..6).prop_map(Machine::complete),
        Just(Machine::mesh(2, 2)),
        Just(Machine::hypercube(2)),
    ]
}

/// Independent oracle: the full ledger of `(g, s)` on `m`, one row per
/// edge in edge order.
fn ledger_of(g: &Csdfg, m: &Machine, s: &Schedule) -> Vec<EdgeTraffic> {
    g.deps()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            let (pu, pv) = (s.pe(u).expect("placed"), s.pe(v).expect("placed"));
            EdgeTraffic {
                edge: e.index() as u32,
                src: u.index() as u32,
                dst: v.index() as u32,
                src_pe: pu.0,
                dst_pe: pv.0,
                hops: m.distance(pu, pv),
                volume: g.volume(e),
            }
        })
        .collect()
}

/// Independent oracle: comm cost of the final (graph, schedule) pair.
fn validator_comm(g: &Csdfg, m: &Machine, s: &ccs_schedule::Schedule) -> u64 {
    g.deps()
        .map(|e| u64::from(edge_comm_cost(g, m, s, e)))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn attributed_traffic_equals_validator_comm_cost(
        g in arb_csdfg(),
        m in arb_machine(),
    ) {
        let (result, events) = ccs_trace::record(|| {
            cyclo_compact(&g, &m, CompactConfig::default()).unwrap()
        });
        let profile = ccs_profile::build(&events, &m);

        // The ledger covers every edge of the final graph exactly once.
        prop_assert_eq!(profile.edges.len(), result.graph.deps().count());

        // Total attributed traffic == independently recomputed cost.
        let expect = validator_comm(&result.graph, &m, &result.schedule);
        prop_assert_eq!(profile.total_comm, expect);

        // Per-edge agreement, not just totals.
        for e in result.graph.deps() {
            let row = profile
                .edges
                .iter()
                .find(|r| r.edge as usize == e.index())
                .expect("ledger row for every edge");
            prop_assert_eq!(
                row.cost(),
                u64::from(edge_comm_cost(&result.graph, &m, &result.schedule, e))
            );
        }

        // Link attribution conserves hop-weighted volume: each crossing
        // edge charges its volume once per hop, so Σ link volumes ==
        // Σ hops·volume == total comm (all paper machines route every
        // hop over a physical link).
        let link_vol: u64 = profile.links.iter().map(|l| l.volume).sum();
        prop_assert_eq!(link_vol, profile.total_comm);

        // PE rows cover the whole task set and the compute total.
        let tasks: u64 = profile.pe_rows.iter().map(|r| u64::from(r.tasks)).sum();
        prop_assert_eq!(tasks, result.graph.task_count() as u64);
        let busy: u64 = profile.pe_rows.iter().map(|r| u64::from(r.busy)).sum();
        prop_assert_eq!(busy, profile.compute);
    }

    #[test]
    fn pass_deltas_rebuild_the_replayed_ledgers(
        g in arb_csdfg(),
        m in arb_machine(),
        mode in prop_oneof![Just(RemapMode::WithRelaxation), Just(RemapMode::WithoutRelaxation)],
        rows_per_pass in 1u32..4,
        stop_on_revert in 0u32..2,
    ) {
        let config = CompactConfig {
            passes: 24,
            remap: RemapConfig {
                mode,
                rows_per_pass,
                ..RemapConfig::default()
            },
            stop_on_revert: stop_on_revert == 1,
            ..CompactConfig::default()
        };
        let (result, events) = ccs_trace::record(|| cyclo_compact(&g, &m, config).unwrap());
        let profile = ccs_profile::build(&events, &m);

        // Replay the driver loop untraced and recompute each accepted
        // phase's ledger from (graph, machine, schedule).  Like the
        // driver, the replay stops before any pass once the best length
        // meets the proven floor.  It also snapshots its working graph
        // and retiming on every improvement, which the driver builds
        // from the best retiming alone.
        let floor = ccs_bounds::cheap_floor(&g, &m);
        prop_assert_eq!(u64::from(result.floor), floor);
        let mut graph = g.clone();
        let mut sched = startup_schedule(&g, &m, config.startup).unwrap();
        let mut kept: Vec<_> = profile
            .startup
            .iter()
            .map(|s| (s.node, s.pe, s.cs, s.duration))
            .collect();
        kept.sort_unstable();
        let mut slots: Vec<_> = sched
            .placements()
            .map(|(v, s)| (v.index() as u32, s.pe.0, s.start, s.duration))
            .collect();
        slots.sort_unstable();
        prop_assert_eq!(kept, slots);
        let mut best = sched.length();
        let mut retiming = vec![0i64; g.task_count()];
        let (mut best_graph, mut best_retiming) = (graph.clone(), retiming.clone());
        let mut ledgers = vec![ledger_of(&graph, &m, &sched)];
        let mut passes = Vec::new();
        for _ in 0..config.passes {
            if u64::from(best) <= floor {
                break;
            }
            let prev_len = sched.length();
            let out = rotate_remap_in_place(&mut graph, &m, &mut sched, config.remap);
            let rotated: Vec<u32> = out.rotated.iter().map(|v| v.index() as u32).collect();
            passes.push((rotated, !out.reverted, prev_len, sched.length()));
            if !out.reverted {
                for v in &out.rotated {
                    retiming[v.index()] += 1;
                }
                if sched.length() < best {
                    best = sched.length();
                    best_graph = graph.clone();
                    best_retiming = retiming.clone();
                }
                ledgers.push(ledger_of(&graph, &m, &sched));
            } else if config.stop_on_revert {
                break;
            }
        }
        prop_assert_eq!(best, result.best_length);
        for e in g.deps() {
            prop_assert_eq!(best_graph.delay(e), result.graph.delay(e));
        }
        let returned: Vec<i64> = g.tasks().map(|v| result.retiming.get(v)).collect();
        prop_assert_eq!(best_retiming, returned);
        let story: Vec<_> = profile
            .remap_passes()
            .map(|p| (p.rotated.clone(), p.accepted, p.prev_len, p.length))
            .collect();
        prop_assert_eq!(story, passes);
        prop_assert_eq!(profile.pass_ledgers.len(), ledgers.len());
        for (kept, replayed) in profile.pass_ledgers.iter().zip(&ledgers) {
            prop_assert_eq!(&kept.edges, replayed);
        }
        prop_assert_eq!(&profile.edges, &ledger_of(&result.graph, &m, &result.schedule));

        // Each accepted pass recorded exactly the rows it changed, in
        // edge order, each with an endpoint in its rotation set; a
        // reverted pass recorded none.
        let (mut rotated, mut delta, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
        let mut in_pass = false;
        for te in &events {
            match &te.event {
                Event::PassBegin { .. } => in_pass = true,
                Event::Rotate { nodes } => rotated = nodes.clone(),
                Event::EdgeTraffic(t) if in_pass => {
                    prop_assert!(rotated.contains(&t.src) || rotated.contains(&t.dst));
                    delta.push(*t);
                }
                Event::PassEnd { accepted, .. } => {
                    in_pass = false;
                    if *accepted {
                        deltas.push(std::mem::take(&mut delta));
                    }
                    prop_assert!(delta.is_empty());
                }
                _ => {}
            }
        }
        prop_assert_eq!(deltas.len() + 1, ledgers.len());
        for (delta, pair) in deltas.iter().zip(ledgers.windows(2)) {
            let moved: Vec<EdgeTraffic> = pair[1]
                .iter()
                .zip(&pair[0])
                .filter(|(after, before)| after != before)
                .map(|(after, _)| *after)
                .collect();
            prop_assert_eq!(delta, &moved);
        }
    }
}
