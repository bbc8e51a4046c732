//! Seeded random legal-CSDFG generation for sweeps and stress tests.

use ccs_model::Csdfg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`random_csdfg`].
#[derive(Clone, Copy, Debug)]
pub struct RandomGraphConfig {
    /// Number of tasks.
    pub nodes: usize,
    /// Probability of a zero-delay forward edge between any ordered
    /// pair `i < j`.
    pub forward_density: f64,
    /// Number of loop-carried back edges (each carries 1..=max_delay
    /// delays).
    pub back_edges: usize,
    /// Maximum computation time (inclusive, uniform in `1..=max_time`).
    pub max_time: u32,
    /// Maximum data volume (inclusive).
    pub max_volume: u32,
    /// Maximum delay on back edges (inclusive).
    pub max_delay: u32,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            nodes: 20,
            forward_density: 0.15,
            back_edges: 5,
            max_time: 3,
            max_volume: 3,
            max_delay: 3,
        }
    }
}

/// Generates a random legal CSDFG: zero-delay edges only go "forward"
/// in node order (so the zero-delay view is a DAG by construction),
/// and `back_edges` extra edges carry at least one delay each.
/// Deterministic in `seed`.
pub fn random_csdfg(config: RandomGraphConfig, seed: u64) -> Csdfg {
    assert!(config.nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Csdfg::new();
    let ids: Vec<_> = (0..config.nodes)
        .map(|i| {
            let t = rng.gen_range(1..=config.max_time.max(1));
            g.add_task(format!("v{i}"), t).expect("unique names")
        })
        .collect();
    // Forward DAG edges; guarantee connectivity with a random spine.
    for j in 1..config.nodes {
        let i = rng.gen_range(0..j);
        let vol = rng.gen_range(1..=config.max_volume.max(1));
        g.add_dep(ids[i], ids[j], 0, vol).expect("volume >= 1");
    }
    for i in 0..config.nodes {
        for j in (i + 1)..config.nodes {
            if rng.gen_bool(config.forward_density) {
                let vol = rng.gen_range(1..=config.max_volume.max(1));
                let delay = if rng.gen_bool(0.2) {
                    rng.gen_range(1..=config.max_delay.max(1))
                } else {
                    0
                };
                g.add_dep(ids[i], ids[j], delay, vol).expect("volume >= 1");
            }
        }
    }
    // Loop-carried back edges.
    for _ in 0..config.back_edges {
        let a = rng.gen_range(0..config.nodes);
        let b = rng.gen_range(0..config.nodes);
        let (src, dst) = if a >= b { (a, b) } else { (b, a) };
        let delay = rng.gen_range(1..=config.max_delay.max(1));
        let vol = rng.gen_range(1..=config.max_volume.max(1));
        g.add_dep(ids[src], ids[dst], delay, vol)
            .expect("volume >= 1");
    }
    debug_assert!(g.check_legal().is_ok());
    g
}

/// One strongly connected chain of `nodes` tasks, the size tier of the
/// certificate benchmarks: tasks `v0 .. v{n-1}` with times in `1..=3`,
/// chain edges `v{i} -> v{i+1}` with one delay on every 7th, `nodes / 2`
/// random edges (zero-delay forward, 1-3 delays backward), and the back
/// edge `v{n-1} -> v0` with one delay, which puts every task on one
/// cycle.  Volumes are in `1..=3`.  Deterministic in `seed`.
pub fn scc_chain(nodes: usize, seed: u64) -> Csdfg {
    assert!(nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Csdfg::new();
    let ids: Vec<_> = (0..nodes)
        .map(|i| {
            let t = rng.gen_range(1..=3);
            g.add_task(format!("v{i}"), t).expect("unique names")
        })
        .collect();
    for i in 1..nodes {
        let delay = u32::from(i % 7 == 0);
        let vol = rng.gen_range(1..=3);
        g.add_dep(ids[i - 1], ids[i], delay, vol)
            .expect("volume >= 1");
    }
    for _ in 0..nodes / 2 {
        let a = rng.gen_range(0..nodes);
        let b = (a + rng.gen_range(1..nodes)) % nodes;
        let delay = if a < b { 0 } else { rng.gen_range(1..=3) };
        let vol = rng.gen_range(1..=3);
        g.add_dep(ids[a], ids[b], delay, vol).expect("volume >= 1");
    }
    g.add_dep(ids[nodes - 1], ids[0], 1, 1)
        .expect("volume >= 1");
    debug_assert!(g.check_legal().is_ok());
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = RandomGraphConfig::default();
        let a = random_csdfg(cfg, 42);
        let b = random_csdfg(cfg, 42);
        assert_eq!(ccs_model::parser::write(&a), ccs_model::parser::write(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RandomGraphConfig::default();
        let a = random_csdfg(cfg, 1);
        let b = random_csdfg(cfg, 2);
        assert_ne!(ccs_model::parser::write(&a), ccs_model::parser::write(&b));
    }

    #[test]
    fn always_legal_across_seeds() {
        let cfg = RandomGraphConfig {
            nodes: 30,
            back_edges: 12,
            ..Default::default()
        };
        for seed in 0..50 {
            let g = random_csdfg(cfg, seed);
            assert!(g.check_legal().is_ok(), "seed {seed}");
            assert_eq!(g.task_count(), 30);
        }
    }

    #[test]
    fn spine_guarantees_single_weak_component() {
        let cfg = RandomGraphConfig {
            nodes: 15,
            forward_density: 0.0,
            back_edges: 0,
            ..Default::default()
        };
        let g = random_csdfg(cfg, 7);
        // Every node except v0 has at least one predecessor.
        for v in g.tasks() {
            if g.name(v) != "v0" {
                assert!(g.preds(v).count() > 0, "{} is orphaned", g.name(v));
            }
        }
    }

    #[test]
    fn respects_bounds() {
        let cfg = RandomGraphConfig {
            nodes: 25,
            max_time: 4,
            max_volume: 2,
            max_delay: 2,
            ..Default::default()
        };
        let g = random_csdfg(cfg, 9);
        for v in g.tasks() {
            assert!((1..=4).contains(&g.time(v)));
        }
        for e in g.deps() {
            assert!((1..=2).contains(&g.volume(e)));
            assert!(g.delay(e) <= 2);
        }
    }

    #[test]
    fn scc_chain_is_one_legal_scc() {
        for nodes in [2, 3, 50] {
            let g = scc_chain(nodes, 5);
            assert!(g.check_legal().is_ok(), "{nodes}");
            assert_eq!(g.task_count(), nodes);
            assert_eq!(g.dep_count(), nodes - 1 + nodes / 2 + 1);
            let sccs = ccs_graph::algo::scc::tarjan_scc(g.graph());
            assert_eq!(sccs.len(), 1, "{nodes}");
        }
        assert_eq!(
            ccs_model::parser::write(&scc_chain(40, 3)),
            ccs_model::parser::write(&scc_chain(40, 3))
        );
    }
}
