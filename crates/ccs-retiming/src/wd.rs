//! The Leiserson–Saxe `W`/`D` matrices and the matrix-based minimum
//! clock-period retiming (`OPT1`): the test oracle of the iterative
//! `FEAS` implementation in [`clock_period`](crate::clock_period).
//! `O(V^3)` time and `O(V^2)` memory, so it is compiled for tests only.
//!
//! For nodes `u, v` connected by some path:
//!
//! * `W(u, v)` — the minimum total delay over all `u -> v` paths;
//! * `D(u, v)` — the maximum total computation time over the
//!   *minimum-delay* paths (inclusive of both endpoints).
//!
//! A clock period `c` is achievable iff the constraint system
//! `r(v) - r(u) <= d(e)` (legality, this library's sign convention) and
//! `r(v) - r(u) <= W(u,v) - 1` for every pair with `D(u,v) > c` has a
//! solution, found by Bellman–Ford on the constraint graph.

use crate::retiming::Retiming;
use ccs_model::{Csdfg, NodeId};

/// The `W` and `D` matrices of a CSDFG, dense over raw node indices;
/// unconnected pairs hold `None`.
#[derive(Clone, Debug)]
pub struct WdMatrices {
    n: usize,
    w: Vec<Option<(u64, u64)>>, // (W, max total time on min-delay path)
}

impl WdMatrices {
    /// Computes the matrices by Floyd–Warshall over lexicographic
    /// `(delay, -time)` path weights.  `O(V^3)`.
    pub fn new(g: &Csdfg) -> Self {
        let n = g.task_count();
        // dist[u][v] = (min delay, max path time at that delay)
        let mut w: Vec<Option<(u64, u64)>> = vec![None; n * n];
        let at = |u: usize, v: usize| u * n + v;
        for v in g.tasks() {
            // Trivial path: the node itself.
            w[at(v.index(), v.index())] = Some((0, u64::from(g.time(v))));
        }
        for e in g.deps() {
            let (u, v) = g.endpoints(e);
            if u == v {
                continue; // self loop is never a *shortest* useful path
            }
            let cand = (
                u64::from(g.delay(e)),
                u64::from(g.time(u)) + u64::from(g.time(v)),
            );
            let slot = &mut w[at(u.index(), v.index())];
            *slot = Some(match *slot {
                None => cand,
                Some(cur) => better(cur, cand),
            });
        }
        let live: Vec<usize> = g.tasks().map(|v| v.index()).collect();
        for &k in &live {
            for &i in &live {
                let Some((dik, tik)) = w[at(i, k)] else {
                    continue;
                };
                for &j in &live {
                    let Some((dkj, tkj)) = w[at(k, j)] else {
                        continue;
                    };
                    if i == k || j == k {
                        continue;
                    }
                    // time of concatenated path counts k once.
                    let tk = tik + tkj - time_of(g, k);
                    let cand = (dik + dkj, tk);
                    let slot = &mut w[at(i, j)];
                    *slot = Some(match *slot {
                        None => cand,
                        Some(cur) => better(cur, cand),
                    });
                }
            }
        }
        WdMatrices { n, w }
    }

    /// `W(u, v)`: minimum path delay, `None` if `v` is unreachable.
    pub fn w(&self, u: NodeId, v: NodeId) -> Option<u64> {
        self.w[u.index() * self.n + v.index()].map(|(d, _)| d)
    }

    /// `D(u, v)`: maximum computation over minimum-delay paths.
    pub fn d(&self, u: NodeId, v: NodeId) -> Option<u64> {
        self.w[u.index() * self.n + v.index()].map(|(_, t)| t)
    }

    /// All distinct `D` values, sorted: the candidate clock periods.
    pub fn candidate_periods(&self) -> Vec<u64> {
        let mut ds: Vec<u64> = self.w.iter().flatten().map(|&(_, t)| t).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }
}

fn better(cur: (u64, u64), cand: (u64, u64)) -> (u64, u64) {
    // lexicographic: smaller delay wins; equal delay keeps larger time.
    match cand.0.cmp(&cur.0) {
        std::cmp::Ordering::Less => cand,
        std::cmp::Ordering::Greater => cur,
        std::cmp::Ordering::Equal => (cur.0, cur.1.max(cand.1)),
    }
}

fn time_of(g: &Csdfg, raw: usize) -> u64 {
    u64::from(g.time(NodeId::from_index(raw)))
}

/// Tests period `c` via the `W`/`D` constraint system; returns a
/// witness retiming (paper sign convention, normalized) on success.
pub fn feasible_wd(g: &Csdfg, wd: &WdMatrices, c: u64) -> Option<Retiming> {
    // Constraint graph on live nodes: edge (u -> v, weight) encodes
    // r(v) <= r(u) + weight.
    let mut constraints: Vec<(usize, usize, f64)> = Vec::new();
    for e in g.deps() {
        let (u, v) = g.endpoints(e);
        constraints.push((u.index(), v.index(), f64::from(g.delay(e))));
    }
    for u in g.tasks() {
        for v in g.tasks() {
            if let (Some(wuv), Some(duv)) = (wd.w(u, v), wd.d(u, v)) {
                if duv > c {
                    if u == v {
                        return None; // a single chain through u exceeds c
                    }
                    constraints.push((u.index(), v.index(), wuv as f64 - 1.0));
                }
            }
        }
    }
    // Bellman-Ford from a virtual source at potential 0.
    let bound = g.task_count();
    let mut pot = vec![0.0f64; bound];
    let n = g.task_count().max(1);
    for round in 0..=n {
        let mut changed = false;
        for &(u, v, wgt) in &constraints {
            if pot[u] + wgt < pot[v] - 1e-9 {
                pot[v] = pot[u] + wgt;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n {
            return None; // negative cycle: infeasible
        }
    }
    let mut r = Retiming::zero(bound);
    for v in g.tasks() {
        // potentials: r(v) = pot[v] (paper convention satisfies
        // r(v) - r(u) <= d(e) directly).
        r.set(v, pot[v.index()].round() as i64);
    }
    if !r.is_legal(g) {
        return None;
    }
    r.normalize(g);
    Some(r)
}

/// Minimum clock period via binary search over the candidate `D`
/// values (the `OPT1` algorithm), with a witness retiming.
pub fn min_clock_period_wd(g: &Csdfg) -> (u32, Retiming) {
    let wd = WdMatrices::new(g);
    let candidates = wd.candidate_periods();
    let mut best: Option<(u64, Retiming)> = None;
    let (mut lo, mut hi) = (0usize, candidates.len().saturating_sub(1));
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let c = candidates[mid];
        match feasible_wd(g, &wd, c) {
            Some(r) => {
                best = Some((c, r));
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            None => lo = mid + 1,
        }
    }
    let (c, r) = best.expect("the original period is always feasible");
    (u32::try_from(c).expect("period fits u32"), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock_period::{clock_period, min_clock_period};

    fn loop3() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 2, 1).unwrap();
        g
    }

    #[test]
    fn w_and_d_on_the_triangle() {
        let g = loop3();
        let wd = WdMatrices::new(&g);
        let (a, b, c) = (
            g.task_by_name("A").unwrap(),
            g.task_by_name("B").unwrap(),
            g.task_by_name("C").unwrap(),
        );
        assert_eq!(wd.w(a, b), Some(0));
        assert_eq!(wd.d(a, b), Some(2));
        assert_eq!(wd.w(a, c), Some(0));
        assert_eq!(wd.d(a, c), Some(3));
        assert_eq!(wd.w(c, a), Some(2));
        assert_eq!(wd.d(c, a), Some(2));
        assert_eq!(wd.w(a, a), Some(0));
        assert_eq!(wd.d(a, a), Some(1));
        // b -> a goes through c: W = 2, D = 3.
        assert_eq!(wd.w(b, a), Some(2));
        assert_eq!(wd.d(b, a), Some(3));
    }

    #[test]
    fn candidates_contain_all_chain_lengths() {
        let g = loop3();
        let wd = WdMatrices::new(&g);
        assert_eq!(wd.candidate_periods(), vec![1, 2, 3]);
    }

    #[test]
    fn wd_min_period_matches_feas() {
        let g = loop3();
        let (feas, _) = min_clock_period(&g);
        let (wd, r) = min_clock_period_wd(&g);
        assert_eq!(feas, wd);
        assert_eq!(clock_period(&r.apply(&g)), wd);
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        let wd = WdMatrices::new(&g);
        assert_eq!(wd.w(b, a), None);
        assert_eq!(wd.d(b, a), None);
    }

    #[test]
    fn parallel_edges_keep_min_delay() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        g.add_dep(a, b, 4, 1).unwrap();
        g.add_dep(a, b, 1, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        let wd = WdMatrices::new(&g);
        assert_eq!(wd.w(a, b), Some(1));
        assert_eq!(wd.d(a, b), Some(5));
    }

    #[test]
    fn infeasible_when_single_node_exceeds_c() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 9).unwrap();
        g.add_dep(a, a, 1, 1).unwrap();
        let wd = WdMatrices::new(&g);
        assert!(feasible_wd(&g, &wd, 8).is_none());
        assert!(feasible_wd(&g, &wd, 9).is_some());
    }
}
