//! The iteration bound (maximum cycle ratio) of a CSDFG.
//!
//! For a cyclic data-flow graph the *iteration bound*
//! `B = max over cycles C of  T(C) / D(C)`
//! (total computation time over total delay count) lower-bounds the
//! achievable steady-state initiation interval of any schedule, no
//! matter how many processors are available and ignoring communication.
//! The experiment harness uses it to report how close cyclo-compaction
//! gets to the algorithmic optimum.
//!
//! Implementation: Howard's policy iteration, run per strongly
//! connected component in exact integer arithmetic — cycle ratios are
//! [`Ratio`]s and node values `i128` numerators — so the bound comes
//! out exact with no tolerance and no search over candidate ratios.

use ccs_graph::algo::paths::feasible_potentials;
use ccs_graph::algo::scc::tarjan_scc;
use ccs_model::Csdfg;
use std::fmt;

/// An exact non-negative rational, kept in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub num: u64,
    /// Denominator (non-zero).
    pub den: u64,
}

impl Ratio {
    /// Builds `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "zero denominator");
        let g = gcd(num.max(1), den);
        let g = if num == 0 { den } else { g };
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Floating approximation.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Smallest integer `>= self` — the minimum integral initiation
    /// interval implied by this bound.
    pub fn ceil(self) -> u64 {
        self.num.div_ceil(self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.num as u128 * other.den as u128).cmp(&(other.num as u128 * self.den as u128))
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Computes the iteration bound of `g`.
///
/// Returns `None` for acyclic graphs (no cycle, no bound).
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (illegal CSDFG — the bound
/// would be infinite).
pub fn iteration_bound(g: &Csdfg) -> Option<Ratio> {
    assert!(
        g.check_legal().is_ok(),
        "iteration bound undefined: graph has a zero-delay cycle"
    );
    let sccs = tarjan_scc(g.graph());
    // Component id and position within it, per node.
    let bound = g.task_count();
    let (mut comp, mut local) = (vec![0; bound], vec![0; bound]);
    for (c, scc) in sccs.iter().enumerate() {
        for (i, &v) in scc.iter().enumerate() {
            comp[v.index()] = c;
            local[v.index()] = i;
        }
    }
    sccs.iter()
        .filter_map(|scc| {
            let time: Vec<u64> = scc.iter().map(|&v| u64::from(g.time(v))).collect();
            let out: Vec<Vec<(usize, u64)>> = scc
                .iter()
                .map(|&v| {
                    g.out_deps(v)
                        .filter_map(|e| {
                            let w = g.endpoints(e).1;
                            (comp[w.index()] == comp[v.index()])
                                .then(|| (local[w.index()], u64::from(g.delay(e))))
                        })
                        .collect()
                })
                .collect();
            // Only a lone node without a self-loop has no internal edge.
            (!out[0].is_empty()).then(|| max_cycle_ratio(&time, &out))
        })
        .max()
}

/// Policy-evaluation marks.
const UNSEEN: u8 = 0;
const ON_PATH: u8 = 1;
const DONE: u8 = 2;

/// `val(u)` through a policy edge `u -> w` of delay `d`, in units of
/// `1/λ.den` where `λ = λ(w)`: `λ.den·t(u) − λ.num·d + val(w)`.
fn through(lambda: Ratio, t: u64, d: u64, val_w: i128) -> i128 {
    i128::from(lambda.den) * i128::from(t) - i128::from(lambda.num) * i128::from(d) + val_w
}

/// The maximum cycle ratio of one strongly connected component, by
/// Howard's policy iteration.  Nodes are `0..time.len()`; `out[v]`
/// lists the internal out-edges of `v` as `(target, delay)`, and every
/// node has at least one.
///
/// A policy picks one out-edge per node, so each node's policy path
/// ends in exactly one policy cycle `C`.  The node inherits
/// `λ = T(C)/D(C)` and a value measured from an anchor on `C` (its
/// smallest node, value 0).  Each round every node switches to an
/// out-edge whose `(λ(w), value through the edge)` is strictly
/// greater, lexicographically, than its own; the values of an
/// unchanged cycle's basin never drop and switched nodes strictly
/// gain, so no policy repeats and the loop ends.  At the fixpoint
/// every edge satisfies `λ.num·d(e) − λ.den·t(u) >= val(w) − val(u)`,
/// so no cycle beats the best policy cycle.
fn max_cycle_ratio(time: &[u64], out: &[Vec<(usize, u64)>]) -> Ratio {
    let n = time.len();
    // Initial policy: the out-edge of largest delay.
    let mut policy: Vec<usize> = out
        .iter()
        .map(|es| (0..es.len()).max_by_key(|&k| es[k].1).unwrap_or(0))
        .collect();
    let mut lambda = vec![Ratio::new(0, 1); n];
    let mut value = vec![0i128; n];
    let mut state = vec![UNSEEN; n];
    let mut path: Vec<usize> = Vec::new();
    loop {
        // Evaluation: walk every policy path to its cycle.
        let mut best = Ratio::new(0, 1);
        state.fill(UNSEEN);
        for start in 0..n {
            let mut v = start;
            while state[v] == UNSEEN {
                state[v] = ON_PATH;
                path.push(v);
                v = out[v][policy[v]].0;
            }
            if state[v] == ON_PATH {
                // `v` closes a new policy cycle: the path suffix from `v`.
                let at = path.iter().rposition(|&u| u == v).unwrap_or(0);
                let cycle = &path[at..];
                let (t, d) = cycle
                    .iter()
                    .fold((0, 0), |(t, d), &u| (t + time[u], d + out[u][policy[u]].1));
                let r = Ratio::new(t, d);
                best = best.max(r);
                let (j, &anchor) = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &u)| u)
                    .unwrap_or((0, &v));
                lambda[anchor] = r;
                value[anchor] = 0;
                state[anchor] = DONE;
                // Backwards around the cycle from the anchor.
                for k in 1..cycle.len() {
                    let u = cycle[(j + cycle.len() - k) % cycle.len()];
                    let (w, d) = out[u][policy[u]];
                    lambda[u] = r;
                    value[u] = through(r, time[u], d, value[w]);
                    state[u] = DONE;
                }
            }
            // The rest of the path drains into evaluated nodes.
            while let Some(u) = path.pop() {
                if state[u] == DONE {
                    continue;
                }
                let (w, d) = out[u][policy[u]];
                lambda[u] = lambda[w];
                value[u] = through(lambda[w], time[u], d, value[w]);
                state[u] = DONE;
            }
        }
        // Improvement: strictly better `(λ, value)` only.
        let mut changed = false;
        for v in 0..n {
            let mut key = (lambda[v], value[v]);
            for (k, &(w, d)) in out[v].iter().enumerate() {
                let cand = (lambda[w], through(lambda[w], time[v], d, value[w]));
                if cand > key {
                    key = cand;
                    policy[v] = k;
                    changed = true;
                }
            }
        }
        if !changed {
            return best;
        }
    }
}

/// The iteration bound together with a *witness*: one critical cycle
/// `C` (as a node sequence, `[a, b, c]` meaning `a -> b -> c -> a`)
/// attaining `T(C)/D(C) = B`.
///
/// Returns `None` for acyclic graphs.  Deterministic: the tight-edge
/// sub-graph is scanned in node/edge id order, so the same graph
/// always yields the same witness.
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (illegal CSDFG).
pub fn critical_cycle(g: &Csdfg) -> Option<(Ratio, Vec<ccs_graph::NodeId>)> {
    let r = iteration_bound(g)?;
    // Potentials for the exact bound exist (the bound is feasible);
    // tight edges (pot[v] == pot[u] + w) form a sub-graph whose every
    // cycle is zero-weight, i.e. attains exactly ratio r.
    let pot = feasible_potentials(g.graph(), |e| {
        let (u, _) = g.endpoints(e);
        r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u))
    })
    .ok()?;
    let graph = g.graph();
    let cycle = ccs_graph::algo::cycles::find_cycle_filtered(graph, |e| {
        let (u, v) = graph.edge_endpoints(e);
        let w = r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u));
        (pot[v.index()] - pot[u.index()] - w).abs() < 1e-6
    })?;
    Some((r, cycle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        let r = Ratio::new(6, 4);
        assert_eq!((r.num, r.den), (3, 2));
        assert_eq!(r.to_string(), "3/2");
        assert_eq!(r.ceil(), 2);
        assert_eq!(Ratio::new(4, 2).to_string(), "2");
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::new(0, 3));
    }

    #[test]
    fn simple_loop_bound() {
        // A(1) -> B(2) -> A with 1 delay: bound = 3/1.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn two_delays_halve_the_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 2)));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // Cycle 1: A->B->A, T=3, D=3 => 1. Cycle 2: C->C self loop T=5 D=2 => 5/2.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        g.add_dep(c, c, 2, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(5, 2)));
    }

    #[test]
    fn overlapping_cycles_take_the_maximum() {
        let mut g = Csdfg::new();
        let n: Vec<_> = (0..5)
            .map(|i| g.add_task(format!("v{i}"), (i % 3 + 1) as u32).unwrap())
            .collect();
        g.add_dep(n[0], n[1], 0, 1).unwrap();
        g.add_dep(n[1], n[2], 0, 1).unwrap();
        g.add_dep(n[2], n[0], 2, 1).unwrap();
        g.add_dep(n[1], n[3], 0, 1).unwrap();
        g.add_dep(n[3], n[0], 1, 1).unwrap();
        g.add_dep(n[3], n[4], 0, 1).unwrap();
        g.add_dep(n[4], n[3], 3, 1).unwrap();
        // Cycles: 0-1-2 (T=6,D=2 -> 3), 0-1-3 (T=4,D=1 -> 4), 3-4 (T=3,D=3 -> 1).
        assert_eq!(iteration_bound(&g), Some(Ratio::new(4, 1)));
    }

    #[test]
    fn parallel_edges_bind_through_the_smaller_delay() {
        // B -> A twice: d = 3 (the initial policy's pick) and d = 1.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(5, 1)));
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        assert_eq!(iteration_bound(&g), None);
    }

    #[test]
    fn paper_fig1_bound() {
        // Cycles: A->B->D->A (T=4, D=3), E->F->E (T=3, D=1),
        // A->E->F? F->E only; A->C->E->F->E no (E->F->E is the only F cycle
        // through delay) — also A->E..? no edge back to A except D->A.
        // Other cycle: A->B->E? E has no edge to D or A. So max(4/3, 3/1) = 3.
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
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn bound_is_invariant_under_rotation() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 2, 1).unwrap();
        let before = iteration_bound(&g).unwrap();
        let rotated = crate::retiming::rotate(&g, &[a]).unwrap();
        let after = iteration_bound(&rotated).unwrap();
        assert_eq!(before, after);
        assert_eq!(before, Ratio::new(6, 2));
    }

    #[test]
    fn slowdown_divides_the_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 3).unwrap();
        g.add_dep(a, a, 1, 1).unwrap();
        let b1 = iteration_bound(&g).unwrap();
        assert_eq!(b1, Ratio::new(3, 1));
        let g3 = ccs_model::transform::slowdown(&g, 3);
        let b3 = iteration_bound(&g3).unwrap();
        assert_eq!(b3, Ratio::new(1, 1));
    }

    #[test]
    fn critical_cycle_witnesses_the_bound() {
        // Cycle 1: A->B->A, T=3, D=3 => 1. Cycle 2: C self loop, 5/2.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        g.add_dep(c, c, 2, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        let (r, cycle) = critical_cycle(&g).unwrap();
        assert_eq!(r, Ratio::new(5, 2));
        assert_eq!(cycle, vec![c]);
        // The witness attains the bound exactly.
        let t: u64 = cycle.iter().map(|&v| u64::from(g.time(v))).sum();
        assert_eq!(Ratio::new(t, 2), r);
    }

    #[test]
    fn critical_cycle_none_for_acyclic() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        assert!(critical_cycle(&g).is_none());
    }

    #[test]
    #[should_panic(expected = "zero-delay cycle")]
    fn zero_delay_cycle_panics() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        let _ = iteration_bound(&g);
    }
}
