//! The maximum cycle ratio of a CSDFG, the quantity behind its
//! iteration bound.
//!
//! For a cyclic data-flow graph the *iteration bound*
//! `B = max over cycles C of  T(C) / D(C)`
//! (total computation time over total delay count) lower-bounds the
//! achievable steady-state initiation interval of any schedule, no
//! matter how many processors are available and ignoring communication.
//! Pass A, the compaction floor and every certificate start from it,
//! and retiming leaves it unchanged, so a graph computes it once
//! ([`Csdfg::iteration_bound`]) and keeps it until an edit.
//!
//! Implementation: Howard's policy iteration, run per strongly
//! connected component in exact integer arithmetic — cycle ratios are
//! [`Ratio`]s and node values `i128` numerators — so the bound comes
//! out exact with no tolerance and no search over candidate ratios.

use crate::csdfg::Csdfg;
use ccs_graph::algo::scc::tarjan_scc;
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

/// The iteration bound of `g`, computed from scratch: the maximum
/// cycle ratio over its strongly connected components, `None` for an
/// acyclic graph.  [`Csdfg::iteration_bound`] keeps the result.
///
/// `g` must be legal: on a zero-delay cycle a component's ratio is
/// infinite.
pub(crate) fn compute(g: &Csdfg) -> Option<Ratio> {
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
}
