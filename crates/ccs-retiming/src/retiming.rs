//! Retiming vectors and their application to CSDFGs.
//!
//! The paper uses the convention of Leiserson–Saxe with the sign
//! flipped (its §2): `r(v)` is *the number of delays drawn from every
//! incoming edge of `v` and pushed onto every outgoing edge*.  For an
//! edge `u -> v` the retimed delay count is therefore
//!
//! ```text
//! d_r(u -> v) = d(e) + r(u) - r(v)
//! ```
//!
//! A retiming is *legal* when every retimed delay is non-negative; the
//! delay sum around any cycle is invariant.

use ccs_model::{Csdfg, EdgeId, NodeId};
use std::fmt;

/// A retiming function `r : V -> Z`, stored densely by node index.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Retiming {
    r: Vec<i64>,
}

impl Retiming {
    /// The zero retiming for a graph with `bound` tasks.
    pub fn zero(bound: usize) -> Self {
        Retiming { r: vec![0; bound] }
    }

    /// The zero retiming sized for graph `g`.
    pub fn zero_for(g: &Csdfg) -> Self {
        Self::zero(g.task_count())
    }

    /// Value `r(v)`.
    pub fn get(&self, v: NodeId) -> i64 {
        self.r[v.index()]
    }

    /// Sets `r(v)`.
    pub fn set(&mut self, v: NodeId, value: i64) {
        self.r[v.index()] = value;
    }

    /// Adds `delta` to `r(v)`.
    pub fn bump(&mut self, v: NodeId, delta: i64) {
        self.r[v.index()] += delta;
    }

    /// Retimed delay of edge `e` in graph `g` under this retiming.
    pub fn retimed_delay(&self, g: &Csdfg, e: EdgeId) -> i64 {
        let (u, v) = g.endpoints(e);
        i64::from(g.delay(e)) + self.get(u) - self.get(v)
    }

    /// `true` when every retimed delay is non-negative.
    pub fn is_legal(&self, g: &Csdfg) -> bool {
        g.deps().all(|e| self.retimed_delay(g, e) >= 0)
    }

    /// Applies the retiming, producing the retimed graph.
    ///
    /// # Panics
    ///
    /// Panics if the retiming is illegal for `g`.
    pub fn apply(&self, g: &Csdfg) -> Csdfg {
        let mut out = g.clone();
        for e in g.deps() {
            let d = self.retimed_delay(g, e);
            assert!(d >= 0, "illegal retiming: edge {e:?} would get delay {d}");
            out.set_delay(e, u32::try_from(d).expect("checked non-negative"));
        }
        out
    }

    /// Normalizes so the minimum retiming value over the tasks of `g`
    /// is zero (does not change any retimed delay).
    pub fn normalize(&mut self, g: &Csdfg) {
        let min = g.tasks().map(|v| self.get(v)).min().unwrap_or(0);
        for v in g.tasks() {
            self.r[v.index()] -= min;
        }
    }
}

impl fmt::Display for Retiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r = [")?;
        for (i, v) in self.r.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Retimes every node of `set` by `+1` — the paper's *rotation*
/// operation (Definition 4.1): one delay is drawn from each incoming
/// edge of the set and pushed to each outgoing edge.
///
/// Returns the retimed graph, or `Err(edge)` naming an offending edge if
/// some incoming edge of the set carries no delay (illegal rotation).
pub fn rotate(g: &Csdfg, set: &[NodeId]) -> Result<Csdfg, EdgeId> {
    let mut r = Retiming::zero_for(g);
    for &v in set {
        r.bump(v, 1);
    }
    if let Some(bad) = g.deps().find(|&e| r.retimed_delay(g, e) < 0) {
        return Err(bad);
    }
    Ok(r.apply(g))
}

/// The boundary of `set` in `g`: edges entering the set from outside
/// and edges leaving it — the only edges a rotation changes (internal
/// and self edges get `+1 - 1 = 0`).
fn rotation_boundary(g: &Csdfg, set: &[NodeId]) -> (Vec<EdgeId>, Vec<EdgeId>) {
    let mut in_set = vec![false; g.task_count()];
    for &v in set {
        in_set[v.index()] = true;
    }
    let mut entering = Vec::new();
    let mut leaving = Vec::new();
    for &v in set {
        for e in g.in_deps(v) {
            let (u, _) = g.endpoints(e);
            if !in_set[u.index()] {
                entering.push(e);
            }
        }
        for e in g.out_deps(v) {
            let (_, w) = g.endpoints(e);
            if !in_set[w.index()] {
                leaving.push(e);
            }
        }
    }
    (entering, leaving)
}

/// In-place [`rotate`]: retimes every node of `set` by `+1` directly on
/// `g`, touching only the set's boundary edges instead of cloning the
/// graph.  On `Err(edge)` (an incoming boundary edge carries no delay)
/// `g` is left unmodified.  [`unrotate_in_place`] with the same set is
/// the exact inverse.
pub fn rotate_in_place(g: &mut Csdfg, set: &[NodeId]) -> Result<(), EdgeId> {
    let (entering, leaving) = rotation_boundary(g, set);
    if let Some(&bad) = entering.iter().find(|&&e| g.delay(e) == 0) {
        return Err(bad);
    }
    for &e in &leaving {
        let d = g.delay(e);
        g.set_delay(e, d + 1);
    }
    for &e in &entering {
        let d = g.delay(e);
        g.set_delay(e, d - 1);
    }
    Ok(())
}

/// Inverse of [`rotate_in_place`]: retimes every node of `set` by `-1`
/// directly on `g`.
///
/// # Panics
///
/// Panics if some outgoing boundary edge of the set carries no delay
/// (i.e. the rotation being undone was never applied).
pub fn unrotate_in_place(g: &mut Csdfg, set: &[NodeId]) {
    let (entering, leaving) = rotation_boundary(g, set);
    for &e in &entering {
        let d = g.delay(e);
        g.set_delay(e, d + 1);
    }
    for &e in &leaving {
        let d = g.delay(e);
        assert!(
            d > 0,
            "unrotate of a rotation that was never applied: edge {e:?}"
        );
        g.set_delay(e, d - 1);
    }
}

/// The prologue implied by a (normalized, non-negative) retiming: the
/// list of `(node, count)` pairs meaning "execute `node` `count` extra
/// times before entering the steady state".
///
/// With the paper's sign convention, a node retimed by `r(v)` has been
/// moved `r(v)` iterations *ahead* of the loop body, so it must be
/// pre-executed `r(v)` times.
pub fn prologue(g: &Csdfg, r: &Retiming) -> Vec<(NodeId, u32)> {
    g.tasks()
        .filter_map(|v| {
            let k = r.get(v);
            (k > 0).then(|| (v, u32::try_from(k).expect("normalized retiming")))
        })
        .collect()
}

/// The epilogue implied by a retiming: `(node, count)` pairs meaning
/// "execute `node` `count` more times after the last steady-state
/// iteration" — nodes *not* advanced as far as the maximum still owe
/// executions at drain time.
pub fn epilogue(g: &Csdfg, r: &Retiming) -> Vec<(NodeId, u32)> {
    let max = g.tasks().map(|v| r.get(v)).max().unwrap_or(0);
    g.tasks()
        .filter_map(|v| {
            let k = max - r.get(v);
            (k > 0).then(|| (v, u32::try_from(k).expect("max is an upper bound")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1(b) of the paper.
    fn fig1() -> (Csdfg, Vec<NodeId>) {
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
        (g, ids)
    }

    #[test]
    fn rotating_a_reproduces_figure_1c() {
        // Figure 1(c): rotating A moves one delay from D->A onto A's
        // outgoing edges A->B, A->C, A->E.
        let (g, n) = fig1();
        let a = n[0];
        let rotated = rotate(&g, &[a]).unwrap();
        let da = rotated.graph().find_edge(n[3], a).unwrap();
        assert_eq!(rotated.delay(da), 2);
        for succ in [n[1], n[2], n[4]] {
            let e = rotated.graph().find_edge(a, succ).unwrap();
            assert_eq!(rotated.delay(e), 1);
        }
        // untouched edge
        let bd = rotated.graph().find_edge(n[1], n[3]).unwrap();
        assert_eq!(rotated.delay(bd), 0);
        assert!(rotated.check_legal().is_ok());
    }

    #[test]
    fn rotation_preserves_cycle_delay_sums() {
        let (g, n) = fig1();
        let rotated = rotate(&g, &[n[0]]).unwrap();
        assert_eq!(g.total_delay(), 4);
        // Global sum can change (A has 1 in-edge but 3 out-edges)...
        assert_eq!(rotated.total_delay(), 6);
        // ...but cycle sums are invariant: A->B->D->A and A->E->F(->E)..D->A etc.
        // Check the two simple cycles by hand: A B D A and E F E.
        let cyc1 = [
            rotated.graph().find_edge(n[0], n[1]).unwrap(),
            rotated.graph().find_edge(n[1], n[3]).unwrap(),
            rotated.graph().find_edge(n[3], n[0]).unwrap(),
        ];
        let sum1: u32 = cyc1.iter().map(|&e| rotated.delay(e)).sum();
        assert_eq!(sum1, 3);
        let cyc2 = [
            rotated.graph().find_edge(n[4], n[5]).unwrap(),
            rotated.graph().find_edge(n[5], n[4]).unwrap(),
        ];
        let sum2: u32 = cyc2.iter().map(|&e| rotated.delay(e)).sum();
        assert_eq!(sum2, 1);
    }

    #[test]
    fn illegal_rotation_is_rejected() {
        let (g, n) = fig1();
        // B's incoming edge A->B has no delay: rotating {B} is illegal.
        let err = rotate(&g, &[n[1]]).unwrap_err();
        let (u, v) = g.endpoints(err);
        assert_eq!((u, v), (n[0], n[1]));
    }

    #[test]
    fn rotating_a_set_ignores_internal_edges() {
        // Rotating {A, B} together: edge A->B is internal, so its delay
        // is unchanged even though it is zero.
        let (g, n) = fig1();
        // A and B can only rotate together if B's other incoming edges
        // (there are none besides A->B) carry delays. Legal here.
        let rotated = rotate(&g, &[n[0], n[1]]).unwrap();
        let ab = rotated.graph().find_edge(n[0], n[1]).unwrap();
        assert_eq!(rotated.delay(ab), 0);
        let bd = rotated.graph().find_edge(n[1], n[3]).unwrap();
        assert_eq!(rotated.delay(bd), 1);
        let da = rotated.graph().find_edge(n[3], n[0]).unwrap();
        assert_eq!(rotated.delay(da), 2);
    }

    #[test]
    fn apply_and_legality() {
        let (g, n) = fig1();
        let mut r = Retiming::zero_for(&g);
        r.bump(n[0], 1);
        assert!(r.is_legal(&g));
        r.bump(n[1], -1);
        // B->D would become 0 + (-1) - 0 = -1 < 0? No: edge B->D has
        // src=B so delta = r(B) - r(D) = -1: illegal.
        assert!(!r.is_legal(&g));
    }

    #[test]
    #[should_panic(expected = "illegal retiming")]
    fn apply_panics_on_illegal() {
        let (g, n) = fig1();
        let mut r = Retiming::zero_for(&g);
        r.bump(n[1], -1);
        let _ = r.apply(&g);
    }

    #[test]
    fn normalize_shifts_minimum_to_zero() {
        let (g, n) = fig1();
        let mut r = Retiming::zero_for(&g);
        r.set(n[0], 3);
        r.set(n[1], 1);
        for v in g.tasks() {
            if v != n[0] && v != n[1] {
                r.set(v, 1);
            }
        }
        r.normalize(&g);
        assert_eq!(r.get(n[1]), 0);
        assert_eq!(r.get(n[0]), 2);
    }

    #[test]
    fn prologue_and_epilogue_counts() {
        let (g, n) = fig1();
        let mut r = Retiming::zero_for(&g);
        r.set(n[0], 2);
        r.set(n[1], 1);
        let pro = prologue(&g, &r);
        assert!(pro.contains(&(n[0], 2)));
        assert!(pro.contains(&(n[1], 1)));
        assert_eq!(pro.len(), 2);
        let epi = epilogue(&g, &r);
        // max r = 2: A owes 0, B owes 1, others owe 2.
        assert!(epi.contains(&(n[1], 1)));
        assert!(epi.contains(&(n[5], 2)));
        assert_eq!(epi.len(), 5);
    }

    #[test]
    fn zero_retiming_apply_is_identity() {
        let (g, _) = fig1();
        let r = Retiming::zero_for(&g);
        let g2 = r.apply(&g);
        for e in g.deps() {
            assert_eq!(g.delay(e), g2.delay(e));
        }
    }

    #[test]
    fn display_shows_values() {
        let (g, n) = fig1();
        let mut r = Retiming::zero_for(&g);
        r.bump(n[0], 1);
        assert_eq!(r.to_string(), "r = [1, 0, 0, 0, 0, 0]");
    }
}
