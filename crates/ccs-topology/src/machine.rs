//! The target machine: a set of PEs plus a hop-distance matrix.

use crate::pe::Pe;
use crate::routing::Adjacency;
use std::fmt;

/// A target parallel machine.
///
/// The paper models communication as *store-and-forward over
/// contention-free links* (Definition 3.5): sending the data of an edge
/// with volume `m` from `p_i` to `p_j` costs
/// `M(p_i, p_j) = hops(p_i, p_j) * m` control steps, zero when
/// `p_i == p_j`.  A `Machine` therefore only needs the undirected link
/// set and the all-pairs hop distances derived from it: closed forms
/// for the regular builders, per-source BFS for [`Machine::from_links`].
///
/// ```
/// use ccs_topology::{Machine, Pe};
/// let m = Machine::mesh(2, 2); // the paper's Figure 1(a)
/// assert_eq!(m.num_pes(), 4);
/// assert_eq!(m.distance(Pe(0), Pe(3)), 2);
/// assert_eq!(m.comm_cost(Pe(0), Pe(3), 3), 6);
/// assert_eq!(m.comm_cost(Pe(2), Pe(2), 9), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Machine {
    name: String,
    n: usize,
    /// Row-major `n*n` hop distances. `u32::MAX` = unreachable.
    dist: Vec<u32>,
    /// Undirected links, each stored once with `a < b`.
    links: Vec<(usize, usize)>,
    /// Cached at construction: `true` when every PE can reach every
    /// other PE.  Makes [`Machine::is_connected`] O(1) so schedulers
    /// can reject disconnected machines once at entry instead of
    /// re-checking (or asserting) inside the candidate-scan hot path.
    connected: bool,
    /// Cached at construction: the largest finite hop distance, read
    /// by [`Machine::diameter`].
    diameter: u32,
}

impl Machine {
    /// Builds a machine from an explicit undirected link list.
    ///
    /// Links are deduplicated; self-links are ignored.  Distances come
    /// from per-source BFS.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a link endpoint is out of range.
    pub fn from_links(name: impl Into<String>, n: usize, links: &[(usize, usize)]) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let links = normalize_links(n, links);
        let adj = Adjacency::new(n, &links);
        let (mut parent, mut queue) = (vec![0; n], Vec::with_capacity(n));
        Machine::with_rows(name, n, links, |src, row| {
            // `queue` lists the PEs the search reached, each after its
            // parent; PEs of other partitions stay unreachable.
            adj.bfs(src, &mut parent, &mut queue);
            row.fill(u32::MAX);
            row[src] = 0;
            for &v in &queue[1..] {
                row[v as usize] = row[parent[v as usize] as usize] + 1;
            }
        })
    }

    /// Builds a machine from a normalized, duplicate-free link list
    /// (each link once, `a < b`) and a hop-table row filler:
    /// `fill_row(p, row)` writes the distances from PE `p` into the
    /// zeroed `row`.  Connectivity and diameter are folded from each
    /// row right after it is filled, while it is still in cache.
    pub(crate) fn with_rows(
        name: impl Into<String>,
        n: usize,
        links: Vec<(usize, usize)>,
        mut fill_row: impl FnMut(usize, &mut [u32]),
    ) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let mut dist = vec![0u32; n * n];
        // `d + 1` wraps the unreachable marker to 0, so the smallest
        // shifted entry is 0 exactly when some pair is unreachable and
        // the largest is one more than the largest finite distance
        // (at least 1: every row has its zero diagonal).
        let (mut lo, mut hi) = (u32::MAX, 0);
        for (src, row) in dist.chunks_exact_mut(n).enumerate() {
            fill_row(src, row);
            for &d in row.iter() {
                let shifted = d.wrapping_add(1);
                lo = lo.min(shifted);
                hi = hi.max(shifted);
            }
        }
        Machine {
            name: name.into(),
            n,
            dist,
            links,
            connected: lo != 0,
            diameter: hi - 1,
        }
    }

    /// An idealized PRAM-style machine: `n` PEs, fully linked, and
    /// *zero* hop distance between every pair — all communication is
    /// free.  This is not a physical topology; it exists so that the
    /// communication-oblivious baselines (classic list scheduling and
    /// Chao–LaPaugh–Sha rotation scheduling) can be expressed as
    /// "schedule against the ideal machine, then legalize on the real
    /// one".
    pub fn ideal(n: usize) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let mut links = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                links.push((a, b));
            }
        }
        Machine::with_rows(format!("Ideal {n}"), n, links, |_, _| {})
    }

    /// Machine name (e.g. `"2-D Mesh 4x2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processing elements.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.n
    }

    /// Iterator over all PEs in index order.
    pub fn pes(&self) -> impl Iterator<Item = Pe> + '_ {
        (0..self.n).map(Pe::from_index)
    }

    /// Hop distance between two PEs (0 for `a == b`).
    ///
    /// Connectivity is a *construction-time* property: it is computed
    /// once when the hop table is built and exposed through the O(1)
    /// [`Machine::is_connected`], which schedulers check at entry.
    /// The hot path here is therefore a branch-free table read in
    /// release builds; debug builds still panic on a cross-partition
    /// query so misuse surfaces in tests.
    #[inline]
    pub fn distance(&self, a: Pe, b: Pe) -> u32 {
        let d = self.dist[a.index() * self.n + b.index()];
        debug_assert!(
            d != u32::MAX,
            "machine {:?} is disconnected between {a} and {b}",
            self.name
        );
        d
    }

    /// The full hop-distance row of `from`: `dist_row(p)[q.index()]`
    /// is `distance(p, q)`.  Distances are symmetric (links are
    /// undirected), so one row serves both send and receive costs.
    ///
    /// This is the bulk entry point of the candidate-scan engine: the
    /// remapper hoists one row per resolved edge and scales it by the
    /// edge volume once, turning the per-PE `comm`/`lb`/`ub` sweeps
    /// into indexed adds with no multiplies.
    ///
    /// ```
    /// use ccs_topology::{Machine, Pe};
    /// let m = Machine::mesh(2, 2);
    /// assert_eq!(m.dist_row(Pe(0)), &[0, 1, 1, 2]);
    /// ```
    #[inline]
    pub fn dist_row(&self, from: Pe) -> &[u32] {
        let i = from.index() * self.n;
        &self.dist[i..i + self.n]
    }

    /// Hop distance between two PEs without the connectivity panic of
    /// [`Machine::distance`]: `None` when the PEs lie in different
    /// partitions of a disconnected machine or an index is out of
    /// range.  This is the entry point diagnostics code uses — it must
    /// report unreachable pairs, not die on them.
    #[inline]
    pub fn try_distance(&self, a: Pe, b: Pe) -> Option<u32> {
        if a.index() >= self.n || b.index() >= self.n {
            return None;
        }
        match self.dist[a.index() * self.n + b.index()] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// Communication cost `hops * volume` without the connectivity
    /// panic: `None` when [`Machine::try_distance`] is `None`.
    #[inline]
    pub fn try_comm_cost(&self, from: Pe, to: Pe, volume: u32) -> Option<u32> {
        self.try_distance(from, to).map(|d| d * volume)
    }

    /// `true` if every PE can reach every other PE.  O(1): cached at
    /// construction.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// All unordered PE pairs with no connecting path (empty for a
    /// connected machine).  Reported pairs satisfy `a < b`.
    pub fn unreachable_pairs(&self) -> Vec<(Pe, Pe)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                if self.dist[a * self.n + b] == u32::MAX {
                    out.push((Pe::from_index(a), Pe::from_index(b)));
                }
            }
        }
        out
    }

    /// The paper's communication function
    /// `M(p_i, p_j) = hops * volume` (Definition 3.5).
    #[inline]
    pub fn comm_cost(&self, from: Pe, to: Pe, volume: u32) -> u32 {
        self.distance(from, to) * volume
    }

    /// Undirected links, each reported once with the smaller index first.
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// Degree (number of attached links) of a PE.
    pub fn degree(&self, p: Pe) -> usize {
        let i = p.index();
        self.links
            .iter()
            .filter(|&&(a, b)| a == i || b == i)
            .count()
    }

    /// Maximum hop distance over all reachable PE pairs.  O(1): cached
    /// at construction.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Mean hop distance over ordered distinct PE pairs.
    pub fn mean_distance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut count = 0u64;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    total += u64::from(self.dist[a * self.n + b]);
                    count += 1;
                }
            }
        }
        total as f64 / count as f64
    }

    /// Graphviz rendering of the link graph.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph machine {{");
        for p in 0..self.n {
            let _ = writeln!(out, "  pe{};", p + 1);
        }
        for &(a, b) in &self.links {
            let _ = writeln!(out, "  pe{} -- pe{};", a + 1, b + 1);
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} PEs, {} links, diameter {})",
            self.name,
            self.n,
            self.links.len(),
            self.diameter()
        )
    }
}

/// Normalizes an undirected link list: each link once, as `(min, max)`,
/// in first-seen order, with self-links dropped.
///
/// # Panics
///
/// Panics if a link endpoint is out of range.
pub(crate) fn normalize_links(n: usize, links: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut norm = Vec::with_capacity(links.len());
    // Set-based dedup: the dense link lists (`complete`, `ideal`) have
    // O(n^2) links, so a linear `contains` scan here was quadratic in
    // the link count.
    let mut seen = std::collections::BTreeSet::new();
    for &(a, b) in links {
        assert!(a < n && b < n, "link ({a},{b}) out of range for {n} PEs");
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            norm.push(key);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_links_dedups_and_symmetrizes() {
        let m = Machine::from_links("t", 3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        assert_eq!(m.links().len(), 2);
        assert_eq!(m.distance(Pe(0), Pe(2)), 2);
        assert_eq!(m.distance(Pe(2), Pe(0)), 2);
        assert_eq!(m.distance(Pe(1), Pe(1)), 0);
    }

    #[test]
    fn comm_cost_multiplies_volume() {
        let m = Machine::from_links("t", 3, &[(0, 1), (1, 2)]);
        assert_eq!(m.comm_cost(Pe(0), Pe(2), 5), 10);
        assert_eq!(m.comm_cost(Pe(0), Pe(0), 5), 0);
    }

    #[test]
    fn degree_and_diameter() {
        let m = Machine::from_links("path4", 4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(m.degree(Pe(0)), 1);
        assert_eq!(m.degree(Pe(1)), 2);
        assert_eq!(m.diameter(), 3);
        assert!(m.is_connected());
    }

    #[test]
    fn disconnected_machine_detected() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(
            m.unreachable_pairs(),
            vec![
                (Pe(0), Pe(2)),
                (Pe(0), Pe(3)),
                (Pe(1), Pe(2)),
                (Pe(1), Pe(3))
            ]
        );
    }

    #[test]
    fn try_distance_is_total() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(m.try_distance(Pe(0), Pe(1)), Some(1));
        assert_eq!(m.try_distance(Pe(0), Pe(3)), None);
        assert_eq!(m.try_distance(Pe(0), Pe(9)), None); // out of range
        assert_eq!(m.try_comm_cost(Pe(0), Pe(1), 5), Some(5));
        assert_eq!(m.try_comm_cost(Pe(1), Pe(2), 5), None);
        let c = Machine::complete(3);
        assert!(c.unreachable_pairs().is_empty());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "distance() is a branch-free table read in release builds"
    )]
    fn distance_across_partition_panics_in_debug() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        let _ = m.distance(Pe(0), Pe(3));
    }

    #[test]
    fn dist_row_matches_distance() {
        let m = Machine::from_links("path4", 4, &[(0, 1), (1, 2), (2, 3)]);
        for a in m.pes() {
            let row = m.dist_row(a);
            assert_eq!(row.len(), m.num_pes());
            for b in m.pes() {
                assert_eq!(row[b.index()], m.distance(a, b));
                // Undirected links: rows are symmetric.
                assert_eq!(row[b.index()], m.dist_row(b)[a.index()]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let _ = Machine::from_links("bad", 2, &[(0, 5)]);
    }

    #[test]
    fn mean_distance_of_triangle() {
        let m = Machine::from_links("k3", 3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((m.mean_distance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_and_dot() {
        let m = Machine::from_links("demo", 2, &[(0, 1)]);
        assert!(m.to_string().contains("demo (2 PEs, 1 links, diameter 1)"));
        let dot = m.to_dot();
        assert!(dot.contains("pe1 -- pe2"));
    }

    #[test]
    fn single_pe_machine() {
        let m = Machine::from_links("uni", 1, &[]);
        assert_eq!(m.diameter(), 0);
        assert_eq!(m.mean_distance(), 0.0);
        assert!(m.is_connected());
    }
}
