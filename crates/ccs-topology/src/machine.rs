//! The target machine: a set of PEs, their hop distances and the
//! deterministic routes between them.

use crate::builders::{closed_form, Shape};
use crate::pe::Pe;
use crate::routing::{Adjacency, UNSEEN};
use std::fmt;
use std::sync::OnceLock;

/// One row of `u32`s per PE, each filled at most once.
type Rows = Box<[OnceLock<Box<[u32]>>]>;

/// A target parallel machine.
///
/// The paper models communication as *store-and-forward over
/// contention-free links* (Definition 3.5): sending the data of an edge
/// with volume `m` from `p_i` to `p_j` costs
/// `M(p_i, p_j) = hops(p_i, p_j) * m` control steps, zero when
/// `p_i == p_j`.  A `Machine` therefore only needs the undirected link
/// set and the hop distances derived from it: closed forms for the
/// regular builders, per-source BFS for [`Machine::from_links`].
///
/// A closed-form machine answers [`Machine::distance`] from its
/// formula and fills a PE's hop row the first time
/// [`Machine::dist_row`] reads it, so a job pays for the rows of the
/// PEs it places tasks on, not for `PEs²` entries.  A BFS machine
/// fills every row at construction: its connectivity and diameter
/// need all of them.
///
/// Routes work the same way: the first route read toward a PE fills
/// that destination's row of BFS parents ([`Machine::next_hop`]), so
/// a recorded run pays for the destinations its traffic reaches.  The
/// neighbour lists both read ([`Machine::neighbours`]) are built on
/// first use too, so a job that never walks a link never lists them.
///
/// ```
/// use ccs_topology::{Machine, Pe};
/// let m = Machine::mesh(2, 2); // the paper's Figure 1(a)
/// assert_eq!(m.num_pes(), 4);
/// assert_eq!(m.distance(Pe(0), Pe(3)), 2);
/// assert_eq!(m.comm_cost(Pe(0), Pe(3), 3), 6);
/// assert_eq!(m.comm_cost(Pe(2), Pe(2), 9), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    name: String,
    n: usize,
    /// The closed form of the hop distances; `None` for a BFS machine.
    shape: Option<Shape>,
    /// One hop row per PE, each filled at most once by
    /// [`Machine::dist_row`].  `u32::MAX` = unreachable.  A cell, not
    /// a plain vector, so that rayon workers sharing `&Machine` can
    /// fill rows.
    rows: Rows,
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
    /// Cached at construction: read by [`Machine::min_hop`].
    min_hop: u32,
    /// The links as adjacency, each PE's neighbours sorted by index:
    /// built at construction for a BFS machine, by the first read of
    /// [`Machine::neighbours`] or of a route otherwise.
    adjacency: OnceLock<Adjacency>,
    /// One row per destination PE, each filled at most once by
    /// [`Machine::next_hop`]: entry `src` is `src`'s parent in the
    /// destination's BFS tree (the destination itself for the
    /// destination, [`UNSEEN`] for a PE in another partition).  Cells,
    /// like the hop rows, so that rayon workers sharing `&Machine` can
    /// fill them; the slice itself is built by the first route read.
    routes: OnceLock<Rows>,
    /// The positions in `links`, sorted by link for binary search;
    /// built by the first [`Machine::link_between`].
    link_order: OnceLock<Box<[usize]>>,
}

impl Machine {
    /// Builds a machine from an explicit undirected link list.
    ///
    /// Links are deduplicated; self-links are ignored.  Distances come
    /// from per-source BFS, one row per PE, all filled here.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a link endpoint is out of range.
    pub fn from_links(name: impl Into<String>, n: usize, links: &[(usize, usize)]) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let links = normalize_links(n, links);
        let adj = Adjacency::new(n, &links);
        let (mut parent, mut queue) = (vec![0; n], Vec::with_capacity(n));
        // `d + 1` wraps the unreachable marker to 0, so the smallest
        // shifted entry is 0 exactly when some pair is unreachable and
        // the largest is one more than the largest finite distance
        // (at least 1: every row has its zero diagonal).
        let (mut lo, mut hi) = (u32::MAX, 0);
        let rows = (0..n)
            .map(|src| {
                // `queue` lists the PEs the search reached, each after
                // its parent; PEs of other partitions stay unreachable.
                adj.bfs(src, &mut parent, &mut queue);
                let mut row = vec![u32::MAX; n].into_boxed_slice();
                row[src] = 0;
                for &v in &queue[1..] {
                    row[v as usize] = row[parent[v as usize] as usize] + 1;
                }
                for &d in row.iter() {
                    let shifted = d.wrapping_add(1);
                    lo = lo.min(shifted);
                    hi = hi.max(shifted);
                }
                OnceLock::from(row)
            })
            .collect();
        Machine {
            name: name.into(),
            n,
            shape: None,
            rows,
            min_hop: u32::from(!links.is_empty()),
            links,
            connected: lo != 0,
            diameter: hi - 1,
            adjacency: OnceLock::from(adj),
            routes: OnceLock::new(),
            link_order: OnceLock::new(),
        }
    }

    /// A regular machine: a normalized, duplicate-free link list (each
    /// link once, `a < b`), the closed form `shape` of its distances
    /// and their largest value.  Every closed form is connected, and
    /// every link joins PEs one hop apart, except on the ideal machine,
    /// where every hop is 0.  No row is filled yet.
    pub(crate) fn closed_form(
        name: impl Into<String>,
        n: usize,
        links: Vec<(usize, usize)>,
        shape: Shape,
        diameter: u32,
    ) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let min_hop = match shape {
            Shape::Ideal => 0,
            _ => u32::from(!links.is_empty()),
        };
        Machine {
            name: name.into(),
            n,
            shape: Some(shape),
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            links,
            connected: true,
            diameter,
            min_hop,
            adjacency: OnceLock::new(),
            routes: OnceLock::new(),
            link_order: OnceLock::new(),
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
        Machine::closed_form(format!("Ideal {n}"), n, links, Shape::Ideal, 0)
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
    /// Connectivity is a *construction-time* property, exposed
    /// through the O(1) [`Machine::is_connected`], which schedulers
    /// check at entry.  A closed-form machine evaluates its formula
    /// and fills no row; a BFS machine reads its row.  Debug builds
    /// panic on a cross-partition query so misuse surfaces in tests.
    #[inline]
    pub fn distance(&self, a: Pe, b: Pe) -> u32 {
        let d = self.hop(a, b);
        debug_assert!(
            d != u32::MAX,
            "machine {:?} is disconnected between {a} and {b}",
            self.name
        );
        d
    }

    /// The hop distance from `a` to `b`, `u32::MAX` when unreachable.
    #[inline]
    fn hop(&self, a: Pe, b: Pe) -> u32 {
        match self.shape {
            Some(shape) => shape.distance(a, b),
            None => self.dist_row(a)[b.index()],
        }
    }

    /// The full hop-distance row of `from`: `dist_row(p)[q.index()]`
    /// is `distance(p, q)`.  Distances are symmetric (links are
    /// undirected), so one row serves both send and receive costs.
    /// The first read of a closed-form machine's row fills it.
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
        self.rows[from.index()].get_or_init(|| {
            // INVARIANT: a BFS machine filled every row at
            // construction, so only a closed form's row can be empty.
            let shape = self.shape.expect("BFS rows are filled at construction");
            let mut row = vec![0; self.n].into_boxed_slice();
            shape.fill_row(from.index(), &mut row);
            row
        })
    }

    /// Runs `scan` with this machine's distance function: `hop(a, b)`
    /// is [`Machine::try_distance`] between the PEs of indices `a` and
    /// `b`, `u32::MAX` when they do not reach each other.  The function
    /// is specialized to the machine's shape, so a closed form's formula
    /// inlines into the scan and a BFS machine's reads its rows; no row
    /// is filled.  This is the entry point for checks that evaluate
    /// every pair: a [`Machine::distance`] call branches on the shape
    /// each time, which keeps the formula out of the caller's loop.
    pub fn scan_hops<S: HopScan>(&self, scan: S) -> S::Output {
        let n = self.n;
        let pe = |i: usize| Pe::from_index(i);
        // The grid forms read each PE's (row, column) from a table
        // built once per scan instead of dividing by `cols` per call.
        let grid = |cols: usize| -> Vec<(u32, u32)> {
            (0..n)
                .map(|i| ((i / cols) as u32, (i % cols) as u32))
                .collect()
        };
        match self.shape {
            Some(Shape::Linear) => scan.scan(n, |a, b| closed_form::linear(pe(a), pe(b))),
            Some(Shape::Ring { n: len }) => {
                scan.scan(n, |a, b| closed_form::ring(len, pe(a), pe(b)))
            }
            Some(Shape::Complete) => scan.scan(n, |a, b| closed_form::complete(pe(a), pe(b))),
            Some(Shape::Mesh { cols }) => {
                let rc = grid(cols);
                scan.scan(n, |a, b| {
                    rc[a].0.abs_diff(rc[b].0) + rc[a].1.abs_diff(rc[b].1)
                })
            }
            Some(Shape::Torus { rows, cols }) => {
                let rc = grid(cols);
                let wrap = |d: u32, len: usize| d.min(len as u32 - d);
                scan.scan(n, |a, b| {
                    wrap(rc[a].0.abs_diff(rc[b].0), rows) + wrap(rc[a].1.abs_diff(rc[b].1), cols)
                })
            }
            Some(Shape::Hypercube) => scan.scan(n, |a, b| closed_form::hypercube(pe(a), pe(b))),
            Some(Shape::Star) => scan.scan(n, |a, b| closed_form::star(pe(a), pe(b))),
            Some(Shape::Ideal) => scan.scan(n, |_, _| 0),
            None => scan.scan(n, |a, b| self.dist_row(pe(a))[b]),
        }
    }

    /// The PEs whose hop row has been filled, in index order: every
    /// PE of a BFS machine, and the rows [`Machine::dist_row`] has
    /// read on a closed-form one.
    #[doc(hidden)]
    pub fn filled_rows(&self) -> Vec<Pe> {
        self.pes()
            .filter(|p| self.rows[p.index()].get().is_some())
            .collect()
    }

    /// The neighbour of `src` on the route to `dst` (`src` when they
    /// are equal): `src`'s parent in `dst`'s BFS tree, the neighbour
    /// the search from `dst` reached it from.  The first route read
    /// toward `dst` fills its row of parents.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lie in different partitions of a
    /// disconnected machine.
    pub fn next_hop(&self, src: Pe, dst: Pe) -> Pe {
        let routes = self
            .routes
            .get_or_init(|| (0..self.n).map(|_| OnceLock::new()).collect());
        let parent = routes[dst.index()].get_or_init(|| {
            let mut row = vec![0; self.n].into_boxed_slice();
            let mut queue = Vec::with_capacity(self.n);
            self.adjacency().bfs(dst.index(), &mut row, &mut queue);
            row
        });
        let next = parent[src.index()];
        assert!(next != UNSEEN, "no route between {src} and {dst}");
        Pe(next)
    }

    /// The deterministic route from `src` to `dst`, inclusive of both:
    /// each hop is [`Machine::next_hop`] toward `dst`, so the route
    /// follows `dst`'s BFS tree over adjacency sorted by PE index.
    /// That is *not* always the lowest-index neighbour on some
    /// shortest route: a neighbour the search dequeued earlier can
    /// have a higher index.
    ///
    /// ```
    /// use ccs_topology::{Machine, Pe};
    /// let m = Machine::mesh(2, 2);
    /// assert_eq!(m.route(Pe(0), Pe(3)), vec![Pe(0), Pe(1), Pe(3)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lie in different partitions of a
    /// disconnected machine.
    pub fn route(&self, src: Pe, dst: Pe) -> Vec<Pe> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            path.push(cur);
            assert!(path.len() <= self.n, "routing loop between {src} and {dst}");
        }
        path
    }

    /// The destinations whose route row has been filled, in index
    /// order.
    #[doc(hidden)]
    pub fn filled_routes(&self) -> Vec<Pe> {
        let routes = self.routes.get();
        self.pes()
            .filter(|p| routes.is_some_and(|r| r[p.index()].get().is_some()))
            .collect()
    }

    /// The PEs linked to `p`, sorted by index.  The first read lists
    /// every PE's neighbours at once, which takes memory in proportion
    /// to the links: `O(PEs²)` on `complete:N` and `ideal:N`.
    ///
    /// ```
    /// use ccs_topology::{Machine, Pe};
    /// let m = Machine::mesh(3, 3);
    /// assert_eq!(m.neighbours(Pe(4)), &[1, 3, 5, 7]);
    /// ```
    #[inline]
    pub fn neighbours(&self, p: Pe) -> &[u32] {
        self.adjacency().neighbours(p.index())
    }

    /// `true` once the neighbour lists of [`Machine::neighbours`]
    /// exist: always on a BFS machine, after the first neighbour or
    /// route read on a closed form.
    #[doc(hidden)]
    pub fn has_adjacency(&self) -> bool {
        self.adjacency.get().is_some()
    }

    /// The links as adjacency, built on first use.
    fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::new(self.n, &self.links))
    }

    /// Position in [`Machine::links`] of the link joining `a` and `b`,
    /// `None` when no link does.  The first call sorts the links'
    /// positions by link.
    pub fn link_between(&self, a: Pe, b: Pe) -> Option<usize> {
        let order = self.link_order.get_or_init(|| {
            let mut order: Box<[usize]> = (0..self.links.len()).collect();
            order.sort_unstable_by_key(|&ix| self.links[ix]);
            order
        });
        let (a, b) = (a.index(), b.index());
        let at = order
            .binary_search_by_key(&(a.min(b), a.max(b)), |&ix| self.links[ix])
            .ok()?;
        Some(order[at])
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
        match self.hop(a, b) {
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
        for a in self.pes() {
            for b in self.pes().skip(a.index() + 1) {
                if self.try_distance(a, b).is_none() {
                    out.push((a, b));
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

    /// The smallest hop distance between two distinct PEs that reach
    /// each other: 1 on a machine with links, 0 on the ideal machine
    /// and on machines without links (one PE).  No two distinct PEs are
    /// closer, so `min_hop() * volume` lower-bounds the cost of every
    /// edge that crosses PEs.  O(1): cached at construction.
    ///
    /// ```
    /// use ccs_topology::Machine;
    /// assert_eq!(Machine::mesh(4, 4).min_hop(), 1);
    /// assert_eq!(Machine::ideal(4).min_hop(), 0);
    /// assert_eq!(Machine::complete(1).min_hop(), 0);
    /// ```
    #[inline]
    pub fn min_hop(&self) -> u32 {
        self.min_hop
    }

    /// Mean hop distance over ordered distinct PE pairs (an
    /// unreachable pair counts `u32::MAX` hops).
    pub fn mean_distance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        for a in self.pes() {
            for b in self.pes() {
                total += u64::from(self.hop(a, b));
            }
        }
        let pairs = self.n as u64 * (self.n as u64 - 1);
        total as f64 / pairs as f64
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

/// Machines are equal when their names, links, connectivity,
/// diameters, `min_hop`s and every hop distance agree, however each
/// computes its distances.  Comparing fills no row.
impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.n == other.n
            && self.links == other.links
            && self.connected == other.connected
            && self.diameter == other.diameter
            && self.min_hop == other.min_hop
            && self
                .pes()
                .all(|a| self.pes().all(|b| self.hop(a, b) == other.hop(a, b)))
    }
}

impl Eq for Machine {}

/// A computation over every hop distance of a machine, which
/// [`Machine::scan_hops`] runs with the machine's distance function.
pub trait HopScan {
    /// What the scan returns.
    type Output;

    /// Runs the scan over PEs `0..n`, where `hop(a, b)` is the hop
    /// distance from PE `a` to PE `b` (`u32::MAX` when unreachable).
    fn scan(self, n: usize, hop: impl Fn(usize, usize) -> u32) -> Self::Output;
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
        assert_eq!(m.min_hop(), 0);
        assert_eq!(m.mean_distance(), 0.0);
        assert!(m.is_connected());
    }

    #[test]
    fn closed_form_rows_fill_on_first_read() {
        let m = Machine::mesh(4, 4);
        assert!(m.filled_rows().is_empty());
        // Point queries and the whole-machine folds evaluate the
        // formula.
        assert_eq!(m.distance(Pe(0), Pe(15)), 6);
        assert_eq!(m.try_distance(Pe(5), Pe(6)), Some(1));
        assert_eq!(m.comm_cost(Pe(3), Pe(12), 2), 12);
        assert!(m.unreachable_pairs().is_empty());
        assert!((m.mean_distance() - 8.0 / 3.0).abs() < 1e-12);
        assert!(m == m.clone());
        assert!(m.filled_rows().is_empty());
        assert_eq!(m.dist_row(Pe(5))[15], 4);
        assert_eq!(m.dist_row(Pe(9))[0], 3);
        assert_eq!(m.dist_row(Pe(5))[0], 2);
        assert_eq!(m.filled_rows(), vec![Pe(5), Pe(9)]);
        // A clone keeps the rows filled so far.
        assert_eq!(m.clone().filled_rows(), vec![Pe(5), Pe(9)]);
    }

    #[test]
    fn bfs_rows_are_filled_at_construction() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(m.filled_rows(), m.pes().collect::<Vec<_>>());
        assert_eq!(m.min_hop(), 1);
        let bare = Machine::from_links("no links", 3, &[]);
        assert_eq!((bare.min_hop(), bare.is_connected()), (0, false));
    }

    /// Every destination's row of parents at once, as an all-pairs
    /// route table filled eagerly: the oracle the rows filled on
    /// demand are held to.
    fn all_pairs_parents(m: &Machine) -> Vec<Vec<u32>> {
        let adj = Adjacency::new(m.n, &m.links);
        let mut queue = Vec::new();
        (0..m.n)
            .map(|dst| {
                let mut row = vec![0; m.n];
                adj.bfs(dst, &mut row, &mut queue);
                row
            })
            .collect()
    }

    /// `m`'s rows of parents, read through [`Machine::next_hop`] in
    /// the order `dsts` names them.
    fn parents_on_demand(m: &Machine, dsts: impl Iterator<Item = Pe>) -> Vec<(Pe, Vec<u32>)> {
        dsts.map(|dst| {
            let row = m
                .pes()
                .map(|src| match m.try_distance(src, dst) {
                    Some(_) => m.next_hop(src, dst).0,
                    None => UNSEEN,
                })
                .collect();
            (dst, row)
        })
        .collect()
    }

    #[test]
    fn rows_on_demand_match_the_all_pairs_table() {
        let mut machines = Machine::paper_suite();
        for spec in [
            "mesh:32x32",
            "torus:32x32",
            "hypercube:10",
            "ring:1024",
            "star:1024",
            "complete:128",
            "ideal:64",
            "mesh:4x5",
            "torus:3x4",
            "tree:15",
            "tree:100",
        ] {
            machines.push(crate::parse_spec(spec).expect("spec"));
        }
        machines.extend((0..6).map(|seed| crate::random_machine(12 + 7 * seed as usize, seed)));
        machines.push(Machine::from_links(
            "two islands",
            5,
            &[(0, 1), (2, 3), (3, 4)],
        ));
        for m in &machines {
            let want = all_pairs_parents(m);
            // Destinations read back to front, so no row is filled in
            // the order the eager table fills them.
            for (dst, row) in parents_on_demand(m, (0..m.n).rev().map(Pe::from_index)) {
                assert_eq!(row, want[dst.index()], "{} toward {dst}", m.name());
            }
            assert_eq!(m.filled_routes(), m.pes().collect::<Vec<_>>());
        }
    }

    #[test]
    fn routes_fill_on_first_read() {
        let m = Machine::mesh(4, 4);
        assert!(m.filled_routes().is_empty());
        let up = m
            .link_between(Pe(5), Pe(1))
            .expect("pe6 and pe2 are linked");
        assert_eq!(m.links()[up], (1, 5));
        assert!(
            m.filled_routes().is_empty(),
            "the link index routes nothing"
        );
        assert_eq!(m.route(Pe(0), Pe(5)).len(), 3);
        assert_eq!(m.next_hop(Pe(15), Pe(9)), Pe(11));
        assert_eq!(m.route(Pe(12), Pe(5)).len(), 4);
        assert_eq!(m.filled_routes(), vec![Pe(5), Pe(9)]);
        assert!(m.filled_rows().is_empty(), "routes fill no hop row");
        // A clone keeps the rows filled so far.
        assert_eq!(m.clone().filled_routes(), vec![Pe(5), Pe(9)]);
        let bfs = Machine::binary_tree(7);
        assert!(bfs.filled_routes().is_empty());
    }

    #[test]
    fn path_lengths_match_distances() {
        for m in Machine::paper_suite() {
            for a in m.pes() {
                for b in m.pes() {
                    let path = m.route(a, b);
                    assert_eq!(
                        path.len() - 1,
                        m.distance(a, b) as usize,
                        "{} {a}->{b}",
                        m.name()
                    );
                    assert_eq!(path[0], a);
                    assert_eq!(*path.last().unwrap(), b);
                }
            }
        }
    }

    /// Hop counts from `src` by BFS over [`Machine::neighbours`].
    fn bfs_hops(m: &Machine, src: Pe) -> Vec<u32> {
        let mut hops = vec![u32::MAX; m.n];
        hops[src.index()] = 0;
        let mut queue = std::collections::VecDeque::from([src.0]);
        while let Some(u) = queue.pop_front() {
            for &v in m.neighbours(Pe(u)) {
                if hops[v as usize] == u32::MAX {
                    hops[v as usize] = hops[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        hops
    }

    #[test]
    fn bfs_over_the_links_gives_every_closed_form_distance() {
        // The schedulers' ring searches read BFS layers over `links()`
        // as hop distances; every closed form but `ideal` (all hops 0)
        // must agree with its formula.
        for spec in [
            "linear:1",
            "linear:9",
            "ring:2",
            "ring:7",
            "ring:8",
            "complete:1",
            "complete:9",
            "mesh:1x6",
            "mesh:3x5",
            "mesh:32x32",
            "torus:1x5",
            "torus:3x4",
            "torus:8x8",
            "hypercube:0",
            "hypercube:3",
            "hypercube:8",
            "star:2",
            "star:64",
        ] {
            let m = crate::parse_spec(spec).expect("spec");
            assert!(m.shape.is_some(), "{spec} is a closed form");
            for src in m.pes() {
                assert_eq!(bfs_hops(&m, src), m.dist_row(src), "{spec} from {src}");
            }
        }
        let ideal = Machine::ideal(4);
        assert_eq!(ideal.diameter(), 0, "the searches never walk ideal's links");
        assert_eq!(bfs_hops(&ideal, Pe(0)), [0, 1, 1, 1]);
    }

    #[test]
    fn neighbour_lists_are_built_on_first_read() {
        let m = Machine::complete(64);
        assert!(!m.has_adjacency());
        assert_eq!(m.distance(Pe(3), Pe(9)), 1);
        assert_eq!(m.dist_row(Pe(5)).len(), 64);
        assert!(!m.has_adjacency(), "hops read no neighbour list");
        assert_eq!(m.neighbours(Pe(0)).len(), 63);
        assert!(m.has_adjacency());
        assert!(
            m.filled_routes().is_empty(),
            "a neighbour read routes nothing"
        );
        // A route read builds them too; a BFS machine has them at once.
        let mesh = Machine::mesh(2, 3);
        assert_eq!(mesh.next_hop(Pe(0), Pe(5)), Pe(1));
        assert!(mesh.has_adjacency());
        assert!(Machine::binary_tree(7).has_adjacency());
    }

    #[test]
    fn consecutive_hops_are_linked() {
        let m = Machine::mesh(3, 3);
        for a in m.pes() {
            for b in m.pes() {
                for w in m.route(a, b).windows(2) {
                    assert_eq!(m.distance(w[0], w[1]), 1, "{}->{}", w[0], w[1]);
                    let link = m.link_between(w[0], w[1]).expect("a hop is a link");
                    let (x, y) = m.links()[link];
                    assert_eq!(
                        (x, y),
                        (
                            w[0].index().min(w[1].index()),
                            w[0].index().max(w[1].index())
                        )
                    );
                }
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let m = Machine::ring(5);
        assert_eq!(m.route(Pe(2), Pe(2)), vec![Pe(2)]);
        assert_eq!(m.next_hop(Pe(2), Pe(2)), Pe(2));
    }

    #[test]
    fn deterministic_tie_breaks() {
        // On a 2x2 mesh pe1->pe4 has two shortest routes; pe4's BFS
        // dequeues pe2 (index 1) before pe3, so pe1 routes through
        // pe2, every time.
        let m = Machine::mesh(2, 2);
        let p1 = m.route(Pe(0), Pe(3));
        let p2 = Machine::mesh(2, 2).route(Pe(0), Pe(3));
        assert_eq!(p1, p2);
        assert_eq!(p1[1], Pe(1));
    }

    #[test]
    fn next_hop_is_the_bfs_parent_not_the_lowest_index() {
        // pe6 -> pe7 on `random:14:2` is three hops, through pe3, pe4
        // or pe9.  pe7's BFS reaches pe6 from pe4 first, so the route
        // takes pe4, not the lowest-index pe3.
        let m = crate::random_machine(14, 2);
        let (src, dst) = (Pe(5), Pe(6));
        let hops = m.distance(src, dst);
        let shortest: Vec<Pe> = m
            .pes()
            .filter(|&p| m.distance(src, p) == 1 && m.distance(p, dst) + 1 == hops)
            .collect();
        assert_eq!(hops, 3);
        assert_eq!(shortest, vec![Pe(2), Pe(3), Pe(8)]);
        assert_eq!(m.next_hop(src, dst), Pe(3));
        assert_eq!(m.route(src, dst), vec![Pe(5), Pe(3), Pe(4), Pe(6)]);
    }

    #[test]
    fn routes_stay_inside_their_partition() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(m.route(Pe(3), Pe(2)), vec![Pe(3), Pe(2)]);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn routes_reject_unreachable_pairs() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        let _ = m.route(Pe(0), Pe(3));
    }

    #[test]
    fn link_between_finds_each_link_either_way_round() {
        let m = Machine::linear_array(4);
        let hops: Vec<Option<usize>> = m
            .route(Pe(3), Pe(0))
            .windows(2)
            .map(|w| m.link_between(w[0], w[1]))
            .collect();
        assert_eq!(hops, vec![Some(2), Some(1), Some(0)]);
        assert_eq!(m.link_between(Pe(0), Pe(2)), None);
        assert_eq!(m.link_between(Pe(1), Pe(1)), None);
        // Links listed out of order keep their positions.
        let k = Machine::from_links("shuffled", 5, &[(3, 4), (0, 2), (1, 4), (0, 1), (2, 3)]);
        for (ix, &(a, b)) in k.links().iter().enumerate() {
            assert_eq!(
                k.link_between(Pe::from_index(b), Pe::from_index(a)),
                Some(ix)
            );
        }
    }

    /// Collects every hop a scan sees, row by row.
    struct AllHops;

    impl HopScan for AllHops {
        type Output = Vec<u32>;

        fn scan(self, n: usize, hop: impl Fn(usize, usize) -> u32) -> Vec<u32> {
            (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .map(|(a, b)| hop(a, b))
                .collect()
        }
    }

    #[test]
    fn scans_see_the_distance_function() {
        let machines = [
            Machine::linear_array(5),
            Machine::ring(7),
            Machine::complete(4),
            Machine::mesh(3, 5),
            Machine::torus(4, 3),
            Machine::torus(1, 5),
            Machine::hypercube(4),
            Machine::star(6),
            Machine::ideal(3),
            Machine::binary_tree(9),
            Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]),
        ];
        for m in &machines {
            let want: Vec<u32> = m
                .pes()
                .flat_map(|a| {
                    m.pes()
                        .map(move |b| m.try_distance(a, b).unwrap_or(u32::MAX))
                })
                .collect();
            assert_eq!(m.scan_hops(AllHops), want, "{}", m.name());
            if m.shape.is_some() {
                assert!(m.filled_rows().is_empty(), "{} filled a row", m.name());
            }
        }
    }

    #[test]
    fn equality_compares_every_hop() {
        let k3 = [(0, 1), (0, 2), (1, 2)];
        assert!(Machine::complete(3) == Machine::from_links("Completely Connected 3", 3, &k3));
        // Same name, links, connectivity and diameter; other hops.
        let path = Machine::from_links("p", 4, &[(0, 1), (1, 2), (2, 3)]);
        let other = Machine::from_links("p", 4, &[(0, 1), (1, 3), (3, 2)]);
        assert_eq!(path.diameter(), other.diameter());
        assert!(path != other);
    }
}
