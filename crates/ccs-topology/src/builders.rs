//! Constructors for the architectures of the paper (Figure 5) plus a few
//! natural extensions.
//!
//! Every regular builder is a closed form ([`Shape`]): its distances
//! come from [`closed_form`]'s formulas, and its hop rows are filled
//! from them on first read.  Only the irregular shapes (the binary
//! tree, random and user link lists) go through the BFS of
//! [`Machine::from_links`].  The link lists are emitted normalized and
//! duplicate-free, in the order `from_links` would report them.

use crate::machine::{normalize_links, Machine};
use crate::pe::Pe;

/// The closed form of a regular builder's hop distances: `Copy`, with
/// only the formula's parameters, so a distance query is one branch on
/// the variant and the formula.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Shape {
    /// [`closed_form::linear`].
    Linear,
    /// [`closed_form::ring`] of `n` PEs.
    Ring { n: usize },
    /// [`closed_form::complete`].
    Complete,
    /// [`closed_form::mesh`], `cols` PEs a grid row.
    Mesh { cols: usize },
    /// [`closed_form::torus`].
    Torus { rows: usize, cols: usize },
    /// [`closed_form::hypercube`].
    Hypercube,
    /// [`closed_form::star`].
    Star,
    /// Every hop is 0.
    Ideal,
}

impl Shape {
    /// The distance from `a` to `b`.
    #[inline]
    pub(crate) fn distance(self, a: Pe, b: Pe) -> u32 {
        match self {
            Shape::Linear => closed_form::linear(a, b),
            Shape::Ring { n } => closed_form::ring(n, a, b),
            Shape::Complete => closed_form::complete(a, b),
            Shape::Mesh { cols } => closed_form::mesh(cols, a, b),
            Shape::Torus { rows, cols } => closed_form::torus(rows, cols, a, b),
            Shape::Hypercube => closed_form::hypercube(a, b),
            Shape::Star => closed_form::star(a, b),
            Shape::Ideal => 0,
        }
    }

    /// Writes the distances from PE `a` into `row`, one entry per PE.
    pub(crate) fn fill_row(self, a: usize, row: &mut [u32]) {
        match self {
            Shape::Mesh { cols } => fill_grid(a, cols, row, |d, _| d),
            Shape::Torus { cols, .. } => fill_grid(a, cols, row, |d, len| d.min(len - d)),
            _ => {
                let a = Pe::from_index(a);
                for (b, d) in (0u32..).zip(row.iter_mut()) {
                    *d = self.distance(a, Pe(b));
                }
            }
        }
    }
}

/// [`closed_form::mesh`] and [`closed_form::torus`] from PE `a` of a
/// grid `cols` PEs wide, one grid row at a time: `axis(d, len)` is the
/// hop count between coordinates `d` apart on an axis of `len` PEs.
fn fill_grid(a: usize, cols: usize, row: &mut [u32], axis: impl Fn(usize, usize) -> usize) {
    let rows = row.len() / cols;
    let (r0, c0) = (a / cols, a % cols);
    for (r, cells) in row.chunks_exact_mut(cols).enumerate() {
        let dr = axis(r.abs_diff(r0), rows);
        for (c, d) in cells.iter_mut().enumerate() {
            *d = (dr + axis(c.abs_diff(c0), cols)) as u32;
        }
    }
}

impl Machine {
    /// Linear array of `n` PEs: `pe1 - pe2 - ... - peN` (Figure 5a).
    pub fn linear_array(n: usize) -> Machine {
        let links = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        let diameter = n.saturating_sub(1) as u32;
        Machine::closed_form(
            format!("Linear Array {n}"),
            n,
            links,
            Shape::Linear,
            diameter,
        )
    }

    /// Bidirectional ring of `n` PEs (Figure 5b).
    pub fn ring(n: usize) -> Machine {
        assert!(n >= 1);
        let mut links: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            links.push((0, n - 1));
        }
        Machine::closed_form(
            format!("Ring {n}"),
            n,
            links,
            Shape::Ring { n },
            (n / 2) as u32,
        )
    }

    /// Completely connected machine of `n` PEs (Figure 5c).
    pub fn complete(n: usize) -> Machine {
        let mut links = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                links.push((a, b));
            }
        }
        let diameter = u32::from(n > 1);
        Machine::closed_form(
            format!("Completely Connected {n}"),
            n,
            links,
            Shape::Complete,
            diameter,
        )
    }

    /// 2-D mesh with `rows * cols` PEs, numbered row-major (Figure 5d).
    pub fn mesh(rows: usize, cols: usize) -> Machine {
        let n = rows * cols;
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    links.push((i, i + 1));
                }
                if r + 1 < rows {
                    links.push((i, i + cols));
                }
            }
        }
        let diameter = (rows.saturating_sub(1) + cols.saturating_sub(1)) as u32;
        Machine::closed_form(
            format!("2-D Mesh {rows}x{cols}"),
            n,
            links,
            Shape::Mesh { cols },
            diameter,
        )
    }

    /// 2-D torus (mesh with wrap-around links), numbered row-major.
    pub fn torus(rows: usize, cols: usize) -> Machine {
        let n = rows * cols;
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if cols > 1 {
                    links.push((i, r * cols + (c + 1) % cols));
                }
                if rows > 1 {
                    links.push((i, ((r + 1) % rows) * cols + c));
                }
            }
        }
        // Tori two PEs wide link each pair twice, once each way round.
        let links = normalize_links(n, &links);
        Machine::closed_form(
            format!("Torus {rows}x{cols}"),
            n,
            links,
            Shape::Torus { rows, cols },
            (rows / 2 + cols / 2) as u32,
        )
    }

    /// `dim`-cube with `2^dim` PEs; PEs are adjacent when their indices
    /// differ in exactly one bit (Figure 5e; `dim = 3` is the paper's
    /// 3-cube experiment machine).
    pub fn hypercube(dim: u32) -> Machine {
        let n = 1usize << dim;
        let mut links = Vec::new();
        for a in 0..n {
            for bit in 0..dim {
                let b = a ^ (1usize << bit);
                if a < b {
                    links.push((a, b));
                }
            }
        }
        Machine::closed_form(format!("{dim}-cube"), n, links, Shape::Hypercube, dim)
    }

    /// Star: PE 0 is the hub, all others are leaves.
    pub fn star(n: usize) -> Machine {
        let links = (1..n).map(|i| (0, i)).collect();
        let diameter = n.saturating_sub(1).min(2) as u32;
        Machine::closed_form(format!("Star {n}"), n, links, Shape::Star, diameter)
    }

    /// Complete binary tree with `n` PEs, numbered level order
    /// (PE `i` has children `2i+1`, `2i+2`).
    pub fn binary_tree(n: usize) -> Machine {
        let mut links = Vec::new();
        for i in 0..n {
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n {
                    links.push((i, child));
                }
            }
        }
        Machine::from_links(format!("Binary Tree {n}"), n, &links)
    }

    /// The five 8-PE experiment machines of the paper's §5 (Figure 8),
    /// in the paper's order: linear array, ring, completely connected,
    /// 2-D mesh (4x2), 3-cube.
    pub fn paper_suite() -> Vec<Machine> {
        vec![
            Machine::linear_array(8),
            Machine::ring(8),
            Machine::complete(8),
            Machine::mesh(4, 2),
            Machine::hypercube(3),
        ]
    }
}

/// Closed-form hop distances: the regular builders' [`Shape`]s
/// evaluate these formulas.
pub mod closed_form {
    use super::Pe;

    /// Linear array distance `|a - b|`.
    #[inline]
    pub fn linear(a: Pe, b: Pe) -> u32 {
        a.0.abs_diff(b.0)
    }

    /// Ring distance `min(|a-b|, n - |a-b|)`.
    #[inline]
    pub fn ring(n: usize, a: Pe, b: Pe) -> u32 {
        let d = a.0.abs_diff(b.0);
        d.min(n as u32 - d)
    }

    /// Completely connected: 0 or 1.
    #[inline]
    pub fn complete(a: Pe, b: Pe) -> u32 {
        u32::from(a != b)
    }

    /// Row-major mesh Manhattan distance.
    #[inline]
    pub fn mesh(cols: usize, a: Pe, b: Pe) -> u32 {
        let cols = cols as u32;
        let (ar, ac) = (a.0 / cols, a.0 % cols);
        let (br, bc) = (b.0 / cols, b.0 % cols);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// Torus wrap-around Manhattan distance.
    #[inline]
    pub fn torus(rows: usize, cols: usize, a: Pe, b: Pe) -> u32 {
        let (rows, cols) = (rows as u32, cols as u32);
        let (ar, ac) = (a.0 / cols, a.0 % cols);
        let (br, bc) = (b.0 / cols, b.0 % cols);
        let dr = ar.abs_diff(br).min(rows - ar.abs_diff(br));
        let dc = ac.abs_diff(bc).min(cols - ac.abs_diff(bc));
        dr + dc
    }

    /// Hamming distance between PE indices.
    #[inline]
    pub fn hypercube(a: Pe, b: Pe) -> u32 {
        (a.0 ^ b.0).count_ones()
    }

    /// Star with hub PE 0: one hop to or from the hub, two between
    /// leaves.
    #[inline]
    pub fn star(a: Pe, b: Pe) -> u32 {
        match (a == b, a.0 == 0 || b.0 == 0) {
            (true, _) => 0,
            (false, true) => 1,
            (false, false) => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `m` equals the machine BFS builds from its links:
    /// name, links in order, every hop of the closed form,
    /// connectivity, diameter and `min_hop` (`PartialEq`, which fills
    /// no row), and then every row the closed form fills.
    fn check_against_bfs(m: &Machine) {
        let twin = Machine::from_links(m.name(), m.num_pes(), m.links());
        assert!(*m == twin, "{} differs from its BFS twin", m.name());
        assert!(
            m.filled_rows().is_empty(),
            "{}: comparing filled rows",
            m.name()
        );
        for p in m.pes() {
            assert_eq!(m.dist_row(p), twin.dist_row(p), "{} row {p}", m.name());
        }
    }

    #[test]
    fn linear_array_matches_bfs() {
        let m = Machine::linear_array(8);
        check_against_bfs(&m);
        assert_eq!(m.diameter(), 7);
        assert_eq!(m.degree(Pe(0)), 1);
        assert_eq!(m.degree(Pe(3)), 2);
    }

    #[test]
    fn ring_matches_bfs() {
        let m = Machine::ring(8);
        check_against_bfs(&m);
        assert_eq!(m.diameter(), 4);
        for p in m.pes() {
            assert_eq!(m.degree(p), 2);
        }
    }

    #[test]
    fn ring_of_two_is_a_single_link() {
        let m = Machine::ring(2);
        assert_eq!(m.links().len(), 1);
        assert_eq!(m.distance(Pe(0), Pe(1)), 1);
    }

    #[test]
    fn complete_matches_bfs() {
        let m = Machine::complete(8);
        check_against_bfs(&m);
        assert_eq!(m.diameter(), 1);
        assert_eq!(m.links().len(), 28);
    }

    #[test]
    fn mesh_matches_bfs() {
        for (r, c) in [(2, 2), (4, 2), (3, 3), (2, 4)] {
            check_against_bfs(&Machine::mesh(r, c));
        }
    }

    #[test]
    fn paper_fig1_mesh_is_2x2() {
        let m = Machine::mesh(2, 2);
        assert_eq!(m.num_pes(), 4);
        assert_eq!(m.diameter(), 2);
        // pe1 (index 0) and pe4 (index 3) are diagonal: 2 hops.
        assert_eq!(m.distance(Pe(0), Pe(3)), 2);
        assert_eq!(m.distance(Pe(1), Pe(2)), 2);
        assert_eq!(m.distance(Pe(0), Pe(1)), 1);
    }

    #[test]
    fn torus_matches_bfs() {
        for (r, c) in [(3, 3), (4, 2), (2, 5)] {
            check_against_bfs(&Machine::torus(r, c));
        }
    }

    #[test]
    fn hypercube_matches_bfs() {
        for dim in 1..=4 {
            let m = Machine::hypercube(dim);
            check_against_bfs(&m);
            assert_eq!(m.diameter(), dim);
            for p in m.pes() {
                assert_eq!(m.degree(p), dim as usize);
            }
        }
    }

    #[test]
    fn degenerate_and_large_sizes_match_bfs() {
        let mut machines = vec![
            Machine::mesh(32, 32),
            Machine::torus(32, 32),
            Machine::hypercube(10),
            Machine::ring(1024),
            Machine::linear_array(1024),
            Machine::star(1024),
            Machine::complete(128),
        ];
        for n in 1..=2 {
            machines.extend([
                Machine::linear_array(n),
                Machine::complete(n),
                Machine::star(n),
            ]);
        }
        machines.extend((1..=3).map(Machine::ring));
        for k in 1..=4 {
            machines.extend([
                Machine::mesh(1, k),
                Machine::mesh(k, 1),
                Machine::torus(1, k),
                Machine::torus(2, k),
            ]);
        }
        machines.extend((0..=4).map(Machine::hypercube));
        for m in &machines {
            check_against_bfs(m);
            assert_eq!(m.min_hop(), u32::from(m.num_pes() > 1), "{}", m.name());
        }
    }

    #[test]
    fn the_ideal_machine_is_complete_without_hops() {
        // The ideal machine has the complete machine's links, and BFS
        // would count each of them as one hop: it differs from its
        // twin in every hop and in `min_hop`, and in nothing else.
        let ideal = Machine::ideal(64);
        let twin = Machine::from_links(ideal.name(), 64, ideal.links());
        assert_eq!(ideal.links(), twin.links());
        assert!(ideal.is_connected() && twin.is_connected());
        assert_eq!((ideal.diameter(), ideal.min_hop()), (0, 0));
        assert_eq!((twin.diameter(), twin.min_hop()), (1, 1));
        assert!(ideal != twin);
        for p in ideal.pes() {
            assert!(ideal.pes().all(|q| ideal.distance(p, q) == 0));
            assert!(ideal.dist_row(p).iter().all(|&d| d == 0));
        }
    }

    #[test]
    fn grid_closed_forms_match_the_row_fills() {
        // The mesh and torus rows evaluate these formulas row by row.
        let mesh = Machine::mesh(3, 4);
        let torus = Machine::torus(3, 4);
        for a in mesh.pes() {
            for b in mesh.pes() {
                assert_eq!(mesh.dist_row(a)[b.index()], closed_form::mesh(4, a, b));
                assert_eq!(torus.dist_row(a)[b.index()], closed_form::torus(3, 4, a, b));
            }
        }
    }

    #[test]
    fn star_distances() {
        let m = Machine::star(6);
        assert_eq!(m.distance(Pe(0), Pe(4)), 1);
        assert_eq!(m.distance(Pe(1), Pe(5)), 2);
        assert_eq!(m.diameter(), 2);
        assert_eq!(m.degree(Pe(0)), 5);
    }

    #[test]
    fn binary_tree_distances() {
        let m = Machine::binary_tree(7);
        assert_eq!(m.distance(Pe(0), Pe(3)), 2);
        assert_eq!(m.distance(Pe(3), Pe(6)), 4); // leaf to leaf across root
        assert_eq!(m.diameter(), 4);
    }

    #[test]
    fn paper_suite_shapes() {
        let suite = Machine::paper_suite();
        assert_eq!(suite.len(), 5);
        for m in &suite {
            assert_eq!(m.num_pes(), 8, "{}", m.name());
            assert!(m.is_connected());
        }
        let diameters: Vec<u32> = suite.iter().map(|m| m.diameter()).collect();
        // linear, ring, complete, mesh 4x2, 3-cube
        assert_eq!(diameters, vec![7, 4, 1, 4, 3]);
    }

    #[test]
    fn distances_are_symmetric_and_triangle() {
        for m in Machine::paper_suite() {
            for a in m.pes() {
                for b in m.pes() {
                    assert_eq!(m.distance(a, b), m.distance(b, a));
                    for c in m.pes() {
                        assert!(m.distance(a, c) <= m.distance(a, b) + m.distance(b, c));
                    }
                }
            }
        }
    }
}
