//! Deterministic shortest-path routing over a [`Machine`]'s links.
//!
//! The paper's cost model only needs hop *counts*; the contention-aware
//! simulator extension (see `ccs-sim`) also needs the concrete link
//! sequence a message follows.  Routes are deterministic, so repeated
//! simulations are reproducible: the route to `dst` follows `dst`'s
//! BFS tree, grown over adjacency lists sorted by PE index, and each
//! PE's next hop is its BFS parent — the neighbour the search dequeued
//! first.  That is *not* always the lowest-index neighbour on some
//! shortest route: a neighbour dequeued earlier can have a higher
//! index.

use crate::machine::Machine;
use crate::pe::Pe;

/// Marks a PE the search has not reached.
const UNSEEN: u32 = u32::MAX;

/// An undirected link list as adjacency, each PE's neighbours sorted
/// by index, in compressed rows: the neighbours of `u` are
/// `targets[start[u]..start[u + 1]]`.  Its BFS serves the routes here
/// and the hop rows of [`Machine::from_links`].
#[derive(Clone, Debug)]
pub(crate) struct Adjacency {
    start: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// The adjacency of `n` PEs joined by normalized, duplicate-free
    /// `links`.
    pub(crate) fn new(n: usize, links: &[(usize, usize)]) -> Self {
        let mut start = vec![0usize; n + 1];
        for &(a, b) in links {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut targets = vec![0u32; start[n]];
        for &(a, b) in links {
            for (u, v) in [(a, b), (b, a)] {
                targets[fill[u]] = v as u32;
                fill[u] += 1;
            }
        }
        for u in 0..n {
            targets[start[u]..start[u + 1]].sort_unstable();
        }
        Adjacency { start, targets }
    }

    /// The BFS from `root`: writes its tree into `parent` (`parent[v]`
    /// is the PE the search reached `v` from, `root` for `root`, and
    /// [`UNSEEN`] for a PE in another partition) and leaves the PEs it
    /// reached in `queue`, in visiting order.
    pub(crate) fn bfs(&self, root: usize, parent: &mut [u32], queue: &mut Vec<u32>) {
        parent.fill(UNSEEN);
        parent[root] = root as u32;
        queue.clear();
        queue.push(root as u32);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let u = u as usize;
            for &v in &self.targets[self.start[u]..self.start[u + 1]] {
                if parent[v as usize] == UNSEEN {
                    parent[v as usize] = u as u32;
                    queue.push(v);
                }
            }
        }
    }
}

/// The route from `src` to `dst`, inclusive of both: the path
/// [`RoutingTable::path`] returns, found with one BFS instead of the
/// all-pairs table.
///
/// ```
/// use ccs_topology::{routing, Machine, Pe};
/// let m = Machine::mesh(2, 2);
/// assert_eq!(routing::route(&m, Pe(0), Pe(3)), vec![Pe(0), Pe(1), Pe(3)]);
/// ```
///
/// # Panics
///
/// Panics if `src` and `dst` lie in different partitions of a
/// disconnected machine.
pub fn route(machine: &Machine, src: Pe, dst: Pe) -> Vec<Pe> {
    let n = machine.num_pes();
    let mut parent = vec![0; n];
    Adjacency::new(n, machine.links()).bfs(dst.index(), &mut parent, &mut Vec::new());
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        let next = parent[cur.index()];
        assert!(next != UNSEEN, "no route between {src} and {dst}");
        cur = Pe(next);
        path.push(cur);
    }
    path
}

/// Precomputed deterministic shortest-path routes for one machine.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    n: usize,
    /// `next[dst * n + src]` = the neighbour of `src` on the route to
    /// `dst` (`src` itself when `src == dst`): one row per destination,
    /// its BFS tree.
    next: Vec<u32>,
}

impl RoutingTable {
    /// Builds routes for `machine` with one BFS per destination over
    /// index-sorted adjacency; each PE's next hop toward `dst` is its
    /// parent in `dst`'s BFS tree.
    ///
    /// # Panics
    ///
    /// Panics if the machine is disconnected.
    pub fn new(machine: &Machine) -> Self {
        let n = machine.num_pes();
        assert!(
            machine.is_connected(),
            "cannot route a disconnected machine"
        );
        let adj = Adjacency::new(n, machine.links());
        let mut next = vec![0; n * n];
        let mut queue = Vec::with_capacity(n);
        // Links are undirected, so the BFS from `dst` yields every
        // PE's parent toward `dst`.
        for (dst, row) in next.chunks_exact_mut(n).enumerate() {
            adj.bfs(dst, row, &mut queue);
        }
        RoutingTable { n, next }
    }

    /// The neighbour of `src` on the route to `dst` (`src` when equal).
    pub fn next_hop(&self, src: Pe, dst: Pe) -> Pe {
        Pe(self.next[dst.index() * self.n + src.index()])
    }

    /// The full PE sequence from `src` to `dst`, inclusive of both.
    pub fn path(&self, src: Pe, dst: Pe) -> Vec<Pe> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            path.push(cur);
            assert!(path.len() <= self.n, "routing loop between {src} and {dst}");
        }
        path
    }

    /// The undirected links traversed from `src` to `dst`, each as a
    /// `(min, max)` PE-index pair (the representation used by the
    /// contention simulator's link queues).
    pub fn links_on_path(&self, src: Pe, dst: Pe) -> Vec<(usize, usize)> {
        self.path(src, dst)
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0].index(), w[1].index());
                (a.min(b), a.max(b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_lengths_match_distances() {
        for m in Machine::paper_suite() {
            let routes = RoutingTable::new(&m);
            for a in m.pes() {
                for b in m.pes() {
                    let path = routes.path(a, b);
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

    #[test]
    fn consecutive_hops_are_linked() {
        let m = Machine::mesh(3, 3);
        let routes = RoutingTable::new(&m);
        for a in m.pes() {
            for b in m.pes() {
                for w in routes.path(a, b).windows(2) {
                    assert_eq!(m.distance(w[0], w[1]), 1, "{}->{}", w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let m = Machine::ring(5);
        let routes = RoutingTable::new(&m);
        assert_eq!(routes.path(Pe(2), Pe(2)), vec![Pe(2)]);
        assert!(routes.links_on_path(Pe(2), Pe(2)).is_empty());
    }

    #[test]
    fn deterministic_tie_breaks() {
        // On a 2x2 mesh pe1->pe4 has two shortest routes; pe4's BFS
        // dequeues pe2 (index 1) before pe3, so pe1 routes through
        // pe2, every time.
        let m = Machine::mesh(2, 2);
        let routes = RoutingTable::new(&m);
        let p1 = routes.path(Pe(0), Pe(3));
        let p2 = routes.path(Pe(0), Pe(3));
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
        let want = vec![Pe(5), Pe(3), Pe(4), Pe(6)];
        assert_eq!(RoutingTable::new(&m).path(src, dst), want);
        assert_eq!(route(&m, src, dst), want);
    }

    #[test]
    fn one_pair_route_matches_the_table() {
        let mut machines = Machine::paper_suite();
        machines.extend([
            Machine::mesh(4, 5),
            Machine::torus(3, 4),
            Machine::binary_tree(15),
            Machine::ideal(3),
        ]);
        machines.extend((0..6).map(|seed| crate::random_machine(12 + 3 * seed as usize, seed)));
        for m in &machines {
            let routes = RoutingTable::new(m);
            for a in m.pes() {
                for b in m.pes() {
                    assert_eq!(route(m, a, b), routes.path(a, b), "{} {a}->{b}", m.name());
                }
            }
        }
    }

    #[test]
    fn one_pair_route_stays_inside_its_partition() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(route(&m, Pe(3), Pe(2)), vec![Pe(3), Pe(2)]);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn one_pair_route_rejects_unreachable_pairs() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        let _ = route(&m, Pe(0), Pe(3));
    }

    #[test]
    fn links_on_path_are_normalized() {
        let m = Machine::linear_array(4);
        let routes = RoutingTable::new(&m);
        let links = routes.links_on_path(Pe(3), Pe(0));
        assert_eq!(links, vec![(2, 3), (1, 2), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn rejects_disconnected() {
        let m = Machine::from_links("broken", 4, &[(0, 1)]);
        let _ = RoutingTable::new(&m);
    }
}
