//! The adjacency and breadth-first search behind a [`Machine`]'s hop
//! rows and routes.
//!
//! The paper's cost model only needs hop *counts*; the traffic ledger,
//! the contention simulator and the communication bound's witness also
//! need the concrete link sequence a message follows.  Both come from
//! the BFS here, grown over adjacency lists sorted by PE index, so
//! every route is deterministic and repeated runs are reproducible.
//!
//! [`Machine`]: crate::Machine

/// Marks a PE the search has not reached.
pub(crate) const UNSEEN: u32 = u32::MAX;

/// An undirected link list as adjacency, each PE's neighbours sorted
/// by index, in compressed rows: the neighbours of `u` are
/// `targets[start[u]..start[u + 1]]`.  Its BFS serves the hop rows of
/// [`Machine::from_links`] and every machine's routes.
///
/// [`Machine::from_links`]: crate::Machine::from_links
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
