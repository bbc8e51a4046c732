//! Hop rings around a node's placed neighbours: how the two unrecorded
//! PE sweeps — the remapper's candidate sweep and start-up's slot
//! search — reach the PEs that can win without ranking the rest.
//!
//! A PE's key grows with its hop distances to the PEs of the node's
//! placed neighbours, the *sources*, and an empty PE — one whose row is
//! free at every step — has no key beyond those distances.
//! [`Rings::search`] ranks the sources, then every other PE ring by
//! ring: ring `r` holds the PEs `r` hops from the nearest source, found
//! by a multi-source BFS over [`Machine::neighbours`].  Before ring
//! `r`, every PE not yet reached is at least `r` hops from every
//! source, which bounds its key from below ([`RingSearch::beaten`]);
//! once that floor cannot beat the best key so far, no farther PE can,
//! and the sweep stops.  The floor is exact for an empty PE, so the
//! winner and every PE-index tie-break are those of the sweep over
//! every PE.

use ccs_schedule::Schedule;
use ccs_topology::{Machine, Pe};

/// Below this many empty PEs the remapper's sweep ranks every PE in
/// index order instead of walking rings ([`Rings::worth_walking`]).
/// A walk's own cost — its BFS, its floors and a ranking call per ring
/// — is about that of ranking 40 PEs, so with fewer empty PEs to skip
/// it cannot pay: on `mesh:4x4` (about 10 empty PEs a sweep) and the
/// 8-PE machines the plain order is 10-17% faster, and on the 64-PE
/// machines (45-51 empty) the rings are 8-30% faster.
const MIN_EMPTY_TO_WALK: usize = 32;

/// What [`Rings::search`] drives: a sweep's ranking and the floor of
/// its key.
pub(crate) trait RingSearch {
    /// Ranks `pes`, keeping the best key so far.
    fn rank(&mut self, pes: &[u32]);

    /// `true` when no PE at least `hops` hops from every source can
    /// beat the best key so far: none can take the node, or the floor
    /// of their keys is strictly worse.  On a tie this is `false`,
    /// since a farther PE of lower index can still win.
    fn beaten(&self, hops: u32) -> bool;
}

/// The ring walker of a run's sweeps: the multi-source BFS of one
/// sweep (a per-PE stamp and two layers), and the PE lists it hands to
/// the search.
#[derive(Default)]
pub(crate) struct Rings {
    /// Every PE in index order.
    all: Vec<u32>,
    /// `seen[p] == stamp` once the current walk has reached `p`.
    seen: Vec<u32>,
    stamp: u32,
    /// The ring last reached, and the one being gathered.
    ring: Vec<u32>,
    next: Vec<u32>,
    /// The PEs [`Rings::rank_rest`] hands to the search.
    batch: Vec<u32>,
    /// Worth walking however few PEs are empty (tests only).
    walk_always: bool,
}

impl Rings {
    /// A walker that walks the rings however few PEs are empty, so
    /// that tests reach every case of the walk on small machines.
    #[cfg(test)]
    pub(crate) fn walking() -> Self {
        Rings {
            walk_always: true,
            ..Rings::default()
        }
    }

    /// `true` when a sweep over `table` should walk the rings: at least
    /// [`MIN_EMPTY_TO_WALK`] of its PEs are empty.  Start-up walks them
    /// whatever the count: most of its sweeps end at the first floor,
    /// right after the sources, which no plain order matches.
    pub(crate) fn worth_walking(&self, table: &Schedule) -> bool {
        self.walk_always || table.num_pes() - table.pes_in_use().len() >= MIN_EMPTY_TO_WALK
    }

    /// Every PE of an `n`-PE machine, in index order.
    pub(crate) fn every_pe(&mut self, n: usize) -> &[u32] {
        if self.all.len() != n {
            self.all = (0u32..).take(n).collect();
        }
        &self.all
    }

    /// Ranks the PEs of `sources`, then every other PE ring by ring in
    /// hop distance around them, until [`RingSearch::beaten`] says no
    /// farther PE can win.
    ///
    /// The floor at `hops` bounds every PE at least that far from each
    /// source, empty or not: a PE that holds a task can only start the
    /// node later than an empty one would.  Only the empty PEs have no
    /// key but that floor's terms, so once no ring is left to tell them
    /// apart, every PE of [`Schedule::pes_in_use`] not reached yet is
    /// ranked, and of the others, all empty, only the lowest-indexed.
    /// That happens in three cases: there is no source; every hop is 0
    /// (diameter 0: `ideal:N` or one PE); or the rings have reached the
    /// diameter, so every PE left is exactly that far from every
    /// source.  `complete:N` and `ideal:N` are answered that way
    /// without expanding a ring, so their `O(PEs²)` neighbour lists are
    /// never built.
    ///
    /// The machine must be connected, which `CCS010` checks before
    /// either sweep runs: on a disconnected one the BFS never reaches
    /// the other partitions.
    pub(crate) fn search<S: RingSearch>(
        &mut self,
        machine: &Machine,
        table: &Schedule,
        sources: impl IntoIterator<Item = Pe>,
        search: &mut S,
    ) {
        debug_assert!(
            machine.is_connected(),
            "ring search on a disconnected machine"
        );
        self.start(machine.num_pes(), sources);
        search.rank(&self.ring);
        // With no source, no hop count tells two PEs apart, as on a
        // machine of diameter 0.
        let diameter = if self.ring.is_empty() {
            0
        } else {
            machine.diameter()
        };
        let mut hops = 1;
        loop {
            // A floor at `hops <= diameter` holds: no PE is farther.
            if hops <= diameter && search.beaten(hops) {
                return;
            }
            if hops >= diameter {
                self.rank_rest(table.pes_in_use(), search);
                return;
            }
            self.expand(machine);
            if self.ring.is_empty() {
                return;
            }
            search.rank(&self.ring);
            hops += 1;
        }
    }

    /// Starts a walk: every PE unseen, then `sources` (deduplicated)
    /// seen as ring 0.
    fn start(&mut self, n: usize, sources: impl IntoIterator<Item = Pe>) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 || self.seen.len() != n {
            self.seen.clear();
            self.seen.resize(n, 0);
            self.stamp = 1;
        }
        self.ring.clear();
        for p in sources {
            let seen = &mut self.seen[p.index()];
            if *seen != self.stamp {
                *seen = self.stamp;
                self.ring.push(p.0);
            }
        }
    }

    /// Replaces the ring with the next one: the unseen neighbours of
    /// its PEs.  BFS layers over the links are hop distances on every
    /// machine but `ideal`, whose links join PEs 0 hops apart; its
    /// diameter is 0, so [`Rings::search`] never expands a ring there.
    fn expand(&mut self, machine: &Machine) {
        self.next.clear();
        for &u in &self.ring {
            for &v in machine.neighbours(Pe(u)) {
                let seen = &mut self.seen[v as usize];
                if *seen != self.stamp {
                    *seen = self.stamp;
                    self.next.push(v);
                }
            }
        }
        std::mem::swap(&mut self.ring, &mut self.next);
    }

    /// Ranks every PE of `in_use` not reached yet, and the
    /// lowest-indexed PE neither in use nor reached, if any.  The walk
    /// ends here, so the PEs of `in_use` are stamped as reached.
    fn rank_rest<S: RingSearch>(&mut self, in_use: &[Pe], search: &mut S) {
        self.batch.clear();
        for &p in in_use {
            let seen = &mut self.seen[p.index()];
            if *seen != self.stamp {
                *seen = self.stamp;
                self.batch.push(p.0);
            }
        }
        if let Some(p) = self.seen.iter().position(|&s| s != self.stamp) {
            self.batch.push(Pe::from_index(p).0);
        }
        search.rank(&self.batch);
    }
}
