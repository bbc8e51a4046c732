//! Textual machine specifications, e.g. `"mesh:4x2"` or `"ring:8"`.
//!
//! Used by the examples and experiment binaries so machines can be
//! chosen on the command line with one consistent syntax.

use crate::machine::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Error from [`parse_spec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad machine spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// The most PEs a [`parse_spec`] machine may have.  A closed-form
/// machine fills one hop row of `MAX_PES` `u32`s (16 KiB) for each PE
/// a job reads it from; a BFS machine (`tree:N`, `random:N:S`) fills
/// all `MAX_PES²` entries, 64 MiB, at construction.
pub const MAX_PES: usize = 4096;

/// The most schedule-table cells a graph × machine pair may need,
/// counted as `Σ t(v)` (the single-PE serial length) steps × PEs.  The
/// text table `cyclosched schedule` prints holds every cell, measured
/// at about 31 bytes of peak memory a cell (`DESIGN.md` §9), so a run
/// at the budget peaks near 1 GB.  Pass A rejects a pair past it with
/// `CCS008` before anything allocates.  The benchmark's largest jobs
/// need under 300,000 cells.
pub const MAX_TABLE_CELLS: u64 = 1 << 25;

/// Parses a machine specification:
///
/// | spec | machine |
/// |---|---|
/// | `linear:N` | linear array of `N` PEs |
/// | `ring:N` | bidirectional ring |
/// | `complete:N` | completely connected |
/// | `mesh:RxC` | 2-D mesh, row-major |
/// | `torus:RxC` | 2-D torus |
/// | `hypercube:D` | `D`-cube (`2^D` PEs) |
/// | `star:N` | hub-and-spoke |
/// | `tree:N` | complete binary tree |
/// | `ideal:N` | zero-cost PRAM-style machine |
/// | `random:N:S` | random connected machine, `N` PEs, seed `S` |
///
/// Every machine has 1 to [`MAX_PES`] PEs; larger specs are rejected
/// before any table is allocated.
pub fn parse_spec(spec: &str) -> Result<Machine, SpecError> {
    let mut parts = spec.split(':');
    let kind = parts.next().ok_or_else(|| err("empty spec"))?;
    let size = parts
        .next()
        .ok_or_else(|| err(format!("{spec:?}: missing size")))?;
    let tail = parts.next();
    if parts.next().is_some() {
        return Err(err(format!("{spec:?}: too many ':' segments")));
    }
    let n = |s: &str| -> Result<usize, SpecError> {
        s.parse().map_err(|_| err(format!("bad count {s:?}")))
    };
    // Checks a PE count against `1..=MAX_PES`; `None` is a count that
    // overflowed `usize`.
    let pes = |count: Option<usize>| -> Result<usize, SpecError> {
        match count {
            Some(0) => Err(err("machine size must be >= 1")),
            Some(p) if p <= MAX_PES => Ok(p),
            _ => Err(err(format!("{spec:?}: more than {MAX_PES} PEs"))),
        }
    };
    let count = |s: &str| pes(Some(n(s)?));
    let grid = |s: &str| -> Result<(usize, usize), SpecError> {
        let (r, c) = s
            .split_once('x')
            .ok_or_else(|| err(format!("grid size {s:?} must look like RxC")))?;
        let (r, c) = (n(r)?, n(c)?);
        pes(r.checked_mul(c))?;
        Ok((r, c))
    };
    if tail.is_some() && kind != "random" {
        return Err(err(format!(
            "{spec:?}: only random:N:SEED takes a third field"
        )));
    }
    let m = match kind {
        "linear" => Machine::linear_array(count(size)?),
        "ring" => Machine::ring(count(size)?),
        "complete" => Machine::complete(count(size)?),
        "ideal" => Machine::ideal(count(size)?),
        "star" => Machine::star(count(size)?),
        "tree" => Machine::binary_tree(count(size)?),
        "hypercube" => {
            let d: u32 = size
                .parse()
                .map_err(|_| err(format!("bad dimension {size:?}")))?;
            pes(1usize.checked_shl(d))?;
            Machine::hypercube(d)
        }
        "mesh" => {
            let (r, c) = grid(size)?;
            Machine::mesh(r, c)
        }
        "torus" => {
            let (r, c) = grid(size)?;
            Machine::torus(r, c)
        }
        "random" => {
            let seed: u64 = tail
                .ok_or_else(|| err("random:N:SEED needs a seed"))?
                .parse()
                .map_err(|_| err("bad seed"))?;
            random_machine(count(size)?, seed)
        }
        other => return Err(err(format!("unknown machine kind {other:?}"))),
    };
    Ok(m)
}

/// A random connected machine: a random spanning tree plus `~n/2`
/// extra links; deterministic in `seed`.  Used for robustness sweeps
/// on irregular interconnects.
pub fn random_machine(n: usize, seed: u64) -> Machine {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut links = Vec::new();
    for v in 1..n {
        let u = rng.gen_range(0..v);
        links.push((u, v));
    }
    let extra = n / 2;
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            links.push((a.min(b), a.max(b)));
        }
    }
    Machine::from_links(format!("Random {n} (seed {seed})"), n, &links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::Pe;

    #[test]
    fn parses_every_kind() {
        for (spec, pes) in [
            ("linear:4", 4),
            ("ring:5", 5),
            ("complete:3", 3),
            ("mesh:2x3", 6),
            ("torus:2x2", 4),
            ("hypercube:3", 8),
            ("star:6", 6),
            ("tree:7", 7),
            ("ideal:4", 4),
            ("random:9:42", 9),
        ] {
            let m = parse_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(m.num_pes(), pes, "{spec}");
            assert!(m.is_connected(), "{spec}");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for spec in [
            "",
            "mesh",
            "mesh:4",
            "mesh:4y2",
            "ring:zero",
            "warp:4",
            "ring:0",
            "hypercube:99",
            "random:5",
            "ring:5:7",
            "mesh:2x3:4:5",
            "mesh:0x4",
            // Hop tables past MAX_PES², and PE counts that overflow.
            "mesh:300x300",
            "torus:65x64",
            "mesh:5000000000x5000000000",
            "torus:4294967296x4294967296",
            "hypercube:13",
            "hypercube:16",
            "hypercube:64",
            "complete:100000",
            "ring:18446744073709551615",
            "linear:4097",
            "ideal:4097",
            "star:4097",
            "tree:4097",
            "random:4097:1",
        ] {
            assert!(parse_spec(spec).is_err(), "{spec:?} should fail");
        }
    }

    #[test]
    fn pe_limit_is_inclusive() {
        assert_eq!(parse_spec("mesh:64x64").unwrap().num_pes(), MAX_PES);
        let e = parse_spec("mesh:300x300").unwrap_err();
        assert!(e.to_string().contains("more than 4096 PEs"), "{e}");
    }

    #[test]
    fn spec_errors_display() {
        let e = parse_spec("warp:4").unwrap_err();
        assert!(e.to_string().contains("unknown machine kind"));
    }

    #[test]
    fn random_machines_deterministic() {
        let a = random_machine(10, 7);
        let b = random_machine(10, 7);
        assert_eq!(a.links(), b.links());
        let c = random_machine(10, 8);
        assert_ne!(a.links(), c.links());
    }

    #[test]
    fn ideal_spec_gives_zero_distance() {
        let m = parse_spec("ideal:3").unwrap();
        assert_eq!(m.distance(Pe(0), Pe(2)), 0);
    }
}
