//! # ccs-bench
//!
//! The experiment harness of the reproduction: drivers that regenerate
//! every table and figure of the paper (see `DESIGN.md` §5 for the
//! experiment index), shared by the `exp_*` binaries and the
//! `bench_hotpath` regression benchmark.
//!
//! Binaries (run with `cargo run -p ccs-bench --release --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_fig1_example` | Figures 1-4, 6 and the Figure 2/3 schedule tables |
//! | `exp_architectures` | Figures 5 and 8 (machine suite) |
//! | `exp_tables_19node` | Tables 1-10 (19-node example on 5 machines) |
//! | `exp_table11` | Table 11 (elliptic + lattice, both policies) |
//! | `exp_ablation_relaxation` | §4 relaxation design choice |
//! | `exp_ablation_priority` | §3 priority-function design choice |
//! | `exp_random_sweep` | extension: random-graph sweep |
//! | `exp_validate_sim` | simulator cross-validation of every schedule |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod experiments;
pub mod report;
pub mod report_diff;
pub mod table;

pub use driver::{compact_grid, compact_grid_profiled, run_many, GridCell, ProfiledCell, Tee};
pub use experiments::*;
pub use table::TextTable;

/// A copy of `g` that keeps none of its derived facts: one delay
/// rewritten to its own value drops them, so a kernel timed on the
/// copy sorts the zero-delay view and computes the iteration bound as
/// a job's first read does, however often `g` itself has been read.
///
/// # Panics
///
/// Panics if `g` has no edge to rewrite.
pub fn uncached(g: &ccs_model::Csdfg) -> ccs_model::Csdfg {
    let e = g.deps().next().expect("a graph with an edge");
    let mut fresh = g.clone();
    fresh.set_delay(e, g.delay(e));
    fresh
}

#[cfg(test)]
mod tests {
    #[test]
    fn uncached_copies_sort_and_bound_again() {
        let g = ccs_workloads::paper::fig7_example();
        let bound = g.iteration_bound();
        let filled = g.fills();
        assert!(filled.topo >= 1 && filled.bound >= 1);
        // A plain clone keeps the facts: reading them costs nothing.
        let clone = g.clone();
        clone.iteration_bound();
        assert_eq!(clone.fills(), filled);
        // The fresh copy derives both again on its first read, to the
        // same values, and keeps them after.
        let fresh = super::uncached(&g);
        assert_eq!(fresh.iteration_bound(), bound);
        assert_eq!(fresh.zero_delay_topo(), g.zero_delay_topo());
        assert_eq!(fresh.fills().topo, filled.topo + 1);
        assert_eq!(fresh.fills().bound, filled.bound + 1);
        fresh.iteration_bound();
        assert_eq!(fresh.fills().topo, filled.topo + 1);
    }
}
