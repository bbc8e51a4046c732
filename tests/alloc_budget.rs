//! Allocation budgets of the bound family and of a compaction on one
//! fixed 200-node graph shaped like perfbench `large-certify`'s.
//!
//! A copy of that graph costs 783 allocations (a name and two edge
//! lists per task, the name index), so a graph copy per `FEAS` round
//! or per node breaks a budget.  The counting allocator is global
//! to this test binary, which is why the tests live in a binary of
//! their own, and it counts only on a thread inside [`allocations`].

use cyclosched::prelude::*;
use cyclosched::workloads::{random_csdfg, RandomGraphConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is inside [`allocations`].
/// `try_with`: a thread's locals may be gone while it exits.
fn tally() {
    let _ = ON.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations (and reallocations) it
/// made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (COUNT.with(Cell::get), out)
}

/// The graph, parsed afresh so that no derived fact is kept yet.
fn graph() -> Csdfg {
    let cfg = RandomGraphConfig {
        nodes: 200,
        back_edges: 66,
        forward_density: 0.03,
        ..Default::default()
    };
    let text = cyclosched::model::parser::write(&random_csdfg(cfg, 7));
    cyclosched::model::parser::parse(&text).unwrap()
}

#[test]
fn the_bound_family_stays_inside_its_allocation_budget() {
    let g = graph();
    let m = Machine::mesh(8, 8);
    let (count, bounds) = allocations(|| cyclosched::bounds::compute_bounds(&g, &m));
    assert_eq!(bounds.best_value(), BOUND_VALUE);
    assert!(
        count <= BOUNDS_BUDGET,
        "compute_bounds made {count} allocations, budget {BOUNDS_BUDGET}"
    );
}

#[test]
fn a_compaction_stays_inside_its_allocation_budget() {
    let g = graph();
    let m = Machine::mesh(8, 8);
    let (count, r) = allocations(|| cyclo_compact(&g, &m, CompactConfig::default()).unwrap());
    assert!(!r.history.is_empty(), "the passes ran");
    // Debug and `paranoid` builds re-validate every accepted pass and
    // certify the result.
    let budget = if cyclosched::core::oracle::ENABLED {
        COMPACT_ORACLE_BUDGET
    } else {
        COMPACT_BUDGET
    };
    eprintln!("COMPACT {count}");
    assert!(
        count <= budget,
        "cyclo_compact made {count} allocations, budget {budget}"
    );
}

/// The strongest bound of the graph on `mesh:8x8`.
const BOUND_VALUE: u64 = 20;

// Budgets: each measured count plus less than one graph copy (783
// allocations).  Counted with rustc 1.95: `compute_bounds` 2,099
// (5,998 when each `FEAS` round applied its retiming to a fresh copy of
// the graph and every stage re-derived the zero-delay order and the
// iteration bound); `cyclo_compact` 3,520, and 6,582 with the oracle
// (5,216 and 12,555 then, when the best graph was a fresh copy too).
const BOUNDS_BUDGET: u64 = 2_500;
const COMPACT_BUDGET: u64 = 4_000;
const COMPACT_ORACLE_BUDGET: u64 = 7_000;
