//! A counting global allocator for allocation regression tests.
//!
//! Include it in a test crate with
//! `#[path = ".../comb-sim/tests/support/counting_alloc.rs"] mod counting_alloc;`
//! and measure with [`allocs_during`]. Counts are per thread, so tests
//! running side by side cannot count each other; a simulation's processes
//! run on the thread that calls `run`, so a count taken inside a process
//! sees the whole simulation's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made on this thread while `f` runs, and `f`'s result.
pub fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, r)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;
