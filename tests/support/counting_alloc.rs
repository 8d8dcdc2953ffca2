// Shared counting-allocator harness for the steady-state allocation
// audits, spliced into each audit test binary with `include!` (files in
// `tests/support/` are not themselves test targets, and `//!` inner docs
// would be illegal at the include site). One source of truth:
// `tests/sampler_alloc.rs` at the repo root and
// `crates/serve/tests/query_alloc.rs` both use it, so an allocator-gate
// fix lands in every audit at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Only allocations made on a thread that opted in are counted. The
    /// libtest harness thread lazily initializes its MPMC channel context
    /// (two small allocations) at a *nondeterministic* time while parked
    /// waiting for the test thread — without this gate, that init lands
    /// inside a measured window once in a few runs and flakes the audit.
    /// Const-initialized TLS is allocation-free to access.
    static TRACKING: Cell<bool> = const { Cell::new(false) };

    /// This thread's allocation count. Per-thread, not global: libtest
    /// runs tests on parallel threads, and a shared tally would charge
    /// each test's measured window with the other tests' allocations. An
    /// audit that measures work on threads it spawns must opt those
    /// threads in and sum their counts itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_if_tracking() {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to the `System` allocator with the exact
// layout/pointer it was given, so `System`'s contract is preserved; the
// only addition is a thread-local counter bump that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System.alloc`; see impl comment.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` pass through unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: arguments pass through unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracking();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Reads the calling thread's counter, opting the thread into tracking —
/// the audits read it immediately before the measured window, so
/// everything the test thread allocates from then on is counted.
fn allocation_count() -> usize {
    TRACKING.with(|t| t.set(true));
    ALLOCATIONS.with(Cell::get)
}
