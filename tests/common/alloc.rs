//! The counting global allocator behind the allocation gates
//! (`kernel_alloc`, `obs_alloc`, `span_alloc`). It wraps the system
//! allocator and counts every allocation twice: once for the calling
//! thread, and once in a process-wide tally. Per-thread counts are what
//! keep the gates exact under the default parallel test harness: a
//! test measuring its own thread cannot see the allocations of the
//! tests running beside it. A test binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: common::alloc::CountingAllocator = common::alloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

thread_local! {
    // Const-initialized and drop-free: reading it never allocates,
    // so the allocator itself can touch it.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts
/// `alloc`, `alloc_zeroed` and `realloc` calls.
pub struct CountingAllocator;

fn count() {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    PROCESS_ALLOCATIONS.fetch_add(1, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a const-initialized
// thread-local cell and an atomic, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `run` and returns its result with the number of allocations
/// the calling thread made meanwhile. Exact whatever else the process
/// is doing, but blind to threads `run` spawns.
pub fn allocations_during<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let thread = || THREAD_ALLOCATIONS.with(Cell::get);
    let before = thread();
    let out = run();
    (out, thread() - before)
}

/// Runs `run` and returns its result with the number of allocations
/// every thread of the process made meanwhile. This covers work `run`
/// hands to worker threads, but it is exact only in a test binary that
/// holds a single test, so nothing else allocates concurrently.
pub fn process_allocations_during<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = PROCESS_ALLOCATIONS.load(Relaxed);
    let out = run();
    (out, PROCESS_ALLOCATIONS.load(Relaxed) - before)
}
