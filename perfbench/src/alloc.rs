//! A counting global allocator: every allocation (including `realloc`
//! and `alloc_zeroed`) bumps a process-wide counter and the calling
//! thread's own counter. Counts are deterministic for deterministic
//! code, which is what makes the `*.alloc_*` metrics comparable across
//! runs where wall time is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts.
pub struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation and no destructor: touching this from
    // inside the allocator never allocates itself.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A statistic that publishes no other data.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; counting
// touches only an atomic and a const-initialised thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by every thread since process start.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread since it started.
pub fn thread() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}
