//! A counting allocator for a crate's unit tests (`tad-net`'s, and
//! `tad-router`'s, which include this file): it counts the heap requests
//! (allocations and reallocations) of the one thread that asked, while it
//! asked — so the tests that pin "this path allocates a constant number
//! of times" share the test binary with everything else, whatever the
//! other test threads are doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap requests of this thread since it started counting; `None`
    /// while it is not.
    static REQUESTS: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn note() {
        // `try_with`: the allocator outlives a thread's locals.
        let _ = REQUESTS.try_with(|n| n.set(n.get().map(|n| n + 1)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic in a
// const-initialised, destructor-free thread local, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with how many heap requests the
/// calling thread made meanwhile.
pub(crate) fn heap_requests<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTS.with(|n| n.set(Some(0)));
    let out = f();
    (out, REQUESTS.with(|n| n.take()).expect("counting was on"))
}
