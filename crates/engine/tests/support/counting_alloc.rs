//! A counting global allocator for allocation regression tests, shared by
//! path (`#[path = "…/support/counting_alloc.rs"] mod counting_alloc;`)
//! between the test binaries that pin allocation counts. Each including
//! binary gets its own allocator and counters.
//!
//! The counters are per thread: what a measured closure allocates on the
//! calling thread is counted, while the test harness starting the next
//! test on another thread is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes requested (a `realloc` counts its whole new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The harness runs tests on parallel threads, and process-wide state
/// (the string dictionary) is shared: every test holds this for its
/// whole body.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Heap allocations (`alloc` + `realloc` calls) made on this thread while
/// `f` runs.
pub fn allocs_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Heap bytes requested on this thread while `f` runs.
#[allow(dead_code)] // not every including binary pins bytes
pub fn bytes_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (BYTES.with(Cell::get) - before, r)
}
