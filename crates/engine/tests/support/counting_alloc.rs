//! A counting global allocator for allocation regression tests, shared by
//! path (`#[path = "…/support/counting_alloc.rs"] mod counting_alloc;`)
//! between the test binaries that pin allocation counts. Each including
//! binary gets its own allocator and counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested (a `realloc` counts its whole new size).
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The counters are process-wide and the harness runs tests on parallel
/// threads: every test holds this for its whole body.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Heap allocations (`alloc` + `realloc` calls) made while `f` runs.
pub fn allocs_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Heap bytes requested while `f` runs.
#[allow(dead_code)] // not every including binary pins bytes
pub fn bytes_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.load(Ordering::Relaxed);
    let r = f();
    (BYTES.load(Ordering::Relaxed) - before, r)
}
