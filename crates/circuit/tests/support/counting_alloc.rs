//! A counting global allocator shared by the `alloc` (tfet-circuit) and
//! `array_alloc` (tfet-sram) test binaries, which include this file as a
//! module. It needs `unsafe`, which the libraries forbid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Allocations made by every thread of the process.
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread alone.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests of one binary; every test holds the guard for its
/// whole body, so no sibling test allocates while it counts.
pub fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations the calling thread makes while `f` runs, and `f`'s result.
/// Exact for work that stays on this thread: the test harness's own threads
/// (spawning and starting the next test) cannot add to it.
pub fn count_own<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let value = f();
    (THREAD_ALLOCATIONS.with(Cell::get) - before, value)
}
