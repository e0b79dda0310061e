//! A counting global allocator shared by the `alloc` (tfet-circuit) and
//! `array_alloc` (tfet-sram) test binaries, which include this file as a
//! module. It needs `unsafe`, which the libraries forbid. Besides counting
//! allocations it keeps the live heap bytes and their high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Allocations made by every thread of the process.
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Heap bytes currently allocated by every thread of the process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The high-water mark of [`LIVE_BYTES`] since the last [`live_peak`]
/// began.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread alone.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn grow_live(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink_live(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow_live(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink_live(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size > layout.size() {
                grow_live(new_size - layout.size());
            } else {
                shrink_live(layout.size() - new_size);
            }
        }
        new
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

/// Heap use while `f` runs, by every thread, relative to its start: the
/// high-water mark of the live bytes and the bytes still live at its end,
/// and `f`'s result. Hold the [`serial`] guard, so no sibling test
/// allocates meanwhile.
#[allow(dead_code)] // one of the two including binaries measures it
pub fn live_peak<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let value = f();
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    (peak - before, after.saturating_sub(before), value)
}
