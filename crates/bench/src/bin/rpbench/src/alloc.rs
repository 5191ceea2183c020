//! A counting global allocator: allocation events, bytes, live heap and
//! its high-water mark, kept per thread.
//!
//! The counters are thread-local so a measurement on one thread is never
//! disturbed by another (unit tests run on parallel threads); the
//! benchmark itself is single-threaded. `alloc`, `alloc_zeroed` and
//! `realloc` each count as one allocation event; `dealloc` only lowers
//! the live byte count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(events: u64, delta: i64) {
    // `try_with` never panics: a const-initialized `Cell` has no
    // destructor, so the slot stays readable for the thread's whole life.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + events));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn size(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(1, size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(1, size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(0, -size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is valid for `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(1, size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Allocation events on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed.
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The highest [`live`] value since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Restarts the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

/// Puts back a high-water mark read earlier, forgetting the allocations
/// made since (the yardstick's, which are not the program's).
pub fn set_peak(peak: i64) {
    PEAK.with(|p| p.set(peak));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_growth_is_counted_exactly() {
        let (a0, l0) = (allocs(), live());
        reset_peak();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        assert_eq!((allocs() - a0, live() - l0), (1, 32));
        v.extend([1, 2, 3, 4]);
        assert_eq!((allocs() - a0, live() - l0), (1, 32), "within capacity");
        v.push(5); // amortized growth doubles: 4 -> 8 elements
        assert_eq!((allocs() - a0, live() - l0), (2, 64));
        v.shrink_to_fit(); // 8 -> 5 elements
        assert_eq!((allocs() - a0, live() - l0), (3, 40));
        assert_eq!(peak() - l0, 64);
        drop(v);
        assert_eq!((allocs() - a0, live() - l0), (3, 0));
        assert_eq!(peak() - l0, 64, "frees do not lower the high-water mark");
    }
}
