//! Std-only counting allocator for `core.exec.allocs` / `.alloc_bytes`.
//!
//! Counting is switched on only for the traced run ([`Counting::enable`])
//! and, while on, counts only allocations made while at least one node is
//! inside its solve span ([`SolveSpan`]). Untraced runs pay one relaxed
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator plus two statistics counters. All atomics are
/// plain statistics and publish no other data, so `Relaxed` suffices.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static IN_SOLVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl Counting {
    /// Zero the counters and start counting.
    pub fn enable() {
        ALLOCS.store(0, Relaxed);
        BYTES.store(0, Relaxed);
        ENABLED.store(true, Relaxed);
    }

    /// Stop counting; returns (allocations, bytes) since [`Self::enable`].
    pub fn disable() -> (u64, u64) {
        ENABLED.store(false, Relaxed);
        (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
    }

    #[inline]
    fn count(size: usize) {
        if ENABLED.load(Relaxed) && IN_SOLVE.load(Relaxed) > 0 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Marks one node's solve span for the allocation counter; the span ends
/// when the guard drops, also on unwind.
pub struct SolveSpan(());

impl SolveSpan {
    pub fn enter() -> Self {
        IN_SOLVE.fetch_add(1, Relaxed);
        SolveSpan(())
    }
}

impl Drop for SolveSpan {
    fn drop(&mut self) {
        IN_SOLVE.fetch_sub(1, Relaxed);
    }
}
