//! The benchmark binary's global allocator: `CountingAllocator` while
//! counting is switched on, the system allocator otherwise.
//!
//! `CountingAllocator` bumps process-wide atomics on every allocation
//! and free. With two workers allocating at once, those counters'
//! cache line moves between cores on every call, which slowed the
//! allocation-heavy workloads at threads=2 by about a sixth and made
//! their run-to-run spread depend on which cores the workers landed
//! on. Timed runs therefore leave counting off; the gate runs and the
//! traced runs switch it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use enzian_sim::alloc_count::CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Switches allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Forwards to [`CountingAllocator`] while counting is on, else to
/// [`System`].
#[derive(Debug, Default)]
pub struct GatedCounter;

impl GatedCounter {
    fn counting() -> bool {
        // Relaxed: the flag publishes no data, and a call racing with
        // `set_counting` may go either way.
        COUNTING.load(Ordering::Relaxed)
    }
}

// SAFETY: both arms forward to `System` (`CountingAllocator` is a pure
// pass-through to it that only bumps counters), so a block allocated
// through one arm may be resized or freed through the other.
unsafe impl GlobalAlloc for GatedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which both allocators share.
        unsafe {
            if Self::counting() {
                CountingAllocator.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through either arm, and the
        // caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe {
            if Self::counting() {
                CountingAllocator.dealloc(ptr, layout)
            } else {
                System.dealloc(ptr, layout)
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe {
            if Self::counting() {
                CountingAllocator.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}
