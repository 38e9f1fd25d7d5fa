//! A counting global allocator, installed in this binary only.
//!
//! It forwards to the system allocator and keeps three relaxed counters
//! (statistics, they publish no other data): calls, bytes requested, and
//! bytes currently live. The `repro` binary the end-to-end metrics time
//! does not have it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

/// The allocator type named by `#[global_allocator]` in `main.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's guarantee on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// `alloc` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

impl Snapshot {
    /// Allocation calls since `earlier`.
    pub fn calls_since(&self, earlier: &Snapshot) -> u64 {
        self.calls - earlier.calls
    }

    /// Bytes requested since `earlier`.
    pub fn bytes_since(&self, earlier: &Snapshot) -> u64 {
        self.bytes - earlier.bytes
    }

    /// Growth of the live heap since `earlier` (0 if it shrank).
    pub fn live_growth_since(&self, earlier: &Snapshot) -> u64 {
        self.live.saturating_sub(earlier.live)
    }
}
