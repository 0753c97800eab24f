//! Counting global allocator: live bytes, their high-water mark, and
//! total bytes allocated.
//!
//! `mtvc_bench::measure::CountingAlloc` counts churn only (frees are
//! not subtracted). This one also tracks live bytes, so `peak_alloc_mb`
//! is the largest heap the measured section ever held, and the churn
//! counter still gives `engine.alloc_bytes_per_round`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was returned by `System` for this layout.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                grow(new - old);
            } else {
                shrink(old - new);
            }
        }
        p
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Largest value `live_bytes` has had since the last `reset_peak`.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Start a new high-water window at the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Total bytes ever allocated (monotone; growth of a realloc counts).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
