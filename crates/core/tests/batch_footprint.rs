//! Host-footprint guard for a served batch: a warm
//! [`BatchRunner::run_batch`] that writes every row of its slabs holds
//! the slabs and round buffers the previous batch left, and nothing per
//! vertex — residual bytes are folded from the slab cells, not from one
//! extracted output per row. Bytes, not time — and its own test binary,
//! because the counting allocator must be the process's only one.

use mtvc_cluster::ClusterSpec;
use mtvc_core::{select_sources, BatchRunner, Task};
use mtvc_engine::StateSlab;
use mtvc_graph::generators;
use mtvc_metrics::OVERLOAD_CUTOFF;
use mtvc_systems::SystemKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tracks live bytes and their high-water mark (a realloc counts its
/// growth or shrinkage).
struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
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

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WIDTH: u64 = 32;

#[test]
fn a_warm_batch_holds_no_bytes_per_row() {
    // MSSP over a connected grid: every query reaches every vertex, so
    // the batch writes every cell of every row.
    let g = Arc::new(generators::grid(45, 46));
    let rows = g.num_vertices();
    let runner = BatchRunner::new(
        Arc::clone(&g),
        Task::mssp(WIDTH),
        SystemKind::PregelPlus,
        ClusterSpec::galaxy(4),
    );
    let sources = select_sources(&g, WIDTH, 7);
    // The cold batch grows the slabs and round buffers; the warm one
    // re-shapes the pooled slabs and takes over the parked buffers.
    let cold = runner.run_batch(WIDTH, &sources, &[0; 4], 1, OVERLOAD_CUTOFF);
    assert!(cold.outcome.is_completed());
    drop(cold);

    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let warm = runner.run_batch(WIDTH, &sources, &[0; 4], 2, OVERLOAD_CUTOFF);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(warm.outcome.is_completed());
    let cells = rows as u64 * WIDTH;
    assert_eq!(
        warm.residual_delta.iter().sum::<u64>(),
        cells * 16,
        "16 residual bytes per reached cell, and every cell is reached"
    );

    // Allowance: one more dense slab and its block table (one `u32` per
    // word; a W = 32 row is one word), as if the pooled slabs were not
    // there. One extracted output per row — a 32-entry distance map,
    // over 1 KiB — would put the peak at four times this.
    let bound = StateSlab::<u64>::capacity_bytes(rows, WIDTH as usize) + 4 * rows as u64;
    assert!(
        peak <= bound,
        "a warm W = {WIDTH} batch over {rows} rows peaked {peak} B above its base, \
         over one dense slab + table = {bound} B"
    );
}
