//! Host-footprint guard for sender-side folding without a combiner: a
//! non-combining MSSP lane run's round buffers hold one entry per
//! `(destination, chunk)` a source worker sends to in a round, like the
//! same run under GraphLab's combiner, not one per envelope. Its lane
//! payload's merge is exact, so the router folds it on every profile
//! and only the combiner flag decides what the fold is charged. Bytes,
//! not time — and its own test binary, because the counting allocator
//! must be the process's only one.

use mtvc_cluster::ClusterSpec;
use mtvc_core::select_sources;
use mtvc_engine::{Delivery, EngineConfig, Runner};
use mtvc_graph::generators;
use mtvc_graph::partition::HashPartitioner;
use mtvc_metrics::RunStats;
use mtvc_systems::SystemKind;
use mtvc_tasks::mssp::DistLanesMsg;
use mtvc_tasks::MsspLaneSlabProgram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

const WORKERS: usize = 4;
const WIDTH: u64 = 32;
/// Entries per shard-bucket block in the router.
const BLOCK: u64 = 1_024;

/// Peak live bytes above the starting point of one lane MSSP run under
/// `system`'s profile, and its statistics.
fn run_peak(system: SystemKind) -> (u64, RunStats) {
    // Dense enough that every vertex hears each chunk from several
    // in-neighbors on one source worker in the same round.
    let g = generators::erdos_renyi(1_500, 24_000, 5);
    let cluster = ClusterSpec::galaxy(WORKERS);
    let profile = system.profile(&cluster.machine);
    let runner = Runner::new(
        &g,
        &HashPartitioner::default(),
        EngineConfig::new(cluster, profile),
    );
    let program = MsspLaneSlabProgram::new(select_sources(&g, WIDTH, 3));
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let run = runner.run_slab(&program);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(run.outcome.is_completed());
    (peak, run.stats)
}

#[test]
fn a_non_combining_lane_run_buffers_what_a_combining_one_does() {
    let (combined, graphlab) = run_peak(SystemKind::GraphLab);
    let (plain, pregel) = run_peak(SystemKind::PregelPlus);

    // The runs do the same host work, and the model still tells them
    // apart: Pregel+ is charged every envelope it sent.
    assert_eq!(pregel.total_messages_sent, graphlab.total_messages_sent);
    assert_eq!(
        pregel.total_shard_copy_bytes,
        graphlab.total_shard_copy_bytes
    );
    assert_eq!(pregel.total_messages_delivered, pregel.total_messages_sent);
    assert!(
        graphlab.total_messages_delivered * 2 < pregel.total_messages_delivered,
        "the graph must give the combiner something to fold: {} of {} delivered",
        graphlab.total_messages_delivered,
        pregel.total_messages_delivered
    );

    // Allowance: one spare bucket block (a delivery and its `u32`
    // local index per entry) per (source, destination) shard.
    let entry = std::mem::size_of::<Delivery<DistLanesMsg>>() as u64 + 4;
    let slack = (WORKERS * WORKERS) as u64 * BLOCK * entry;
    assert!(
        plain <= combined + slack,
        "Pregel+ peaked {plain} B above its base, GraphLab {combined} B: over one \
         block per shard ({slack} B) more, so its round buffers hold unfolded envelopes"
    );
}
