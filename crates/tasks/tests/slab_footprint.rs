//! Host-footprint guard for the state slab: an all-sources BPPR batch
//! holds the words its walks wrote, not `n × n` cells — counted block
//! by block, with no more than one partly filled chunk of slack per
//! worker — and a batch that writes every word holds no more than the
//! dense layout plus the block table. Bytes, not time — and its own
//! test binary, because the counting allocator must be the process's
//! only one.

use mtvc_cluster::ClusterSpec;
use mtvc_engine::{EngineConfig, Runner, SlabRecycler, StateSlab, SystemProfile};
use mtvc_graph::partition::HashPartitioner;
use mtvc_graph::{generators, Graph, VertexId};
use mtvc_tasks::{BpprSlabProgram, MsspSlabProgram};
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

/// Blocks per slab chunk.
const CHUNK: u64 = 128;

fn runner(g: &Graph, machines: usize) -> Runner<'_> {
    let cfg = EngineConfig::new(
        ClusterSpec::galaxy(machines),
        SystemProfile::base("footprint"),
    );
    Runner::new(g, &HashPartitioner::default(), cfg)
}

#[test]
fn slab_host_bytes_follow_the_words_a_batch_writes() {
    // All-sources BPPR, one walk per source: the slab is n × n cells,
    // of which the walks' stops write a few per row.
    const N: usize = 2_000;
    let g = generators::power_law(N, 8_000, 2.4, 7);
    let runner4 = runner(&g, 4);
    let bppr = BpprSlabProgram::new(1, 0.2, N);
    let recycler = SlabRecycler::new();
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let (outcome, _, stops) =
        runner4.run_slab_fold(&bppr, &recycler, |row| row.written().map(|(_, c)| c).sum());
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(outcome.is_completed());
    let walks: u64 = stops.iter().sum();
    assert_eq!(walks, N as u64, "every walk stops exactly once");
    let dense = (N * N * 8) as u64;
    assert!(
        peak < dense / 8,
        "an all-sources BPPR batch peaked {peak} B above its base; the dense slab is {dense} B"
    );

    // Counted: on two workers, each slab holds its written blocks, the
    // table, the bitmap and at most one partly filled chunk. At this size
    // every worker writes just past 2^10 blocks, where a store that grew
    // by doubling would hold 2^11.
    const M: usize = 2_176;
    let g = generators::power_law(M, 4 * M, 2.4, 7);
    let runner2 = runner(&g, 2);
    let bppr = BpprSlabProgram::new(1, 0.2, M);
    let recycler = SlabRecycler::new();
    // One block per written word; its first cell is a multiple of 64.
    let (outcome, _, blocks) = runner2.run_slab_fold(&bppr, &recycler, |row| {
        row.written().filter(|(q, _)| q % 64 == 0).count() as u64
    });
    assert!(outcome.is_completed());
    assert!(
        blocks
            .iter()
            .all(|&b| (1 << 10) < b && b < (1 << 10) + CHUNK),
        "every worker should write just past 2^10 blocks: {blocks:?}"
    );
    let held = live();
    drop(recycler);
    let slab = held - live();
    // A block is 64 `u64` cells and one frontier word.
    let block = 64 * 8 + 8;
    let written: u64 = blocks.iter().sum();
    // Per word, over both workers' rows: a `u32` table entry, and a
    // bitmap bit in whole `u64`s per worker. A row of M cells has
    // ⌈M/64⌉ words.
    let words = M as u64 * (M as u64).div_ceil(64);
    let table = words * 4 + (words / 64 + 2) * 8;
    // The chunk list: under 64 B per chunk, growth included.
    let chunk_list: u64 = blocks.iter().map(|b| b.div_ceil(CHUNK) * 64).sum();
    let bound = written * block + table + chunk_list + 2 * CHUNK * block;
    assert!(
        slab <= bound,
        "two slabs with {written} written blocks hold {slab} B, over blocks + table + \
         bitmap + one chunk per worker = {bound} B"
    );

    // W = 8 MSSP over a connected grid on one worker writes every word:
    // 2 070 rows, just past 2 048, where a store that grew by doubling
    // would hold 4 096 blocks.
    let grid = generators::grid(45, 46);
    let rows = grid.num_vertices();
    let runner1 = runner(&grid, 1);
    let sources: Vec<VertexId> = (0..8).map(|i| i * 251).collect();
    let mssp = MsspSlabProgram::new(sources);
    let recycler = SlabRecycler::new();
    let (outcome, _, written) = runner1.run_slab_fold(&mssp, &recycler, |_| 1);
    assert!(outcome.is_completed());
    assert_eq!(written, [rows as u64], "the flood reaches every row");
    let held = live();
    drop(recycler);
    let slab = held - live();
    // One table entry (`u32`) per word; a W = 8 row is one word.
    let table = (rows * 4) as u64;
    let bound = (StateSlab::<u64>::capacity_bytes(rows, 8) + table) * 11 / 10;
    assert!(
        slab <= bound,
        "a full W = 8 slab of {rows} rows holds {slab} B, over dense + table + 10 % = {bound} B"
    );
}
