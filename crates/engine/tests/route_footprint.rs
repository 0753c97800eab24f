//! Host-footprint guard for the round's message buffers: a round that
//! carries `N` messages holds about one shard-bucket entry and one inbox
//! entry per message, not the next power of two of each. Bytes, not
//! time — and its own test binary, because the counting allocator must
//! be the process's only one.

use mtvc_cluster::ClusterSpec;
use mtvc_engine::{
    Context, Delivery, EngineConfig, Message, Runner, SlabProgram, SlabRow, SlabRowMut, StateSlab,
    SystemProfile,
};
use mtvc_graph::partition::RangePartitioner;
use mtvc_graph::{generators, VertexId};
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

/// Width-`lanes` flood out of the hub of a star: the hub sends every
/// lane to every leaf in round 0, and leaves only record what they
/// hear, so the run is one big round of `lanes × leaves` messages.
struct StarFlood {
    lanes: usize,
}

#[derive(Clone, Debug)]
struct Lane {
    lane: u16,
    dist: u64,
}

impl Message for Lane {
    fn combine_key(&self) -> Option<u64> {
        None
    }
    fn merge(&mut self, _other: &Self) {}
}

const WORKERS: usize = 4;
const LANES: usize = 32;
/// Vertices per worker under the range partition. Worker 0 holds the
/// hub and 1 024 leaves, the others 1 025 leaves each, so at W = 32 the
/// hub's shards and the inboxes carry 2^15 messages to worker 0 and
/// 2^15 + 32 to every other: just past a power of two, where doubling
/// growth would hold twice what the round needs.
const PER_WORKER: usize = 1_025;
/// Entries per shard-bucket block in the router.
const BLOCK: u64 = 1_024;

impl SlabProgram for StarFlood {
    type Message = Lane;
    type Cell = u64;
    type Out = u64;

    fn width(&self) -> usize {
        self.lanes
    }
    fn empty_cell(&self) -> u64 {
        u64::MAX
    }
    fn message_bytes(&self) -> u64 {
        12
    }
    fn seeds(&self) -> Option<&[VertexId]> {
        Some(&[0])
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Lane>) {
        if v != 0 {
            return;
        }
        for q in 0..self.lanes {
            row.relax_min(q, 0);
        }
        row.drain(|q, _| {
            for &t in ctx.neighbors() {
                let lane = q as u16;
                ctx.send(t, Lane { lane, dist: 1 }, 1);
            }
        });
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Lane>],
        _ctx: &mut Context<'_, Lane>,
    ) {
        for d in inbox {
            row.relax_min(d.msg.lane as usize, d.msg.dist);
        }
        row.drain(|_, _| {});
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> u64 {
        row.written().filter(|&(_, d)| d != u64::MAX).count() as u64
    }
}

#[test]
fn round_buffers_hold_the_traffic_not_its_next_doubling() {
    let n = WORKERS * PER_WORKER;
    let g = generators::star(n);
    let cfg = EngineConfig::new(
        ClusterSpec::galaxy(WORKERS),
        SystemProfile::base("footprint"),
    );
    let runner = Runner::new(&g, &RangePartitioner, cfg);

    // Two batches of one job: the second, one lane wider, reuses the
    // round buffers the first parked, so every inbox meets the wide
    // round already holding 31/32 of its traffic — where growth by
    // doubling would take it to 62/32.
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let narrow = runner.run_slab(&StarFlood { lanes: LANES - 1 });
    assert!(narrow.outcome.is_completed());
    drop(narrow);
    let run = runner.run_slab(&StarFlood { lanes: LANES });
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert!(run.outcome.is_completed());
    let msgs = (LANES * (n - 1)) as u64;
    assert_eq!(run.stats.total_messages_delivered, msgs);
    assert_eq!(run.stats.per_round[0].messages_delivered, msgs, "one round");
    assert!(run.states[1..].iter().all(|&lanes| lanes == LANES as u64));

    // Each message sits once in a shard bucket (a delivery and its `u32`
    // local index) and once in its inbox.
    let delivery = std::mem::size_of::<Delivery<Lane>>() as u64;
    let traffic = (2 * delivery + 4) * msgs;
    // Spare capacity: under one bucket block per (source, destination)
    // shard.
    let blocks = (WORKERS * WORKERS) as u64 * BLOCK * (delivery + 4);
    // The dense slab every row is written into, plus one `u32` table
    // entry per word (a W = 32 row is one word).
    let slab = StateSlab::<u64>::capacity_bytes(n, LANES) + 4 * n as u64;
    // Per-vertex indices: one `u32` histogram slot per shard per
    // destination vertex, the merge's `u32` offsets and active list, a
    // 12-byte run, and the extracted outputs (sparse, then dense).
    let per_vertex = 4 * WORKERS as u64 + 4 + 8 + 12 + 48;
    let bound = traffic + blocks + slab + per_vertex * n as u64;
    assert!(
        peak <= bound,
        "a round of {msgs} messages peaked {peak} B above its base, over {bound} B \
         ({traffic} B of traffic + {blocks} B of block slack + {slab} B of slab)"
    );
}
