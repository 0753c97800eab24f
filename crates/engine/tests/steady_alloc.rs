//! Steady-state allocation guard for the real round path: once a
//! [`SlabRecycler`] is warm, what `Runner::run_slab_recycled` allocates
//! per *additional* round is a small constant per worker, whatever the
//! batch width. A count, not a time — and its own test binary, because
//! the counting allocator must be the process's only one.

use mtvc_cluster::ClusterSpec;
use mtvc_engine::{
    Context, Delivery, EngineConfig, Message, Runner, SlabProgram, SlabRecycler, SlabRow,
    SlabRowMut, SystemProfile,
};
use mtvc_graph::partition::HashPartitioner;
use mtvc_graph::{generators, VertexId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every byte requested (frees are not subtracted: the guard is
/// on churn, which is what buffer recycling removes).
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Width-`lanes` hop sweep: every lane starts at vertex 0, so on a
/// directed ring exactly one vertex is active per round and it emits
/// `lanes` messages — the same traffic every round, for as many rounds
/// as the ring is long.
struct HopSweep {
    lanes: usize,
}

#[derive(Clone, Debug)]
struct Hop {
    lane: u16,
    dist: u64,
}

impl Message for Hop {
    fn combine_key(&self) -> Option<u64> {
        Some(u64::from(self.lane))
    }
    fn merge(&mut self, other: &Self) {
        self.dist = self.dist.min(other.dist);
    }
}

impl SlabProgram for HopSweep {
    type Message = Hop;
    type Cell = u64;
    /// Lanes that reached the vertex (no per-vertex heap output, so
    /// extraction cannot hide a width-proportional allocation).
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

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Hop>) {
        if v != 0 {
            return;
        }
        for q in 0..self.lanes {
            row.relax_min(q, 0);
        }
        row.drain(|q, _| forward(ctx, q, 1));
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Hop>],
        ctx: &mut Context<'_, Hop>,
    ) {
        for d in inbox {
            row.relax_min(d.msg.lane as usize, d.msg.dist);
        }
        row.drain(|q, dist| forward(ctx, q, *dist + 1));
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> u64 {
        row.written().filter(|&(_, d)| d != u64::MAX).count() as u64
    }
}

fn forward(ctx: &mut Context<'_, Hop>, lane: usize, dist: u64) {
    for &t in ctx.neighbors() {
        ctx.send(
            t,
            Hop {
                lane: lane as u16,
                dist,
            },
            1,
        );
    }
}

const WORKERS: usize = 4;
const RING: usize = 512;

/// `(rounds, bytes allocated)` of one `run_slab_recycled` over a
/// directed ring of `len` vertices, once a warm-up run has pooled the
/// worker slabs at their final capacity.
fn measured_run(len: usize, lanes: usize) -> (u64, u64) {
    let g = generators::ring(len, false);
    let cfg = EngineConfig::new(ClusterSpec::galaxy(WORKERS), SystemProfile::base("steady"));
    let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
    let program = HopSweep { lanes };
    let recycler: SlabRecycler<u64> = SlabRecycler::new();
    let warm = runner.run_slab_recycled(&program, &recycler);
    assert!(warm.outcome.is_completed());
    assert_eq!(recycler.pooled(), WORKERS, "warm-up must pool every slab");

    let before = ALLOCATED.load(Ordering::Relaxed);
    let run = runner.run_slab_recycled(&program, &recycler);
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(run.stats, warm.stats, "recycled run must be deterministic");
    assert!(run.states.iter().all(|&reached| reached == lanes as u64));
    (run.stats.rounds as u64, bytes)
}

/// Bytes allocated per round the longer ring adds. Both rings carry the
/// same traffic per round, so the difference is the price of a round
/// (plus the per-vertex output and statistics rows that grow with it).
fn bytes_per_extra_round(lanes: usize) -> u64 {
    let (short_rounds, short_bytes) = measured_run(RING, lanes);
    let (long_rounds, long_bytes) = measured_run(2 * RING, lanes);
    assert_eq!(long_rounds - short_rounds, RING as u64);
    (long_bytes - short_bytes) / (long_rounds - short_rounds)
}

#[test]
fn extra_rounds_allocate_a_small_constant_per_worker_at_any_width() {
    let narrow = bytes_per_extra_round(1);
    let wide = bytes_per_extra_round(64);
    // Measured at commit bf41479 with 4 workers: 688 B per extra round
    // at W = 1 and at W = 64 alike — nine 32-byte vectors (one `u64`
    // per worker), the round's `RoundStats` row (doubling growth, so
    // 2 × 176 B) and one dense output cell. Width only adds a one-off
    // 40 KB of buffer high-water per run, which the subtraction cancels.
    const PER_WORKER: u64 = 256;
    for (width, bytes) in [(1, narrow), (64, wide)] {
        assert!(
            bytes <= PER_WORKER * WORKERS as u64,
            "W={width}: {bytes} B per extra round"
        );
    }
    assert!(
        wide <= narrow,
        "a round's allocation grew with batch width: {narrow} B at W=1, {wide} B at W=64"
    );
}
