//! Property tests for the dense-slab task kernels: across random
//! graphs, batch widths, worker counts, and combining on/off, the slab
//! programs must (a) agree with the exact sequential oracles and
//! (b) be bit-identical to the hash-map baseline programs — same
//! per-vertex results, same message traffic, same RNG consumption.

use mtvc_cluster::{ClusterSpec, FaultPlan};
use mtvc_engine::{
    Context, Delivery, EngineConfig, ExecutionMode, OocConfig, PagingConfig, RunResult, Runner,
    SlabProgram, SlabRow, SlabRowMut, SystemProfile,
};
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, reference as gref, Graph, VertexId};
use mtvc_metrics::{Bytes, RunStats, SimTime};
use mtvc_tasks::bkhs::BkhsState;
use mtvc_tasks::bppr::{BpprState, PushState};
use mtvc_tasks::{
    lane_distances_fit, BkhsBroadcastSlabProgram, BkhsLaneSlabProgram, BkhsSlabProgram,
    BpprPushSlabProgram, BpprSlabProgram, ConnectedComponentsProgram, MsspBroadcastSlabProgram,
    MsspLaneSlabProgram, MsspSlabProgram, PageRankProgram, SourceIndex, SourceSet,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

fn roomy_config(machines: usize, seed: u64, combine: bool) -> EngineConfig {
    let mut cfg = EngineConfig::new(ClusterSpec::galaxy(machines), SystemProfile::base("prop"));
    cfg.cutoff = SimTime::secs(1.0e12);
    cfg.seed = seed;
    cfg.profile.combiner = combine;
    cfg
}

fn broadcast_config(machines: usize, seed: u64, combine: bool) -> EngineConfig {
    let mut cfg = roomy_config(machines, seed, combine);
    cfg.profile.mode = ExecutionMode::Broadcast {
        mirror_threshold: 8,
    };
    cfg
}

fn runner<'g>(g: &'g Graph, cfg: EngineConfig) -> Runner<'g> {
    Runner::new(g, &HashPartitioner::default(), cfg)
}

fn completed<S>(r: &RunResult<S>) {
    assert!(r.outcome.is_completed(), "must complete: {:?}", r.outcome);
}

/// Deterministic pseudo-random sources, duplicates allowed (duplicate
/// start vertices are distinct unit tasks and must stay distinct).
fn pick_sources(n: usize, width: usize, seed: u64) -> Vec<VertexId> {
    (0..width)
        .map(|q| (mtvc_graph::hash::mix64(seed ^ q as u64) % n as u64) as VertexId)
        .collect()
}

/// Batch widths the lane-vs-scalar properties sweep: one query, and
/// both sides of one and of several `LANES`-wide chunks.
const LANE_WIDTHS: [usize; 5] = [1, 7, 8, 9, 64];

/// The lane kernels' contract with the cost model, checked at every
/// cell of combiner off/on × point-to-point/mirrored: a lane run
/// extracts the scalar run's states bit for bit and reports its
/// statistics in every field but the envelope-copy counters (fewer,
/// fatter envelopes are the point of the kernel).
fn assert_lane_matches_scalar<S, L>(
    g: &Graph,
    workers: usize,
    seed: u64,
    scalar: &S,
    lane: &L,
) -> Result<(), TestCaseError>
where
    S: SlabProgram,
    L: SlabProgram<Out = S::Out>,
    S::Out: PartialEq + std::fmt::Debug,
{
    let sans_copies = |stats: &RunStats| {
        let mut stats = stats.clone();
        stats.total_shard_copy_bytes = Bytes::ZERO;
        for round in &mut stats.per_round {
            round.shard_copy_bytes = Bytes::ZERO;
        }
        stats
    };
    for (combine, mirror) in [(false, false), (true, false), (false, true), (true, true)] {
        let cfg = if mirror {
            broadcast_config(workers, seed, combine)
        } else {
            roomy_config(workers, seed, combine)
        };
        let cell = format!("combine={combine} mirror={mirror}");
        let scalar = runner(g, cfg.clone()).run_slab(scalar);
        let lane = runner(g, cfg).run_slab(lane);
        completed(&scalar);
        completed(&lane);
        prop_assert_eq!(&lane.states, &scalar.states, "{}", cell);
        prop_assert_eq!(
            sans_copies(&lane.stats),
            sans_copies(&scalar.stats),
            "{}",
            cell
        );
    }
    Ok(())
}

/// `P` observed from outside: counts what a batch's fixed steps cost
/// (`init` calls, `extract` calls, the cells extraction was shown) and,
/// when `full_scan` is set, withholds `P`'s seed list so round 0 calls
/// `init` on every vertex — the scan the seed list replaces.
struct Probe<P> {
    inner: P,
    full_scan: bool,
    inits: AtomicU64,
    extracts: AtomicU64,
    cells_shown: AtomicU64,
}

impl<P> Probe<P> {
    fn new(inner: P, full_scan: bool) -> Self {
        Probe {
            inner,
            full_scan,
            inits: AtomicU64::new(0),
            extracts: AtomicU64::new(0),
            cells_shown: AtomicU64::new(0),
        }
    }
}

impl<P: SlabProgram> SlabProgram for Probe<P> {
    type Message = P::Message;
    type Cell = P::Cell;
    type Out = P::Out;

    fn width(&self) -> usize {
        self.inner.width()
    }
    fn empty_cell(&self) -> P::Cell {
        self.inner.empty_cell()
    }
    fn message_bytes(&self) -> u64 {
        self.inner.message_bytes()
    }
    fn seeds(&self) -> Option<&[VertexId]> {
        self.inner.seeds().filter(|_| !self.full_scan)
    }
    fn init(&self, v: VertexId, row: SlabRowMut<'_, P::Cell>, ctx: &mut Context<'_, P::Message>) {
        self.inits.fetch_add(1, Relaxed);
        self.inner.init(v, row, ctx);
    }
    fn compute(
        &self,
        v: VertexId,
        row: SlabRowMut<'_, P::Cell>,
        inbox: &[Delivery<P::Message>],
        ctx: &mut Context<'_, P::Message>,
    ) {
        self.inner.compute(v, row, inbox, ctx);
    }
    fn extract(&self, v: VertexId, row: SlabRow<'_, P::Cell>) -> P::Out {
        self.extracts.fetch_add(1, Relaxed);
        self.cells_shown
            .fetch_add(row.written().count() as u64, Relaxed);
        self.inner.extract(v, row)
    }
    fn max_rounds(&self) -> Option<usize> {
        self.inner.max_rounds()
    }
}

/// Where a seeded-round-0 cell keeps its adjacency.
#[derive(Debug, Clone, Copy)]
enum Storage {
    Resident,
    Mirrored,
    Paged,
}

/// Naming the seed vertices must change nothing a run reports: whole
/// `RunStats` (fault ledger included) and dense states of `program`
/// equal those of the same program scanning every vertex at round 0,
/// at every cell of combiner × resident/mirrored/paged × fault-free/
/// rollback with a checkpoint every 2 rounds.
fn assert_seeded_equals_full_scan<P>(
    g: &Graph,
    workers: usize,
    seed: u64,
    program: P,
) -> Result<(), TestCaseError>
where
    P: SlabProgram,
    P::Out: PartialEq + std::fmt::Debug,
{
    prop_assert!(program.seeds().is_some(), "the kernel must name its seeds");
    let full = Probe::new(program, true);
    let storages = [Storage::Resident, Storage::Mirrored, Storage::Paged];
    let on_off = [false, true];
    for storage in storages {
        for (combine, faults) in on_off.iter().flat_map(|&a| on_off.map(|b| (a, b))) {
            let mut cfg = match storage {
                Storage::Mirrored => broadcast_config(workers, seed, combine),
                _ => roomy_config(workers, seed, combine),
            };
            if let Storage::Paged = storage {
                cfg.profile.out_of_core = Some(OocConfig {
                    message_budget: Bytes::new(512),
                    paging: PagingConfig {
                        budget: Bytes::new(1024),
                        partition_bytes: Bytes::new(256),
                    },
                });
            }
            if faults {
                cfg = cfg.with_checkpoint_every(2).with_faults(FaultPlan::random(
                    seed ^ 0x5EED,
                    workers,
                    4,
                    2,
                    1,
                ));
            }
            let cell = format!("{storage:?} combine={combine} faults={faults}");
            let seeded = runner(g, cfg.clone()).run_slab(&full.inner);
            let scanned = runner(g, cfg).run_slab(&full);
            completed(&seeded);
            prop_assert_eq!(&seeded.outcome, &scanned.outcome, "{}", cell);
            prop_assert_eq!(&seeded.stats, &scanned.stats, "{}", cell);
            prop_assert_eq!(&seeded.states, &scanned.states, "{}", cell);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded round 0 ≡ the all-vertices round 0, for every MSSP/BKHS
    /// slab kernel (row, lane, broadcast), with source lists that
    /// repeat a vertex and with one whose sources all live on a single
    /// worker (every other worker's seed list is empty).
    #[test]
    fn seeded_round0_equals_full_scan(
        n in 20usize..70,
        k in 1u32..4,
        workers in 2usize..5,
        seed in any::<u64>(),
    ) {
        let base = generators::power_law(n, n * 4, 2.3, seed);
        let g = generators::with_random_weights(&base, 1, 9, seed ^ 3);
        // Nine picks, the first repeated twice more: duplicates on one
        // vertex, and a width on the far side of one lane chunk.
        let mut scattered = pick_sources(n, 9, seed ^ 31);
        scattered.extend([scattered[0], scattered[0]]);
        // Every source on worker 0 (the runner's partition).
        let owned = HashPartitioner::default().partition(&g, workers).worker_vertices();
        let one_worker: Vec<VertexId> = owned[0].iter().copied().take(3).collect();
        for sources in [scattered, one_worker] {
            if sources.is_empty() {
                continue;
            }
            assert_seeded_equals_full_scan(&g, workers, seed, MsspSlabProgram::new(sources.clone()))?;
            assert_seeded_equals_full_scan(&g, workers, seed, MsspLaneSlabProgram::new(sources.clone()))?;
            assert_seeded_equals_full_scan(&g, workers, seed, MsspBroadcastSlabProgram::new(sources.clone()))?;
            assert_seeded_equals_full_scan(&g, workers, seed, BkhsSlabProgram::new(sources.clone(), k))?;
            assert_seeded_equals_full_scan(&g, workers, seed, BkhsLaneSlabProgram::new(sources.clone(), k))?;
            assert_seeded_equals_full_scan(&g, workers, seed, BkhsBroadcastSlabProgram::new(sources, k))?;
        }
    }
}

/// Every query's reach set in `run` is its source's k-hop set.
fn assert_reach_sets_are_k_hop_sets(
    g: &Graph,
    sources: &[VertexId],
    k: u32,
    run: &RunResult<BkhsState>,
) -> Result<(), TestCaseError> {
    completed(run);
    for (q, &s) in sources.iter().enumerate() {
        let mut want = gref::k_hop_set(g, s, k);
        want.sort_unstable();
        let got: Vec<VertexId> = g
            .vertices()
            .filter(|&v| run.states[v as usize].reached.contains(&(q as u32)))
            .collect();
        prop_assert_eq!(got, want, "q={} s={}", q, s);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Slab MSSP == Dijkstra.
    #[test]
    fn slab_mssp_matches_dijkstra(
        n in 20usize..110,
        width in 1usize..10,
        workers in 1usize..5,
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let base = generators::power_law(n, n * 4, 2.3, seed);
        let g = generators::with_random_weights(&base, 1, 9, seed ^ 3);
        let sources = pick_sources(n, width, seed ^ 7);

        let slab = runner(&g, roomy_config(workers, seed, combine))
            .run_slab(&MsspSlabProgram::new(sources.clone()));
        completed(&slab);
        // Oracle: per-query Dijkstra.
        for (q, &s) in sources.iter().enumerate() {
            let want = gref::dijkstra(&g, s);
            for v in g.vertices() {
                let got = slab.states[v as usize].dist.get(&(q as u32)).copied();
                let expect = (want[v as usize] != u64::MAX).then(|| want[v as usize]);
                prop_assert_eq!(got, expect, "q={} s={} v={}", q, s, v);
            }
        }
    }

    /// Lane-batched MSSP (chunked envelopes, `relax_min_lanes`) must be
    /// indistinguishable from the scalar slab kernel in everything but
    /// envelope copies (see `assert_lane_matches_scalar`) at every width
    /// on and off the `LANES` boundary: with small weights, and with
    /// weights that put `n × max_weight` in `[2³¹, u32::MAX)`. On a
    /// directed ring, whose far end lies `n - 1` heavy hops away, such
    /// weights set the top bit of the 32-bit lanes.
    #[test]
    fn lane_mssp_matches_scalar_slab(
        n in 20usize..110,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let power = generators::power_law(n, n * 4, 2.3, seed);
        let ring = generators::ring(n, false);
        let heavy = ((1u32 << 31) / n as u32 + 1, (u32::MAX - 1) / n as u32);
        let cases = [(&power, (1, 9), false), (&power, heavy, false), (&ring, heavy, true)];
        for (base, (lo, hi), top_bit) in cases {
            let g = generators::with_random_weights(base, lo, hi, seed ^ 3);
            prop_assert!(lane_distances_fit(&g), "n={} hi={}", n, hi);
            if top_bit {
                let far = gref::dijkstra(&g, 0).into_iter().max();
                prop_assert!(far >= Some(1 << 31), "{:?}", far);
            }
            for width in LANE_WIDTHS {
                let sources = pick_sources(n, width, seed ^ 7);
                assert_lane_matches_scalar(
                    &g,
                    workers,
                    seed,
                    &MsspSlabProgram::new(sources.clone()),
                    &MsspLaneSlabProgram::new(sources),
                )?;
            }
        }
    }

    /// Lane-batched BKHS (`ReachLanesMsg`, `absorb_lanes`) must reach
    /// exactly the same (query, vertex) pairs as the scalar slab kernel
    /// with equal statistics (see `assert_lane_matches_scalar`) at
    /// every width on and off the `LANES` boundary.
    #[test]
    fn lane_bkhs_matches_scalar_slab(
        n in 20usize..100,
        k in 1u32..5,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        for width in LANE_WIDTHS {
            let sources = pick_sources(n, width, seed ^ 13);
            assert_lane_matches_scalar(
                &g,
                workers,
                seed,
                &BkhsSlabProgram::new(sources.clone(), k),
                &BkhsLaneSlabProgram::new(sources, k),
            )?;
        }
    }

    /// Slab broadcast MSSP == BFS hop levels.
    #[test]
    fn slab_mssp_broadcast_matches_bfs(
        n in 20usize..100,
        width in 1usize..8,
        workers in 1usize..5,
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = pick_sources(n, width, seed ^ 11);
        let slab = runner(&g, broadcast_config(workers, seed, combine))
            .run_slab(&MsspBroadcastSlabProgram::new(sources.clone()));
        completed(&slab);
        for (q, &s) in sources.iter().enumerate() {
            let want = gref::bfs_levels(&g, s);
            for v in g.vertices() {
                let got = slab.states[v as usize].dist.get(&(q as u32)).copied();
                let expect = (want[v as usize] != u32::MAX).then(|| want[v as usize] as u64);
                prop_assert_eq!(got, expect, "q={} s={} v={}", q, s, v);
            }
        }
    }

    /// Slab BKHS == reference k-hop sets.
    #[test]
    fn slab_bkhs_matches_k_hop_sets(
        n in 20usize..100,
        width in 1usize..8,
        k in 1u32..5,
        workers in 1usize..5,
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = pick_sources(n, width, seed ^ 13);
        let slab = runner(&g, roomy_config(workers, seed, combine))
            .run_slab(&BkhsSlabProgram::new(sources.clone(), k));
        assert_reach_sets_are_k_hop_sets(&g, &sources, k, &slab)?;
    }

    /// Broadcast slab BKHS — the kernel every Pregel+(mirror) BKHS batch
    /// runs — == reference k-hop sets, mirrored or not.
    #[test]
    fn slab_bkhs_broadcast_matches_k_hop_sets(
        n in 20usize..100,
        width in 1usize..8,
        k in 1u32..5,
        workers in 1usize..5,
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = pick_sources(n, width, seed ^ 31);
        let slab = runner(&g, broadcast_config(workers, seed, combine))
            .run_slab(&BkhsBroadcastSlabProgram::new(sources.clone(), k));
        assert_reach_sets_are_k_hop_sets(&g, &sources, k, &slab)?;
    }

    /// Slab Monte-Carlo BPPR conserves walks per source: every walk a
    /// source injects stops somewhere, and only the sources stop any.
    #[test]
    fn slab_bppr_mc_conserves_walks_per_source(
        n in 20usize..90,
        walks in 1u64..40,
        workers in 1usize..5,
        subset in any::<bool>(),
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.3, seed);
        let sources = if subset {
            SourceSet::subset(pick_sources(n, 5, seed ^ 17))
        } else {
            SourceSet::AllVertices
        };
        let slab = runner(&g, roomy_config(workers, seed, combine)).run_slab(
            &BpprSlabProgram::new(walks, 0.2, n).with_sources(sources.clone()),
        );
        completed(&slab);
        let mut stopped = vec![0u64; n];
        for (s, &count) in slab.states.iter().flat_map(|st: &BpprState| &st.stops) {
            prop_assert!(sources.contains(*s), "walk from non-source {}", s);
            stopped[*s as usize] += count;
        }
        for s in g.vertices().filter(|&s| sources.contains(s)) {
            prop_assert_eq!(stopped[s as usize], walks, "source {}", s);
        }
    }

    /// Slab forward-push BPPR conserves mass per source: every source's
    /// injected walk mass is absorbed somewhere, to within rounding.
    #[test]
    fn slab_bppr_push_conserves_mass_per_source(
        n in 20usize..90,
        walks in 1u64..200,
        workers in 1usize..5,
        subset in any::<bool>(),
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.3, seed);
        let sources = if subset {
            SourceSet::subset(pick_sources(n, 5, seed ^ 19))
        } else {
            SourceSet::AllVertices
        };
        let slab = runner(&g, broadcast_config(workers, seed, combine)).run_slab(
            &BpprPushSlabProgram::new(walks, 0.2, n).with_sources(sources.clone()),
        );
        completed(&slab);
        let mut mass = vec![0.0f64; n];
        for (s, &m) in slab.states.iter().flat_map(|st: &PushState| &st.mass) {
            prop_assert!(sources.contains(*s), "mass from non-source {}", s);
            mass[*s as usize] += m;
        }
        let injected = walks as f64;
        for s in g.vertices().filter(|&s| sources.contains(s)) {
            let m = mass[s as usize];
            prop_assert!(
                (m - injected).abs() < 1e-6 * injected,
                "source {}: mass {} vs injected {}", s, m, injected
            );
        }
    }

    /// Batch slicing: running the query pool as two batches over one
    /// shared job-wide SourceIndex covers exactly the same (query,
    /// vertex) results as one full-width batch, after remapping the
    /// second batch's local ids.
    #[test]
    fn sliced_batches_cover_the_full_pool(
        n in 20usize..90,
        width in 2usize..10,
        split in 1usize..9,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let split = split.min(width - 1);
        let base = generators::power_law(n, n * 4, 2.3, seed);
        let g = generators::with_random_weights(&base, 1, 9, seed ^ 23);
        let sources = pick_sources(n, width, seed ^ 29);
        let index = SourceIndex::shared(sources.clone());

        let full = runner(&g, roomy_config(workers, seed, true))
            .run_slab(&MsspSlabProgram::new(sources));
        completed(&full);
        let first = runner(&g, roomy_config(workers, seed, true))
            .run_slab(&MsspSlabProgram::batch(Arc::clone(&index), 0..split));
        let second = runner(&g, roomy_config(workers, seed, true))
            .run_slab(&MsspSlabProgram::batch(index, split..width));
        completed(&first);
        completed(&second);

        for v in g.vertices() {
            let mut merged = first.states[v as usize].dist.clone();
            for (&q, &d) in &second.states[v as usize].dist {
                merged.insert(q + split as u32, d);
            }
            prop_assert_eq!(&merged, &full.states[v as usize].dist, "v={}", v);
        }
    }
}

/// Extraction contract of the sparse slab lifecycle: the runner never
/// extracts a row no mutator touched and fills its output with
/// `Out::default()`, so that is what `extract` must return for one.
fn assert_unwritten_row_is_default<P>(program: &P)
where
    P: SlabProgram,
    P::Out: PartialEq + std::fmt::Debug,
{
    assert_eq!(program.extract(0, SlabRow::unwritten()), P::Out::default());
}

#[test]
fn unwritten_rows_extract_to_the_default_output() {
    let sources: Vec<VertexId> = vec![3, 9, 3, 70, 1, 2, 4, 5, 6];
    assert_unwritten_row_is_default(&MsspSlabProgram::new(sources.clone()));
    assert_unwritten_row_is_default(&MsspLaneSlabProgram::new(sources.clone()));
    assert_unwritten_row_is_default(&MsspBroadcastSlabProgram::new(sources.clone()));
    assert_unwritten_row_is_default(&BkhsSlabProgram::new(sources.clone(), 2));
    assert_unwritten_row_is_default(&BkhsLaneSlabProgram::new(sources.clone(), 2));
    assert_unwritten_row_is_default(&BkhsBroadcastSlabProgram::new(sources.clone(), 2));
    assert_unwritten_row_is_default(&PageRankProgram::default());
    assert_unwritten_row_is_default(&ConnectedComponentsProgram);
    for set in [SourceSet::AllVertices, SourceSet::subset(sources)] {
        assert_unwritten_row_is_default(
            &BpprSlabProgram::new(4, 0.2, 100).with_sources(set.clone()),
        );
        assert_unwritten_row_is_default(&BpprPushSlabProgram::new(4, 0.2, 100).with_sources(set));
    }
}

/// Cost guard, in counts so it cannot flake: a narrow batch's fixed
/// steps are proportional to what it touches, not to the graph. A
/// one-query BKHS batch on 20 000 vertices initializes its one source
/// and extracts exactly the rows of its k-hop ball; a one-walk BPPR
/// batch, whose rows are as wide as the graph, is shown at most the
/// 64-cell words holding a stopped walk.
#[test]
fn narrow_batches_cost_what_they_touch() {
    let g = generators::power_law(20_000, 80_000, 2.4, 11);
    for sources in [vec![15_017], vec![15_017, 19_242, 15_017]] {
        let distinct = if sources.len() == 1 { 1 } else { 2 };
        let bkhs = Probe::new(BkhsSlabProgram::new(sources, 2), false);
        let r = runner(&g, roomy_config(4, 7, false)).run_slab(&bkhs);
        completed(&r);
        let reached = r.states.iter().filter(|st| !st.reached.is_empty()).count() as u64;
        assert!(reached > 1 && reached < 20_000 / 2, "{reached}");
        assert_eq!(
            bkhs.inits.load(Relaxed),
            distinct,
            "one init per distinct source"
        );
        assert_eq!(
            bkhs.extracts.load(Relaxed),
            reached,
            "one extract per written row"
        );
    }

    let n = 1_500;
    let g = generators::power_law(n, n * 4, 2.4, 13);
    let bppr = Probe::new(BpprSlabProgram::new(1, 0.2, n), false);
    let r = runner(&g, roomy_config(4, 7, false)).run_slab(&bppr);
    completed(&r);
    let stopped: u64 = r.states.iter().flat_map(|st| st.stops.values()).sum();
    assert_eq!(stopped, n as u64, "every walk stops somewhere");
    assert_eq!(
        bppr.inits.load(Relaxed),
        n as u64,
        "every vertex is a source"
    );
    let shown = bppr.cells_shown.load(Relaxed);
    assert!(
        shown < 64 * stopped,
        "extraction was shown {shown} cells for {stopped} stopped walks ({} in the slab)",
        n * n
    );
}
