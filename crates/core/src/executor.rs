//! The batch executor: sequential batches, shared residual memory.
//!
//! Batches run one after another on the same cluster; the intermediate
//! results of earlier batches stay resident ("the intermediate results
//! of the i-th batch have to be stored for final result aggregation" —
//! §5), which is the **residual memory** that §4.5 and §4.7 identify as
//! a first-order effect on the optimal batch scheme.

use crate::schedule::BatchSchedule;
use crate::task::{select_sources, Task};
use mtvc_cluster::{ClusterSpec, FaultPlan, MonetaryCost};
use mtvc_engine::{BatchParams, EngineConfig, Runner, SlabProgram, SlabRecycler, Topology, LANES};
use mtvc_graph::hash::mix64;
use mtvc_graph::{Graph, VertexId};
use mtvc_metrics::{Bytes, RunOutcome, RunStats, SimTime, OVERLOAD_CUTOFF};
use mtvc_systems::SystemKind;
use mtvc_tasks::{
    lane_distances_fit, BkhsBroadcastSlabProgram, BkhsLaneSlabProgram, BkhsSlabProgram,
    BpprPushSlabProgram, BpprSlabProgram, MsspBroadcastSlabProgram, MsspLaneSlabProgram,
    MsspSlabProgram, PushCell, SourceIndex,
};
use std::ops::Range;
use std::sync::Arc;

/// Slab pools shared by every batch of a job (or of a [`BatchRunner`]'s
/// lifetime): a finished batch returns its per-worker state slabs here
/// and the next batch re-shapes them: `reset` drops the previous
/// batch's blocks and keeps every buffer's capacity, so a batch that
/// writes no more words than an earlier one allocates no slab memory.
/// One pool per cell type; MSSP distance rows and BPPR walk counters
/// share the `u64` pool.
#[derive(Debug)]
struct BatchShared {
    words: SlabRecycler<u64>,
    flags: SlabRecycler<u8>,
    push: SlabRecycler<PushCell>,
}

impl Default for BatchShared {
    fn default() -> Self {
        BatchShared {
            words: SlabRecycler::new(),
            flags: SlabRecycler::new(),
            push: SlabRecycler::new(),
        }
    }
}

/// What every batch of a job shares, built once (by [`run_job`] or
/// [`BatchRunner::new`]) and borrowed by each batch's engine runner: the
/// partition's indexes and the part of the engine configuration that
/// does not change from batch to batch, and the worker pool the
/// topology holds for them. Seed, cutoff and residual memory travel
/// separately as [`BatchParams`].
#[derive(Debug, Clone)]
struct JobEngine {
    topology: Arc<Topology>,
    config: EngineConfig,
}

impl JobEngine {
    fn new(graph: &Graph, system: SystemKind, cluster: ClusterSpec) -> JobEngine {
        let partition = system.partitioner().partition(graph, cluster.machines);
        let profile = system.profile(&cluster.machine);
        let topology = Arc::new(Topology::build(graph, partition, &profile));
        JobEngine {
            topology,
            config: EngineConfig::new(cluster, profile),
        }
    }
}

/// Where a batch's source queries come from.
enum BatchSources<'a> {
    /// An ad-hoc slice (online serving: the caller forms batches).
    Slice(&'a [VertexId]),
    /// A contiguous query range of a job-wide index built once per job
    /// — batches slice it instead of rebuilding the vertex → query map.
    Indexed(Arc<SourceIndex>, Range<usize>),
}

impl BatchSources<'_> {
    fn resolve(self) -> (Arc<SourceIndex>, Range<usize>) {
        match self {
            BatchSources::Slice(s) => (SourceIndex::shared(s.to_vec()), 0..s.len()),
            BatchSources::Indexed(index, range) => (index, range),
        }
    }
}

/// Specification of one multi-processing job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub task: Task,
    pub system: SystemKind,
    pub cluster: ClusterSpec,
    pub schedule: BatchSchedule,
    pub seed: u64,
    /// Whole-job time cutoff (the paper's 6000 s).
    pub cutoff: SimTime,
}

impl JobSpec {
    pub fn new(
        task: Task,
        system: SystemKind,
        cluster: ClusterSpec,
        schedule: BatchSchedule,
    ) -> JobSpec {
        JobSpec {
            task,
            system,
            cluster,
            schedule,
            seed: 0x0B57,
            cutoff: OVERLOAD_CUTOFF,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Which slab kernel executed a batch.
///
/// For point-to-point MSSP and BKHS the executor picks by properties of
/// the input, not by a setting. A batch of at least [`LANES`] queries
/// runs the lane-batched kernel (one envelope per eight adjacent
/// queries), a narrower one the row kernel, which is faster there (a
/// lone query would ship seven dead lanes per envelope). MSSP's lanes
/// carry 32-bit distances, so on a graph past the
/// [`lane_distances_fit`] bound (`n × max_weight ≥ u32::MAX`) every
/// MSSP batch runs the row kernel, whatever its width. Every other
/// program runs its row kernel. Both kernels put the same payload units on the wire
/// and the router prices units, not envelopes, so under the shipped
/// system profiles every other field of [`RunStats`] except the
/// `shard_copy_bytes` counters is identical either way; this tag is
/// the only place the choice is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One message per `(query, edge)`.
    Row,
    /// One message per `(chunk of LANES queries, edge)`.
    Lane,
}

impl Kernel {
    /// The kernel for a point-to-point MSSP/BKHS batch of `width`
    /// queries whose lane messages can carry every value the batch
    /// sends (`lanes_fit`: always for BKHS's reach masks, and for MSSP
    /// on a graph where [`lane_distances_fit`]).
    fn choose(width: usize, lanes_fit: bool) -> Kernel {
        if width >= LANES && lanes_fit {
            Kernel::Lane
        } else {
            Kernel::Row
        }
    }
}

/// Outcome of one batch within a job.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    pub workload: u64,
    /// The slab kernel that ran this batch.
    pub kernel: Kernel,
    pub outcome: RunOutcome,
    pub time: SimTime,
    pub peak_memory: mtvc_metrics::Bytes,
    /// Total residual bytes across workers after this batch completed.
    pub residual_after: u64,
    /// Residual bytes on the most-loaded worker after this batch — the
    /// `M_r^*` quantity the §5 tuning model fits.
    pub residual_max_worker: u64,
}

/// Aggregate result of a multi-processing job.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub outcome: RunOutcome,
    pub stats: RunStats,
    pub per_batch: Vec<BatchOutcome>,
    pub cost: MonetaryCost,
}

impl JobResult {
    /// Simulated seconds to plot (cutoff height for failed runs, as the
    /// paper's figures do).
    pub fn plot_time(&self) -> SimTime {
        self.outcome.plot_time()
    }
}

/// Execute a multi-processing job batch by batch.
pub fn run_job(graph: &Graph, spec: &JobSpec) -> JobResult {
    let engine = JobEngine::new(graph, spec.system, spec.cluster.clone());
    run_job_on(graph, spec, &engine)
}

/// [`run_job`] on `engine`, built for `spec`'s system and cluster.
fn run_job_on(graph: &Graph, spec: &JobSpec, engine: &JobEngine) -> JobResult {
    assert_eq!(
        spec.schedule.total(),
        spec.task.workload(),
        "schedule total must equal the task workload"
    );
    assert!(
        spec.task.workload() <= spec.task.max_workload(graph),
        "workload exceeds the graph's capacity for this task"
    );

    // Source-based tasks: one global source pool, indexed once here and
    // sliced per batch so batches never repeat a unit task (and never
    // rebuild the vertex → query map).
    let source_pool = match spec.task {
        Task::Bppr { .. } => Vec::new(),
        Task::Mssp { num_sources } | Task::Bkhs { num_sources, .. } => {
            select_sources(graph, num_sources, spec.seed ^ 0xA5A5)
        }
    };
    let source_index = SourceIndex::shared(source_pool);
    let shared = BatchShared::default();

    let mut residual = vec![0u64; spec.cluster.machines];
    let mut stats = RunStats::new();
    let mut per_batch = Vec::with_capacity(spec.schedule.len());
    let mut elapsed = SimTime::ZERO;
    let mut outcome = RunOutcome::Completed(SimTime::ZERO);
    let mut source_offset = 0usize;

    for (i, &w) in spec.schedule.batches().iter().enumerate() {
        let params = BatchParams {
            seed: spec.seed.wrapping_add(i as u64 + 1),
            cutoff: spec.cutoff - elapsed,
            residual_bytes: &residual,
        };

        let batch_sources = match spec.task {
            Task::Bppr { .. } => BatchSources::Slice(&[]),
            _ => {
                let range = source_offset..source_offset + w as usize;
                source_offset = range.end;
                BatchSources::Indexed(Arc::clone(&source_index), range)
            }
        };

        let batch = run_one_batch(
            graph,
            engine,
            params,
            spec.system,
            spec.task,
            w,
            batch_sources,
            &shared,
        );
        elapsed += batch.outcome.plot_time().min(spec.cutoff - elapsed);
        stats.absorb(&batch.stats);
        for (r, d) in residual.iter_mut().zip(&batch.residual_delta) {
            *r += d;
        }
        let done = !batch.outcome.is_completed();
        per_batch.push(BatchOutcome {
            workload: w,
            kernel: batch.kernel,
            outcome: batch.outcome,
            time: batch.outcome.plot_time(),
            peak_memory: batch.stats.peak_memory,
            residual_after: residual.iter().sum(),
            residual_max_worker: residual.iter().copied().max().unwrap_or(0),
        });
        if done {
            outcome = batch.outcome;
            break;
        }
        if elapsed > spec.cutoff {
            outcome = RunOutcome::Overload;
            break;
        }
        outcome = RunOutcome::Completed(elapsed);
    }

    // `absorb` grows the per-round log by doubling; a kept result holds
    // only the rounds it ran.
    stats.per_round.shrink_to_fit();
    let cost = MonetaryCost::of_run(outcome, &spec.cluster);
    JobResult {
        outcome,
        stats,
        per_batch,
        cost,
    }
}

/// One formed batch, executed online against live residual state.
///
/// Produced by [`BatchRunner::run_batch`]: the serving layer forms
/// batches dynamically (admission-controlled packing) instead of
/// replaying a precomputed [`BatchSchedule`], so the executor exposes
/// single-batch execution with the caller owning residual-memory
/// bookkeeping across batches.
#[derive(Debug, Clone)]
pub struct BatchExecution {
    /// Workload units executed in this batch.
    pub workload: u64,
    /// The slab kernel that ran this batch.
    pub kernel: Kernel,
    /// Completion / overload / overflow classification.
    pub outcome: RunOutcome,
    /// Simulated duration (cutoff height for failed runs).
    pub time: SimTime,
    /// Engine statistics for this batch alone.
    pub stats: RunStats,
    /// Max per-machine memory observed — the `M*` quantity of §5.
    pub peak_memory: Bytes,
    /// Residual bytes this batch leaves behind, per machine. The caller
    /// adds these to its residual state and passes the sum into the
    /// next `run_batch` call (and subtracts them once results are
    /// aggregated and shipped).
    pub residual_delta: Vec<u64>,
}

/// Reusable single-batch executor for online serving.
///
/// Partitions the graph and resolves the system profile once, then
/// executes formed batches on demand. Unlike [`run_job`], batches need
/// not be known up front, may interleave with other runners, and
/// residual memory is owned by the caller — exactly the shape an
/// admission-controlled service needs.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    graph: Arc<Graph>,
    /// Partition indexes, worker pool and the engine configuration every
    /// batch runs under (cluster, profile, fault plan, checkpoint
    /// cadence).
    engine: JobEngine,
    system: SystemKind,
    task: Task,
    /// Slab pools recycled across every batch this runner (and its
    /// clones) executes.
    shared: Arc<BatchShared>,
}

impl BatchRunner {
    /// Prepare an executor for `task`-shaped batches of `system` on
    /// `cluster`. The workload inside `task` is ignored; each call to
    /// [`BatchRunner::run_batch`] supplies its own.
    pub fn new(graph: Arc<Graph>, task: Task, system: SystemKind, cluster: ClusterSpec) -> Self {
        let engine = JobEngine::new(&graph, system, cluster);
        BatchRunner {
            graph,
            engine,
            system,
            task,
            shared: Arc::new(BatchShared::default()),
        }
    }

    /// Arm an injected-fault schedule: every batch this runner executes
    /// runs under `plan` (checkpointed, with rollback-replay recovery
    /// for crashes and delivery failures, and the hard OOM kill if the
    /// plan arms it).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.engine.config.faults = Some(plan);
        self
    }

    /// Override the engine's checkpoint cadence for fault-tolerant
    /// batches (ignored without [`BatchRunner::with_faults`]).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.engine.config.checkpoint_every = every;
        self
    }

    /// Number of machines batches run on.
    pub fn machines(&self) -> usize {
        self.engine.config.cluster.machines
    }

    /// The cluster batches are priced against.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.engine.config.cluster
    }

    /// The task shape this runner executes.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The graph this runner executes on.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Execute one formed batch of `workload` units.
    ///
    /// `sources` must hold exactly `workload` vertices for source-based
    /// tasks (MSSP / BKHS) and is ignored for BPPR. `residual` is the
    /// per-machine residual-memory state (bytes) the batch starts
    /// against — `§4.5/§4.7`'s first-order effect, here maintained by
    /// the caller across batches.
    pub fn run_batch(
        &self,
        workload: u64,
        sources: &[VertexId],
        residual: &[u64],
        seed: u64,
        cutoff: SimTime,
    ) -> BatchExecution {
        assert!(workload >= 1, "batch workload must be positive");
        assert_eq!(
            residual.len(),
            self.machines(),
            "residual vector must have one entry per machine"
        );
        if !matches!(self.task, Task::Bppr { .. }) {
            assert_eq!(
                sources.len() as u64,
                workload,
                "source-based batches need exactly `workload` sources"
            );
        }
        let params = BatchParams {
            seed,
            cutoff,
            residual_bytes: residual,
        };
        let run = run_one_batch(
            &self.graph,
            &self.engine,
            params,
            self.system,
            self.task,
            workload,
            BatchSources::Slice(sources),
            &self.shared,
        );
        BatchExecution {
            workload,
            kernel: run.kernel,
            outcome: run.outcome,
            time: run.outcome.plot_time(),
            peak_memory: run.stats.peak_memory,
            stats: run.stats,
            residual_delta: run.residual_delta,
        }
    }

    /// Execute one formed batch with OOM recovery by bisection — the
    /// degradation ladder.
    ///
    /// An overflowed (OOM-killed) batch is never retried verbatim:
    /// narrower batches trade rounds for congestion (the paper's
    /// central tradeoff), so the failed width is split in half and each
    /// half re-executed against the live residual state, recursively
    /// down to width 1 or [`MAX_BISECT_DEPTH`]. Every kill is
    /// also reported in [`RecoveredBatch::censored`] as a `(width,
    /// peak-lower-bound)` pair for the memory model's censored refit.
    /// Overload (time cutoff) is terminal — narrowing raises rounds,
    /// which makes overload worse, not better.
    pub fn run_batch_bisecting(
        &self,
        workload: u64,
        sources: &[VertexId],
        residual: &[u64],
        seed: u64,
        cutoff: SimTime,
    ) -> RecoveredBatch {
        use std::collections::VecDeque;
        let src_based = !matches!(self.task, Task::Bppr { .. });
        let mut queue: VecDeque<(u64, std::ops::Range<usize>, u32)> = VecDeque::new();
        queue.push_back((workload, 0..sources.len(), 0));

        let mut residual_state = residual.to_vec();
        let mut stats = RunStats::new();
        let mut ladder = Vec::new();
        let mut censored = Vec::new();
        let mut peak = Bytes::ZERO;
        let mut total = SimTime::ZERO;
        let mut residual_delta = vec![0u64; self.machines()];
        let mut index = 0u64;
        let mut outcome = RunOutcome::Completed(SimTime::ZERO);

        while let Some((w, range, depth)) = queue.pop_front() {
            // The unbisected first attempt uses the caller's seed
            // verbatim (identical to `run_batch`); sub-batches derive
            // distinct deterministic seeds.
            let sub_seed = if index == 0 {
                seed
            } else {
                seed ^ mix64(index)
            };
            index += 1;
            let srcs = if src_based {
                &sources[range.clone()]
            } else {
                &[]
            };
            let exec = self.run_batch(w, srcs, &residual_state, sub_seed, cutoff);
            stats.absorb(&exec.stats);
            peak = peak.max(exec.peak_memory);
            ladder.push(LadderStep {
                width: w,
                outcome: exec.outcome,
            });
            match exec.outcome {
                RunOutcome::Completed(t) => {
                    total += t;
                    for (r, d) in residual_state.iter_mut().zip(&exec.residual_delta) {
                        *r += d;
                    }
                    for (r, d) in residual_delta.iter_mut().zip(&exec.residual_delta) {
                        *r += d;
                    }
                    outcome = RunOutcome::Completed(total);
                }
                RunOutcome::Overflow => {
                    censored.push((w, exec.peak_memory.get() as f64));
                    if w == 1 || depth >= MAX_BISECT_DEPTH {
                        outcome = RunOutcome::Overflow;
                        break;
                    }
                    let left = w / 2;
                    let (lr, rr) = if src_based {
                        let mid = range.start + left as usize;
                        (range.start..mid, mid..range.end)
                    } else {
                        (0..0, 0..0)
                    };
                    // Front of the queue, left first: unit-task order
                    // is preserved across the split.
                    queue.push_front((w - left, rr, depth + 1));
                    queue.push_front((left, lr, depth + 1));
                }
                RunOutcome::Overload => {
                    outcome = RunOutcome::Overload;
                    break;
                }
            }
        }

        RecoveredBatch {
            workload,
            outcome,
            time: outcome.plot_time(),
            stats,
            peak_memory: peak,
            residual_delta,
            ladder,
            censored,
        }
    }
}

/// How far [`BatchRunner::run_batch_bisecting`] degrades before giving
/// up on an OOM-killed batch: a batch of width `w` shrinks to at most
/// `w / 2^MAX_BISECT_DEPTH` before an overflow becomes terminal.
pub const MAX_BISECT_DEPTH: u32 = 4;

/// One rung of the degradation ladder: a width that was attempted and
/// how it ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderStep {
    pub width: u64,
    pub outcome: RunOutcome,
}

/// Result of [`BatchRunner::run_batch_bisecting`].
#[derive(Debug, Clone)]
pub struct RecoveredBatch {
    /// Workload units of the original (pre-bisection) batch.
    pub workload: u64,
    /// Terminal classification: `Completed` iff every unit task ran to
    /// completion (possibly across several sub-batches).
    pub outcome: RunOutcome,
    /// Simulated duration (sum over completed sub-batches; cutoff
    /// height for failed runs).
    pub time: SimTime,
    /// Merged engine statistics over every attempt, failed ones
    /// included (`stats.faults.oom_kills` counts the kills).
    pub stats: RunStats,
    /// Max per-machine memory observed across all attempts.
    pub peak_memory: Bytes,
    /// Residual bytes left behind by *completed* sub-batches, per
    /// machine.
    pub residual_delta: Vec<u64>,
    /// Every width attempted, in execution order — the shrinking
    /// ladder.
    pub ladder: Vec<LadderStep>,
    /// `(width, peak-lower-bound-bytes)` for each OOM kill: censored
    /// observations for the `mtvc-tune` online model refit.
    pub censored: Vec<(u64, f64)>,
}

struct BatchRun {
    kernel: Kernel,
    outcome: RunOutcome,
    stats: RunStats,
    residual_delta: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn run_one_batch(
    graph: &Graph,
    engine: &JobEngine,
    params: BatchParams<'_>,
    system: SystemKind,
    task: Task,
    workload: u64,
    sources: BatchSources<'_>,
    shared: &BatchShared,
) -> BatchRun {
    use Kernel::{Lane, Row};
    let broadcast = system.is_broadcast();
    match task {
        Task::Bppr { alpha, .. } => {
            let n = graph.num_vertices();
            if broadcast {
                // No lane push kernel exists: on a job's graph-wide sparse
                // rows it was slower through `run_job` (PR 13: 48 → 89 ms).
                let prog = BpprPushSlabProgram::new(workload, alpha, n);
                // Residual: fractional stop masses, one f64 record per
                // (vertex, source) entry.
                let residual = |c: PushCell| if c.mass != 0.0 { 16 } else { 0 };
                execute(graph, engine, params, Row, &prog, &shared.push, residual)
            } else {
                let prog = BpprSlabProgram::new(workload, alpha, n);
                // §5: "we need to store the ending nodes of every
                // random walk computed in each batch" — residual
                // scales with the walk count, not just distinct
                // entries.
                let residual = |stops: u64| if stops > 0 { 8 * stops + 16 } else { 0 };
                execute(graph, engine, params, Row, &prog, &shared.words, residual)
            }
        }
        Task::Mssp { .. } => {
            let (index, range) = sources.resolve();
            // Residual: one `(query, distance)` record per reached cell.
            let residual = |d: u64| if d != u64::MAX { 16 } else { 0 };
            match (
                broadcast,
                Kernel::choose(range.len(), lane_distances_fit(graph)),
            ) {
                (true, _) => {
                    let prog = MsspBroadcastSlabProgram::batch(index, range);
                    execute(graph, engine, params, Row, &prog, &shared.words, residual)
                }
                (false, Lane) => {
                    let prog = MsspLaneSlabProgram::batch(index, range);
                    execute(graph, engine, params, Lane, &prog, &shared.words, residual)
                }
                (false, Row) => {
                    let prog = MsspSlabProgram::batch(index, range);
                    execute(graph, engine, params, Row, &prog, &shared.words, residual)
                }
            }
        }
        Task::Bkhs { k, .. } => {
            let (index, range) = sources.resolve();
            // Residual: bitmap-encoded reach flags, ~1 byte per
            // (query, vertex) flag (see mtvc-tasks::bkhs docs).
            let residual = |flag: u8| u64::from(flag != 0);
            match (broadcast, Kernel::choose(range.len(), true)) {
                (true, _) => {
                    let prog = BkhsBroadcastSlabProgram::batch(index, range, k);
                    execute(graph, engine, params, Row, &prog, &shared.flags, residual)
                }
                (false, Lane) => {
                    let prog = BkhsLaneSlabProgram::batch(index, range, k);
                    execute(graph, engine, params, Lane, &prog, &shared.flags, residual)
                }
                (false, Row) => {
                    let prog = BkhsSlabProgram::batch(index, range, k);
                    execute(graph, engine, params, Row, &prog, &shared.flags, residual)
                }
            }
        }
    }
}

/// Run one batch of `program` on slabs drawn from `pool` and fold the
/// cells of the rows it wrote into per-worker residual bytes (an
/// unwritten cell holds the empty sentinel, whose residual is zero).
fn execute<P: SlabProgram>(
    graph: &Graph,
    engine: &JobEngine,
    params: BatchParams<'_>,
    kernel: Kernel,
    program: &P,
    pool: &SlabRecycler<P::Cell>,
    residual_of: impl Fn(P::Cell) -> u64,
) -> BatchRun {
    let (outcome, stats, residual_delta) =
        Runner::for_batch(graph, &engine.topology, &engine.config, params).run_slab_fold(
            program,
            pool,
            |row| row.written().map(|(_, c)| residual_of(c)).sum(),
        );
    BatchRun {
        kernel,
        outcome,
        stats,
        residual_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_engine::PagingConfig;
    use mtvc_graph::{generators, GraphBuilder};
    use mtvc_metrics::RoundStats;
    use mtvc_tasks::bkhs::{BkhsCounts, BkhsState};
    use mtvc_tasks::bppr::{BpprState, PushState};
    use mtvc_tasks::mssp::MsspState;

    fn small_graph() -> Graph {
        generators::power_law(200, 900, 2.4, 17)
    }

    fn spec(task: Task, batches: usize) -> JobSpec {
        JobSpec::new(
            task,
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
            BatchSchedule::equal(task.workload(), batches),
        )
    }

    #[test]
    fn bppr_job_completes_and_accumulates_residual() {
        let g = small_graph();
        let r = run_job(&g, &spec(Task::bppr(32), 2));
        assert!(r.outcome.is_completed());
        assert_eq!(r.per_batch.len(), 2);
        assert!(r.per_batch[0].residual_after > 0);
        assert!(r.per_batch[1].residual_after > r.per_batch[0].residual_after);
        assert!(r.stats.total_messages_sent > 0);
    }

    #[test]
    fn mssp_job_runs_all_source_batches() {
        let g = small_graph();
        let r = run_job(&g, &spec(Task::mssp(16), 4));
        assert!(r.outcome.is_completed());
        assert_eq!(r.per_batch.len(), 4);
        let total: u64 = r.per_batch.iter().map(|b| b.workload).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn bkhs_job_completes() {
        let g = small_graph();
        let r = run_job(&g, &spec(Task::bkhs(8), 2));
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn mirror_system_runs_broadcast_variants() {
        let g = small_graph();
        let mut s = spec(Task::bppr(8), 2);
        s.system = SystemKind::PregelPlusMirror;
        let r = run_job(&g, &s);
        assert!(r.outcome.is_completed(), "{:?}", r.outcome);
        assert!(r.per_batch.iter().all(|b| b.kernel == Kernel::Row));
    }

    #[test]
    fn batch_times_sum_to_job_time() {
        let g = small_graph();
        let r = run_job(&g, &spec(Task::bppr(16), 4));
        let sum: f64 = r.per_batch.iter().map(|b| b.time.as_secs()).sum();
        match r.outcome {
            RunOutcome::Completed(t) => assert!((t.as_secs() - sum).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "schedule total")]
    fn mismatched_schedule_rejected() {
        let g = small_graph();
        let mut s = spec(Task::bppr(16), 2);
        s.schedule = BatchSchedule::equal(10, 2);
        run_job(&g, &s);
    }

    #[test]
    fn local_cluster_jobs_cost_nothing() {
        let g = small_graph();
        let r = run_job(&g, &spec(Task::bppr(8), 1));
        assert_eq!(r.cost.credits, 0.0);
    }

    #[test]
    fn cloud_jobs_are_metered() {
        let g = small_graph();
        let mut s = spec(Task::bppr(8), 1);
        s.cluster = ClusterSpec::docker(4);
        let r = run_job(&g, &s);
        assert!(r.cost.credits > 0.0);
    }

    #[test]
    fn batch_runner_replays_a_schedule_like_run_job() {
        let g = Arc::new(small_graph());
        let task = Task::bppr(32);
        let schedule = BatchSchedule::equal(32, 2);
        let job = run_job(&g, &spec(task, 2));

        let runner = BatchRunner::new(
            Arc::clone(&g),
            task,
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let mut residual = vec![0u64; runner.machines()];
        let mut execs = Vec::new();
        for (i, &w) in schedule.batches().iter().enumerate() {
            let e = runner.run_batch(w, &[], &residual, 0x0B57 + i as u64 + 1, OVERLOAD_CUTOFF);
            for (r, d) in residual.iter_mut().zip(&e.residual_delta) {
                *r += d;
            }
            execs.push(e);
        }
        // Same batch structure: residual accumulates identically.
        assert_eq!(execs.len(), job.per_batch.len());
        assert_eq!(
            residual.iter().sum::<u64>(),
            job.per_batch.last().unwrap().residual_after
        );
        assert!(execs.iter().all(|e| e.outcome.is_completed()));
    }

    #[test]
    fn batch_runner_residual_raises_memory_pressure() {
        let g = Arc::new(small_graph());
        let runner = BatchRunner::new(
            g,
            Task::bppr(8),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let clean = runner.run_batch(8, &[], &[0; 4], 7, OVERLOAD_CUTOFF);
        let loaded = runner.run_batch(8, &[], &[Bytes::gib(1).get(); 4], 7, OVERLOAD_CUTOFF);
        assert!(loaded.peak_memory > clean.peak_memory);
    }

    #[test]
    fn batch_runner_source_tasks_take_explicit_sources() {
        let g = Arc::new(small_graph());
        let runner = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(4),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let sources = select_sources(&g, 4, 99);
        let e = runner.run_batch(4, &sources, &[0; 4], 1, OVERLOAD_CUTOFF);
        assert!(e.outcome.is_completed());
        assert!(e.residual_delta.iter().sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "exactly `workload` sources")]
    fn batch_runner_rejects_source_count_mismatch() {
        let g = Arc::new(small_graph());
        let runner = BatchRunner::new(
            g,
            Task::mssp(4),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        runner.run_batch(4, &[], &[0; 4], 1, OVERLOAD_CUTOFF);
    }

    /// A star whose hub reaches 19 999 leaves in one round: every MSSP
    /// flood on it holds one round past the fan-out cut-over.
    fn wide_graph() -> Arc<Graph> {
        Arc::new(generators::star(20_000))
    }

    /// One pool per runner: ten batches of a `BatchRunner` and eight of
    /// a `run_job` each fan out to the same four threads, spawned by
    /// their first wide round; a one-machine runner spawns none.
    #[test]
    fn one_pool_serves_every_batch() {
        let g = wide_graph();
        let runner = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(1),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let topology = &runner.engine.topology;
        assert!(topology.pool_threads().is_none(), "no round has run");
        let mut first = None;
        for seed in 0..10 {
            let source = select_sources(&g, 1, seed);
            let exec = runner.run_batch(1, &source, &[0; 4], seed, OVERLOAD_CUTOFF);
            assert!(exec.outcome.is_completed(), "{:?}", exec.outcome);
            let ids = topology.pool_threads().expect("a wide round fans out");
            assert_eq!(ids.len(), 4);
            assert_eq!(
                first.get_or_insert_with(|| ids.clone()),
                &ids,
                "batch {seed}"
            );
        }

        let spec = spec(Task::mssp(8), 8);
        let engine = JobEngine::new(&g, spec.system, spec.cluster.clone());
        let job = run_job_on(&g, &spec, &engine);
        assert_eq!(job.per_batch.len(), 8);
        let ids = engine
            .topology
            .pool_threads()
            .expect("a wide round fans out");
        assert_eq!(ids.len(), 4);
        assert_ne!(Some(ids), first, "each job has its own pool");

        let single = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(1),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(1),
        );
        single.run_batch(1, &[0], &[0], 1, OVERLOAD_CUTOFF);
        assert!(single.engine.topology.pool_threads().is_none());
    }

    /// Batches on clones of one runner, two threads at a time, share
    /// one pool: whichever round finds it taken runs inline. Every
    /// batch equals the same batch run alone.
    #[test]
    fn concurrent_batches_on_one_runner_equal_sequential_ones() {
        let g = wide_graph();
        let runner = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(1),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let run = |runner: &BatchRunner, seed| {
            let source = select_sources(&g, 1, seed);
            let exec = runner.run_batch(1, &source, &[0; 4], seed, OVERLOAD_CUTOFF);
            (exec.outcome, exec.stats, exec.residual_delta)
        };
        let alone: Vec<_> = (0..4).map(|seed| run(&runner.clone(), seed)).collect();
        let together: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let runner = runner.clone();
                    s.spawn(move || [t, t + 2].map(|seed| run(&runner, seed)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, pair) in together.into_iter().enumerate() {
            for (i, got) in pair.into_iter().enumerate() {
                assert!(got == alone[t + 2 * i], "batch {}", t + 2 * i);
            }
        }
    }

    #[test]
    fn bisecting_without_faults_matches_run_batch() {
        let g = Arc::new(small_graph());
        let runner = BatchRunner::new(
            g,
            Task::bppr(8),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let plain = runner.run_batch(8, &[], &[0; 4], 7, OVERLOAD_CUTOFF);
        let rec = runner.run_batch_bisecting(8, &[], &[0; 4], 7, OVERLOAD_CUTOFF);
        assert_eq!(rec.outcome, plain.outcome);
        assert_eq!(rec.stats, plain.stats, "single rung = identical run");
        assert_eq!(rec.residual_delta, plain.residual_delta);
        assert_eq!(rec.ladder.len(), 1);
        assert!(rec.censored.is_empty());
    }

    #[test]
    fn oom_killed_batch_degrades_to_narrower_widths() {
        let g = Arc::new(small_graph());
        let sources = select_sources(&g, 8, 99);
        // Probe the memory curve: peak of the full width vs the peaks
        // of its halves run sequentially with residual carried over.
        let probe = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(8),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
        );
        let wide = probe.run_batch(8, &sources, &[0; 4], 1, OVERLOAD_CUTOFF);
        let a = probe.run_batch(4, &sources[..4], &[0; 4], 1, OVERLOAD_CUTOFF);
        let mut resid = vec![0u64; 4];
        for (r, d) in resid.iter_mut().zip(&a.residual_delta) {
            *r += d;
        }
        let b = probe.run_batch(4, &sources[4..], &resid, 2, OVERLOAD_CUTOFF);
        let narrow_peak = a.peak_memory.max(b.peak_memory);
        assert!(
            wide.peak_memory > narrow_peak,
            "halving must shrink the peak: {} vs {}",
            wide.peak_memory.get(),
            narrow_peak.get()
        );

        // Capacity between the two: the full batch is OOM-killed, its
        // halves fit — the ladder must recover.
        let mut cluster = ClusterSpec::galaxy(4);
        cluster.machine.memory = Bytes((narrow_peak.get() + wide.peak_memory.get()) / 2);
        let runner = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(8),
            SystemKind::PregelPlus,
            cluster,
        )
        .with_faults(FaultPlan::none().with_hard_oom());
        let rec = runner.run_batch_bisecting(8, &sources, &[0; 4], 1, OVERLOAD_CUTOFF);
        assert!(rec.outcome.is_completed(), "{:?}", rec.outcome);
        assert!(rec.ladder.len() >= 3, "ladder: {:?}", rec.ladder);
        assert_eq!(rec.ladder[0].width, 8);
        assert!(rec.ladder[0].outcome.is_overflow());
        assert!(rec.ladder[1..].iter().all(|s| s.width < 8));
        assert_eq!(rec.censored.len(), 1, "one kill = one censored point");
        assert_eq!(rec.censored[0].0, 8);
        assert!(rec.stats.faults.oom_kills >= 1);
        assert!(rec.residual_delta.iter().sum::<u64>() > 0);
    }

    #[test]
    fn hopeless_batch_fails_typed_after_ladder_exhausts() {
        let g = Arc::new(small_graph());
        let sources = select_sources(&g, 8, 99);
        let mut cluster = ClusterSpec::galaxy(4);
        cluster.machine.memory = Bytes::kib(1); // nothing fits
        let runner = BatchRunner::new(
            Arc::clone(&g),
            Task::mssp(8),
            SystemKind::PregelPlus,
            cluster,
        )
        .with_faults(FaultPlan::none().with_hard_oom());
        let rec = runner.run_batch_bisecting(8, &sources, &[0; 4], 1, OVERLOAD_CUTOFF);
        assert!(rec.outcome.is_overflow(), "typed terminal failure");
        // The ladder shrinks 8 → 4 → 2 → 1 and stops at width 1.
        let widths: Vec<u64> = rec.ladder.iter().map(|s| s.width).collect();
        assert_eq!(widths, vec![8, 4, 2, 1]);
        assert_eq!(rec.censored.len(), 4, "every kill reported");
    }

    #[test]
    fn injected_crashes_do_not_change_batch_results() {
        let g = Arc::new(small_graph());
        // BPPR on the row kernel; MSSP and BKHS wide enough for lanes
        // (BKHS deep enough to still be running when the faults fire).
        let bkhs = Task::Bkhs {
            num_sources: 16,
            k: 6,
        };
        for (task, kernel) in [
            (Task::bppr(8), Kernel::Row),
            (Task::mssp(16), Kernel::Lane),
            (bkhs, Kernel::Lane),
        ] {
            let w = task.workload();
            let sources = match task {
                Task::Bppr { .. } => Vec::new(),
                _ => select_sources(&g, w, 99),
            };
            let runner = BatchRunner::new(
                Arc::clone(&g),
                task,
                SystemKind::PregelPlus,
                ClusterSpec::galaxy(4),
            );
            let clean = runner.run_batch(w, &sources, &[0; 4], 7, OVERLOAD_CUTOFF);
            let chaotic = runner
                .clone()
                .with_faults(FaultPlan::random(11, 4, 6, 2, 1))
                .with_checkpoint_every(2)
                .run_batch(w, &sources, &[0; 4], 7, OVERLOAD_CUTOFF);
            assert_eq!(clean.kernel, kernel, "{task:?}");
            assert_eq!(chaotic.kernel, kernel, "{task:?}");
            assert!(
                chaotic.stats.faults.replayed_rounds > 0,
                "{task:?}: the plan must force a rollback"
            );
            assert_eq!(clean.outcome, chaotic.outcome, "{task:?}");
            assert_eq!(clean.time, chaotic.time, "{task:?}");
            assert_eq!(clean.residual_delta, chaotic.residual_delta, "{task:?}");
            let mut scrubbed = chaotic.stats.clone();
            scrubbed.faults = Default::default();
            assert_eq!(scrubbed, clean.stats, "{task:?}");
        }
    }

    /// `stats` without the envelope-copy counters — the one thing the
    /// lane and row kernels are allowed to differ in.
    fn sans_shard_copies(stats: &RunStats) -> RunStats {
        let mut stats = stats.clone();
        stats.total_shard_copy_bytes = Bytes::ZERO;
        for round in &mut stats.per_round {
            round.shard_copy_bytes = Bytes::ZERO;
        }
        stats
    }

    /// `run_job` and `BatchRunner::run_batch` on both sides of the
    /// `LANES` threshold against a direct `Runner::run_slab` of the row
    /// kernel: same outcome, statistics and residual, and the reported
    /// kernel follows the width.
    #[test]
    fn width_dispatch_is_invisible_outside_the_kernel_tag() {
        let g = Arc::new(small_graph());
        let cluster = ClusterSpec::galaxy(4);
        let seed = 0x0B57;
        for system in [SystemKind::PregelPlus, SystemKind::GraphLab] {
            let partition = system.partitioner().partition(&g, cluster.machines);
            let profile = system.profile(&cluster.machine);
            for (width, kernel) in [
                (7u64, Kernel::Row),
                (8, Kernel::Lane),
                (9, Kernel::Lane),
                (16, Kernel::Lane),
            ] {
                for task in [Task::mssp(width), Task::bkhs(width)] {
                    let label = format!("{system} {task:?}");

                    // The job's only batch: seed + 1, its own sources.
                    let sources = select_sources(&g, width, seed ^ 0xA5A5);
                    let mut cfg = EngineConfig::new(cluster.clone(), profile.clone());
                    cfg.seed = seed + 1;
                    cfg.cutoff = OVERLOAD_CUTOFF;
                    cfg.residual_bytes = vec![0; cluster.machines];
                    let row = Runner::with_partition(&g, partition.clone(), cfg);
                    let mut want_residual = vec![0u64; cluster.machines];
                    let mut add = |v: usize, bytes: u64| {
                        want_residual[partition.owner_of(v as VertexId) as usize] += bytes;
                    };
                    let (want_outcome, want_stats) = match task {
                        Task::Bkhs { k, .. } => {
                            let r = row.run_slab(&BkhsSlabProgram::new(sources.clone(), k));
                            for (v, st) in r.states.iter().enumerate() {
                                add(v, st.reached.len() as u64);
                            }
                            (r.outcome, r.stats)
                        }
                        _ => {
                            let r = row.run_slab(&MsspSlabProgram::new(sources.clone()));
                            for (v, st) in r.states.iter().enumerate() {
                                add(v, st.dist.len() as u64 * 16);
                            }
                            (r.outcome, r.stats)
                        }
                    };
                    assert!(want_outcome.is_completed(), "{label}");

                    let mut job_spec = spec(task, 1);
                    job_spec.system = system;
                    let job = run_job(&g, &job_spec);
                    let batch = &job.per_batch[0];
                    assert_eq!(batch.kernel, kernel, "{label}");
                    assert_eq!(job.outcome, want_outcome, "{label}");
                    assert_eq!(batch.residual_after, want_residual.iter().sum::<u64>());
                    assert_eq!(
                        sans_shard_copies(&job.stats),
                        sans_shard_copies(&want_stats),
                        "{label}"
                    );

                    let exec = BatchRunner::new(Arc::clone(&g), task, system, cluster.clone())
                        .run_batch(width, &sources, &[0; 4], seed + 1, OVERLOAD_CUTOFF);
                    assert_eq!(exec.kernel, kernel, "{label}");
                    assert_eq!(exec.outcome, want_outcome, "{label}");
                    assert_eq!(exec.residual_delta, want_residual, "{label}");
                    assert_eq!(
                        sans_shard_copies(&exec.stats),
                        sans_shard_copies(&want_stats),
                        "{label}"
                    );
                }
            }
        }
    }

    /// An undirected path of `n` vertices, every edge weighing `w`.
    fn heavy_path(n: usize, w: u32) -> Graph {
        let mut b = GraphBuilder::new(n).undirected(true).force_weighted();
        for v in 1..n as VertexId {
            b.add_weighted_edge(v - 1, v, w);
        }
        b.build()
    }

    /// MSSP's lane kernel carries 32-bit distances, so on a graph past
    /// the `n × max_weight < u32::MAX` bound every MSSP batch runs the
    /// row kernel, whatever its width; BKHS's reach masks know no such
    /// bound. Each batch's statistics equal a direct `run_slab` of the
    /// kernel it reports (shard copies included, where row and lane
    /// differ), and that run's distances are Dijkstra's.
    #[test]
    fn lane_dispatch_respects_the_32_bit_distance_bound() {
        let cluster = ClusterSpec::galaxy(4);
        let system = SystemKind::PregelPlus;
        let profile = system.profile(&cluster.machine);
        let seed = 0x0B58;
        // 10 × 429_496_729 = u32::MAX - 5: just under the bound. At 2³¹
        // a weight, vertices two hops apart lie 2³² > u32::MAX apart.
        for (w, lanes) in [(429_496_729, true), (1 << 31, false)] {
            let g = Arc::new(heavy_path(10, w));
            assert_eq!(lane_distances_fit(&g), lanes, "w = {w}");
            let partition = system.partitioner().partition(&g, cluster.machines);
            for width in [8u64, 16] {
                let label = format!("w = {w}, width {width}");
                let sources = select_sources(&g, width, seed ^ width);
                let exec =
                    BatchRunner::new(Arc::clone(&g), Task::mssp(width), system, cluster.clone())
                        .run_batch(width, &sources, &[0; 4], seed, OVERLOAD_CUTOFF);
                let mut cfg = EngineConfig::new(cluster.clone(), profile.clone());
                cfg.seed = seed;
                cfg.cutoff = OVERLOAD_CUTOFF;
                cfg.residual_bytes = vec![0; cluster.machines];
                let runner = Runner::with_partition(&g, partition.clone(), cfg);
                let (kernel, run) = if lanes {
                    let p = MsspLaneSlabProgram::new(sources.clone());
                    (Kernel::Lane, runner.run_slab(&p))
                } else {
                    (
                        Kernel::Row,
                        runner.run_slab(&MsspSlabProgram::new(sources.clone())),
                    )
                };
                assert_eq!(exec.kernel, kernel, "{label}");
                assert!(run.outcome.is_completed(), "{label}");
                assert_eq!(exec.outcome, run.outcome, "{label}");
                assert_eq!(exec.stats, run.stats, "{label}");
                let mut farthest = 0;
                for (q, &s) in sources.iter().enumerate() {
                    let want = mtvc_graph::reference::dijkstra(&g, s);
                    for (v, &d) in want.iter().enumerate() {
                        let got = run.states[v].dist.get(&(q as u32)).copied();
                        assert_eq!(got, Some(d), "{label}: source {s}, vertex {v}");
                        farthest = farthest.max(d);
                    }
                }
                assert_eq!(farthest > u64::from(u32::MAX), !lanes, "{label}");
            }
            let bkhs = BatchRunner::new(Arc::clone(&g), Task::bkhs(8), system, cluster.clone());
            let sources = select_sources(&g, 8, seed);
            let exec = bkhs.run_batch(8, &sources, &[0; 4], seed, OVERLOAD_CUTOFF);
            assert_eq!(exec.kernel, Kernel::Lane, "BKHS, w = {w}");
            assert!(exec.outcome.is_completed(), "BKHS, w = {w}");
        }
    }

    /// The lane kernel run directly, past the executor's gate, refuses
    /// to send a distance its 32-bit lanes cannot carry: it panics,
    /// naming the bound, in debug and release builds alike.
    #[test]
    #[should_panic(expected = "n * max_weight < u32::MAX")]
    fn lane_kernel_panics_past_the_distance_bound() {
        let g = heavy_path(10, 1 << 31);
        let cluster = ClusterSpec::galaxy(4);
        let system = SystemKind::PregelPlus;
        let partition = system.partitioner().partition(&g, cluster.machines);
        let cfg = EngineConfig::new(cluster.clone(), system.profile(&cluster.machine));
        let runner = Runner::with_partition(&g, partition, cfg);
        runner.run_slab(&MsspLaneSlabProgram::new(select_sources(&g, 8, 7)));
    }

    /// Each batch's last entry of a job's `per_round` log (a batch's
    /// rounds count from 0 again).
    fn batch_final_rounds(stats: &RunStats) -> Vec<&RoundStats> {
        let rounds = &stats.per_round;
        (rounds.iter().enumerate())
            .filter(|&(i, _)| rounds.get(i + 1).is_none_or(|next| next.round == 0))
            .map(|(_, r)| r)
            .collect()
    }

    /// BKHS's last superstep is counted, not routed, on every
    /// non-combining system: the row, lane and broadcast kernels,
    /// resident and through GraphD's pager (with a roomy cache and with
    /// one that evicts every round), still reach exactly the sequential
    /// k-hop sets, and the final round sends messages yet copies no
    /// bytes into a shard. Under GraphLab's combiner the final round
    /// folds, so it still routes and copies.
    #[test]
    fn bkhs_final_round_is_counted_without_a_combiner() {
        let g = small_graph();
        let cluster = ClusterSpec::galaxy(4);
        let k = 3;
        let sources = select_sources(&g, 10, 0xB4);
        let evicting = PagingConfig {
            budget: Bytes::new(768),
            partition_bytes: Bytes::new(192),
        };
        for system in SystemKind::ALL {
            let profile = system.profile(&cluster.machine);
            let partition = system.partitioner().partition(&g, cluster.machines);
            let pagings = match profile.out_of_core {
                Some(_) => vec![None, Some(evicting)],
                None => vec![None],
            };
            for paging in pagings {
                let mut cfg = EngineConfig::new(cluster.clone(), profile.clone());
                cfg.cutoff = SimTime::secs(1e12);
                if let (Some(ooc), Some(paging)) = (cfg.profile.out_of_core.as_mut(), paging) {
                    ooc.paging = paging;
                }
                let runner = Runner::with_partition(&g, partition.clone(), cfg);
                let check = |kernel: &str, states: &[BkhsState], stats: &RunStats| {
                    let label = format!("{system} {kernel} evicting={}", paging.is_some());
                    for (q, &s) in sources.iter().enumerate() {
                        let mut want = mtvc_graph::reference::k_hop_set(&g, s, k);
                        want.sort_unstable();
                        let got = BkhsCounts::members(states, q as u32);
                        assert_eq!(got, want, "{label}: source {s}");
                    }
                    let last = stats.per_round.last().expect("rounds ran");
                    assert_eq!(last.round, k as usize, "{label}: runs to the horizon");
                    assert!(last.messages_sent > 0, "{label}: the last round sends");
                    let copied = last.shard_copy_bytes > Bytes::ZERO;
                    assert_eq!(copied, profile.combiner, "{label}: {last:?}");
                };
                let row = runner.run_slab(&BkhsSlabProgram::new(sources.clone(), k));
                check("row", &row.states, &row.stats);
                let lane = runner.run_slab(&BkhsLaneSlabProgram::new(sources.clone(), k));
                check("lane", &lane.states, &lane.stats);
                let bc = runner.run_slab(&BkhsBroadcastSlabProgram::new(sources.clone(), k));
                check("broadcast", &bc.states, &bc.stats);
            }
        }
        // And through `run_job`'s batches: every batch's last round.
        for (system, copies) in [
            (SystemKind::PregelPlus, false),
            (SystemKind::GraphLab, true),
        ] {
            let mut job = spec(Task::bkhs(24), 3);
            job.system = system;
            let r = run_job(&g, &job);
            let finals = batch_final_rounds(&r.stats);
            assert_eq!(finals.len(), 3, "{system}");
            for last in finals {
                assert_eq!(
                    last.shard_copy_bytes > Bytes::ZERO,
                    copies,
                    "{system}: {last:?}"
                );
            }
        }
    }

    /// Faults on BKHS's counted last round (k) and on the routed round
    /// before it (k − 1), for the row and the lane kernel: a crash rolls
    /// back and replays into the counted round, a corruption resends a
    /// share of the previous round's inbound bytes, and a straggler
    /// re-prices the round. Every statistic outside `faults`, the
    /// outcome and the residual stay the fault-free run's.
    #[test]
    fn faults_at_the_counted_round_change_only_the_fault_record() {
        let g = Arc::new(small_graph());
        let k = 3;
        for width in [4u64, 16] {
            let task = Task::Bkhs {
                num_sources: width,
                k,
            };
            let sources = select_sources(&g, width, 0xFA);
            let runner = BatchRunner::new(
                Arc::clone(&g),
                task,
                SystemKind::PregelPlus,
                ClusterSpec::galaxy(4),
            );
            let clean = runner.run_batch(width, &sources, &[0; 4], 7, OVERLOAD_CUTOFF);
            let last = clean.stats.per_round.last().expect("rounds ran");
            assert_eq!(last.round, k as usize, "width {width}");
            for at in [k as usize, k as usize - 1] {
                let label = format!("width {width}, faults at round {at}");
                let plan = FaultPlan::none()
                    .with_crash(at, 0)
                    .with_corruption(at, 1, 2)
                    .with_straggler(at, 2, 300, 2);
                let chaotic = runner
                    .clone()
                    .with_faults(plan)
                    // Only round 0 checkpoints, so the crash replays.
                    .with_checkpoint_every(8)
                    .run_batch(width, &sources, &[0; 4], 7, OVERLOAD_CUTOFF);
                let f = &chaotic.stats.faults;
                assert_eq!(
                    (f.crashes, f.corrupted_buckets, f.stragglers),
                    (1, 2, 1),
                    "{label}"
                );
                assert!(f.replayed_rounds > 0, "{label}: the crash must roll back");
                assert!(f.retransmitted_bytes > Bytes::ZERO, "{label}");
                assert_eq!(clean.outcome, chaotic.outcome, "{label}");
                assert_eq!(clean.time, chaotic.time, "{label}");
                assert_eq!(clean.residual_delta, chaotic.residual_delta, "{label}");
                let mut scrubbed = chaotic.stats.clone();
                scrubbed.faults = Default::default();
                assert_eq!(scrubbed, clean.stats, "{label}");
            }
        }
    }

    /// A kept `JobResult` holds only the rounds it ran: `absorb`'s
    /// doubling slack is trimmed.
    #[test]
    fn run_job_trims_the_per_round_log() {
        let g = small_graph();
        for task in [Task::bkhs(12), Task::mssp(12), Task::bppr(12)] {
            let r = run_job(&g, &spec(task, 3));
            let log = &r.stats.per_round;
            assert!(log.len() > 3, "{task:?}");
            assert_eq!(log.capacity(), log.len(), "{task:?}");
        }
    }

    #[test]
    fn determinism_across_invocations() {
        let g = small_graph();
        let a = run_job(&g, &spec(Task::bppr(16), 2));
        let b = run_job(&g, &spec(Task::bppr(16), 2));
        assert_eq!(a.stats.total_messages_sent, b.stats.total_messages_sent);
        assert_eq!(a.plot_time(), b.plot_time());
    }

    /// Per-worker residual of `program`'s dense `run_slab` outputs under
    /// `rule`, with the run's outcome and statistics: the reference the
    /// cell folds of [`run_one_batch`] must equal.
    fn reference<P: SlabProgram>(
        graph: &Graph,
        engine: &JobEngine,
        params: BatchParams<'_>,
        program: &P,
        rule: fn(&P::Out) -> u64,
    ) -> (RunOutcome, RunStats, Vec<u64>) {
        let runner = Runner::for_batch(graph, &engine.topology, &engine.config, params);
        let r = runner.run_slab(program);
        let mut residual = vec![0u64; engine.config.cluster.machines];
        for (v, st) in r.states.iter().enumerate() {
            residual[runner.partition().owner_of(v as VertexId) as usize] += rule(st);
        }
        (r.outcome, r.stats, residual)
    }

    /// The four residual rules as they read extracted outputs: MSSP 16 B
    /// per distance, BKHS 1 B per reach flag, Monte-Carlo BPPR 8 B per
    /// stopped walk plus 16 B per entry, push BPPR 16 B per mass entry.
    fn mssp_rule(st: &MsspState) -> u64 {
        st.dist.len() as u64 * 16
    }
    fn bkhs_rule(st: &BkhsState) -> u64 {
        st.reached.len() as u64
    }
    fn walk_rule(st: &BpprState) -> u64 {
        st.stops.values().sum::<u64>() * 8 + st.stops.len() as u64 * 16
    }
    fn push_rule(st: &PushState) -> u64 {
        st.mass.len() as u64 * 16
    }

    /// `run_one_batch` folds residual bytes from slab cells; for every
    /// program type it dispatches — MSSP and BKHS row, lane and
    /// broadcast, Monte-Carlo and push BPPR — on both sides of the lane
    /// cut-over and on one and four workers, that fold equals the
    /// output-based rule applied to a dense `run_slab` of the same
    /// program, grouped by owner.
    #[test]
    fn residual_fold_equals_the_output_rules() {
        use Kernel::{Lane, Row};
        let g = small_graph();
        // Under the 32-bit lane bound, so width alone picks the kernel.
        assert!(lane_distances_fit(&g));
        let n = g.num_vertices();
        let shared = BatchShared::default();
        for machines in [1, 4] {
            for system in [
                SystemKind::PregelPlus,
                SystemKind::GraphLab,
                SystemKind::PregelPlusMirror,
            ] {
                let engine = JobEngine::new(&g, system, ClusterSpec::galaxy(machines));
                let broadcast = system.is_broadcast();
                for width in [1u64, 7, 8, 9, 70] {
                    let sources = select_sources(&g, width, width ^ 0xA5A5);
                    let (index, range) = (SourceIndex::shared(sources.clone()), 0..sources.len());
                    for task in [Task::mssp(width), Task::bkhs(width), Task::bppr(width)] {
                        let label = format!("{system} ×{machines} {task:?}");
                        let params = BatchParams {
                            seed: 0x51 + width,
                            cutoff: OVERLOAD_CUTOFF,
                            residual_bytes: &[],
                        };
                        let got = run_one_batch(
                            &g,
                            &engine,
                            params,
                            system,
                            task,
                            width,
                            BatchSources::Slice(&sources),
                            &shared,
                        );
                        let (index, range) = (Arc::clone(&index), range.clone());
                        let by_width = Kernel::choose(range.len(), true);
                        let (kernel, want) = match (task, broadcast, by_width) {
                            (Task::Bppr { alpha, .. }, true, _) => {
                                let p = BpprPushSlabProgram::new(width, alpha, n);
                                (Row, reference(&g, &engine, params, &p, push_rule))
                            }
                            (Task::Bppr { alpha, .. }, false, _) => {
                                let p = BpprSlabProgram::new(width, alpha, n);
                                (Row, reference(&g, &engine, params, &p, walk_rule))
                            }
                            (Task::Mssp { .. }, true, _) => {
                                let p = MsspBroadcastSlabProgram::batch(index, range);
                                (Row, reference(&g, &engine, params, &p, mssp_rule))
                            }
                            (Task::Mssp { .. }, false, Lane) => {
                                let p = MsspLaneSlabProgram::batch(index, range);
                                (Lane, reference(&g, &engine, params, &p, mssp_rule))
                            }
                            (Task::Mssp { .. }, false, Row) => {
                                let p = MsspSlabProgram::batch(index, range);
                                (Row, reference(&g, &engine, params, &p, mssp_rule))
                            }
                            (Task::Bkhs { k, .. }, true, _) => {
                                let p = BkhsBroadcastSlabProgram::batch(index, range, k);
                                (Row, reference(&g, &engine, params, &p, bkhs_rule))
                            }
                            (Task::Bkhs { k, .. }, false, Lane) => {
                                let p = BkhsLaneSlabProgram::batch(index, range, k);
                                (Lane, reference(&g, &engine, params, &p, bkhs_rule))
                            }
                            (Task::Bkhs { k, .. }, false, Row) => {
                                let p = BkhsSlabProgram::batch(index, range, k);
                                (Row, reference(&g, &engine, params, &p, bkhs_rule))
                            }
                        };
                        let (outcome, stats, residual) = want;
                        assert!(outcome.is_completed(), "{label}");
                        assert!(residual.iter().sum::<u64>() > 0, "{label}");
                        assert_eq!(got.kernel, kernel, "{label}");
                        assert_eq!(got.outcome, outcome, "{label}");
                        assert_eq!(got.stats, stats, "{label}");
                        assert_eq!(got.residual_delta, residual, "{label}");
                    }
                }
            }
        }
    }
}
