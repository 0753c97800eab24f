//! The BSP round loop: execute, route, price, repeat.
//!
//! [`Runner::run_slab`] executes a [`SlabProgram`] over a partitioned
//! graph under a [`SystemProfile`], assembling a [`RoundDemand`] per
//! round and pricing it with the cluster's [`CostModel`]. Execution is
//! *real* — states and messages are actually computed, so task outputs
//! can be validated — while time, memory pressure, spill, and overuse
//! are simulated (DESIGN.md §4).
//!
//! Each round decides from the work it holds whether its compute and
//! routing stages fan out to the job's [`WorkerPool`] — one long-lived
//! thread per partition worker, owned by the [`Topology`] every batch
//! of the job shares and spawned by the first round that fans out — or
//! run inline on the calling thread. A round fans out when it holds at
//! least `FANOUT_LOAD` (16 384) seeds or delivered messages and no
//! other batch's round holds the pool. The round buffers (inboxes,
//! routing shards) are recycled across rounds, so a steady-state round
//! is allocation-free on the envelope path.

use crate::message::Message;
use crate::paging::{PagedLayout, PagerRound, PagerSnapshot, WorkerPager};
use crate::pool::{dispatch, WorkerPool};
use crate::profile::{SyncMode, SystemProfile};
use crate::program::{Context, EmitSink, PagedNeighbors, ProgramCore};
use crate::router::{Inbox, RouteGrid, RoutingStats};
use crate::slab::{PerSlab, SlabProgram, SlabRecycler, SlabRow, StateSlab};
use crate::topology::Topology;
use mtvc_cluster::{
    ChargeError, ClusterSpec, CostModel, FaultInjector, FaultKind, FaultPlan, MachineSpec,
    RoundDemand,
};
use mtvc_graph::hash::mix64;
use mtvc_graph::ooc::DecodedChunk;
use mtvc_graph::partition::{Partition, Partitioner};
use mtvc_graph::{Graph, VertexId};
use mtvc_metrics::{Bytes, FaultStats, RoundStats, RunOutcome, RunStats, SimTime, OVERLOAD_CUTOFF};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::Arc;

/// Work a round must hold — seeds in round 0, delivered messages
/// after — for its compute and route stages to fan out to the worker
/// pool. Below it the hand-off, two wake-ups of every pool thread per
/// round (compute, then the routing merge), costs more than it saves.
/// Set by a sweep on 2 vCPUs, when a pooled round still paid a third
/// wake-up for the shard epilogue: 4 096 slowed the narrow workloads
/// more, and 65 536 or more left `job-wide` too little of its gain.
/// That sweep also ran while the pool threads' sinks bumped one shared
/// wire-counter cache line on every emit. Re-swept on `job-narrow`
/// without it, 2 048 and 4 096 each beat 16 384 in 8 of 10 blocks, by
/// −0.6 % and −7.4 % in the median: not the 9 of 10 a move needs, so
/// the constant stays (EXPERIMENTS.md, the cut-over sweep and its
/// re-sweep).
///
/// The load counts deliveries, not the messages a round will emit.
/// Width-1 BKHS rounds emit many wire messages per delivery (a median
/// of 56 per round in `job-narrow`'s BKHS(512)×512 cell; 11.9 M against
/// 388 264 deliveries over its 1 508 rounds), yet none holds more than
/// 9 227 deliveries, so none fans out. Counting each delivered vertex's
/// out-degree as well pooled 257 of those rounds and made the cell
/// slower, 395 → 419 ms in 6 of 6 alternating blocks (the fan-out
/// negative result in EXPERIMENTS.md), so the load stays at deliveries.
const FANOUT_LOAD: usize = 16_384;

/// Whether a round holding `load` fans out: the one place the engine
/// chooses between the pool and the calling thread.
fn fans_out(load: usize) -> bool {
    #[cfg(test)]
    if let Some(forced) = tests::forced_fanout(load) {
        return forced;
    }
    load >= FANOUT_LOAD
}

/// Everything needed to execute one run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub cluster: ClusterSpec,
    pub profile: SystemProfile,
    /// Seed for all per-vertex randomness (deterministic runs).
    pub seed: u64,
    /// Hard bound on rounds (runaway guard; exceeding it = Overload).
    pub max_rounds: usize,
    /// Simulated-time cutoff; exceeding it = Overload (paper: 6000 s).
    pub cutoff: SimTime,
    /// Residual memory per worker left behind by earlier batches
    /// (§4.5/§4.7); empty = zeros.
    pub residual_bytes: Vec<u64>,
    /// Checkpoint cadence with `faults` set: a full snapshot before
    /// round 0 and every `checkpoint_every` rounds after (`0` and `1`
    /// both mean every round); a rollback restores the latest one.
    /// Fault-free runs never checkpoint.
    pub checkpoint_every: usize,
    /// Injected-fault schedule; `None` = fault-free run. Crashes,
    /// delivery failures and partitions recover by rollback-replay,
    /// corruption by retransmission, and stragglers cost slowed rounds;
    /// the extra work is booked to `RunStats::faults` only, so every
    /// other statistic, the states and the outcome match the fault-free
    /// run bit for bit.
    pub faults: Option<FaultPlan>,
}

impl EngineConfig {
    pub fn new(cluster: ClusterSpec, profile: SystemProfile) -> EngineConfig {
        EngineConfig {
            cluster,
            profile,
            seed: 0x5EED,
            max_rounds: 10_000,
            cutoff: OVERLOAD_CUTOFF,
            residual_bytes: Vec::new(),
            checkpoint_every: 8,
            faults: None,
        }
    }

    /// Set the checkpoint cadence ([`EngineConfig::checkpoint_every`]).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Arm an injected-fault schedule ([`EngineConfig::faults`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// What changes from one batch of a job to the next: the per-batch
/// counterparts of [`EngineConfig`] fields. A job keeps
/// one `EngineConfig` for everything else and hands each batch's runner
/// these by reference ([`Runner::for_batch`]), so nothing is cloned per
/// batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchParams<'a> {
    /// Seed for all per-vertex randomness of this batch.
    pub seed: u64,
    /// Simulated-time cutoff left for this batch.
    pub cutoff: SimTime,
    /// Residual memory per worker left behind by earlier batches;
    /// empty = zeros.
    pub residual_bytes: &'a [u64],
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunResult<S> {
    pub outcome: RunOutcome,
    pub stats: RunStats,
    /// Final per-vertex outputs, indexed by vertex id: one per vertex
    /// of the graph, whatever the outcome (an Overload or Overflow run
    /// leaves its partial progress). A vertex the run never wrote holds
    /// `S::default()`.
    pub states: Vec<S>,
}

/// What one round hands the next besides the vertex states: the
/// grouped inboxes holding the in-flight messages and the previous
/// routing step's per-worker delivery aggregates — those messages are
/// processed (and their buffers are resident) in the *current* round,
/// so they feed its demand assembly. Checkpoints copy it whole.
struct RoundCarry<M> {
    inboxes: Vec<Inbox<M>>,
    /// Messages each worker processes this round: delivered tuples
    /// under a combiner, wire messages without one.
    prev_processed: Vec<u64>,
    /// Message-buffer bytes each worker received last round.
    prev_in_bytes: Vec<u64>,
}

/// `dst.clone_from(src)` for vectors, guaranteed to reuse both the
/// outer buffer and (via each element's `clone_from`) the inner ones.
fn recycle_into<T: Clone>(dst: &mut Vec<T>, src: &[T]) {
    dst.truncate(src.len());
    let shared = dst.len();
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
    dst.extend(src[shared..].iter().cloned());
}

impl<M: Clone> RoundCarry<M> {
    /// The carry into round 0 of `workers` workers: nothing in flight,
    /// nothing delivered. The inboxes are `inboxes`, emptied, keeping
    /// their capacity.
    fn new(mut inboxes: Vec<Inbox<M>>, workers: usize) -> Self {
        inboxes.resize_with(workers, Inbox::new);
        inboxes.iter_mut().for_each(Inbox::clear);
        RoundCarry {
            inboxes,
            prev_processed: vec![0; workers],
            prev_in_bytes: vec![0; workers],
        }
    }

    /// `self.clone_from(src)` by field-wise [`recycle_into`]: a
    /// checkpoint refilled every cadence round allocates only when
    /// traffic grows.
    fn recycle_from(&mut self, src: &Self) {
        recycle_into(&mut self.inboxes, &src.inboxes);
        recycle_into(&mut self.prev_processed, &src.prev_processed);
        recycle_into(&mut self.prev_in_bytes, &src.prev_in_bytes);
    }

    /// Carry this round's deliveries into the next: what each worker
    /// processes (tuples under a `combiner`) and the bytes it holds.
    fn advance(&mut self, routing: &RoutingStats, combiner: bool) {
        let processed = if combiner {
            &routing.in_tuples
        } else {
            &routing.in_wire
        };
        self.prev_processed.copy_from_slice(processed);
        self.prev_in_bytes.copy_from_slice(&routing.in_buffer_bytes);
    }
}

/// Snapshot of everything the round loop needs to re-enter a superstep:
/// per-worker vertex states and the [`RoundCarry`] of the checkpointed
/// round. One buffer per run, refilled in place every cadence round, so
/// steady-state checkpointing allocates only when traffic grows.
struct Checkpoint<S, M> {
    round: usize,
    states: Vec<S>,
    carry: RoundCarry<M>,
    /// Per-worker pager resident sets (empty on fully-resident runs):
    /// rollback restores the partition caches to this exact state so
    /// replayed rounds evolve them identically to the first execution.
    pagers: Vec<PagerSnapshot>,
}

impl<S: Clone, M: Clone> Checkpoint<S, M> {
    fn save(&mut self, round: usize, states: &[S], carry: &RoundCarry<M>, pagers: &[WorkerPager]) {
        self.round = round;
        recycle_into(&mut self.states, states);
        self.carry.recycle_from(carry);
        self.pagers = pagers.iter().map(WorkerPager::snapshot).collect();
    }

    /// Put `states`, `carry` and the pager caches back as saved;
    /// returns the round they belong to.
    fn restore(
        &self,
        states: &mut Vec<S>,
        carry: &mut RoundCarry<M>,
        pagers: &mut [WorkerPager],
    ) -> usize {
        recycle_into(states, &self.states);
        carry.recycle_from(&self.carry);
        for (pager, snap) in pagers.iter_mut().zip(&self.pagers) {
            pager.restore(snap);
        }
        self.round
    }
}

/// The round loop's traffic-sized buffers — route grid, inboxes and
/// checkpoint. A run recycles them across its rounds, then parks them
/// ([`Topology::park_spare`]) so the next batch of the job on the same
/// thread starts with the capacity (and the memory pages) the last one
/// grew, instead of growing megabytes afresh — which costs page faults
/// that come and go with the allocator's choice to keep or return
/// freed memory.
struct RoundBuffers<S, M> {
    grid: RouteGrid<M>,
    inboxes: Vec<Inbox<M>>,
    checkpoint: Option<Checkpoint<S, M>>,
}

/// A prepared executor bound to a graph, partition, and configuration.
///
/// The graph-proportional half — partition indexes, mirrors, the paged
/// layout, the worker pool — lives in a shared [`Topology`]; a runner
/// adds only the configuration, so preparing one per batch is cheap.
pub struct Runner<'g> {
    graph: &'g Graph,
    topology: Arc<Topology>,
    config: Cow<'g, EngineConfig>,
    /// Per-batch values taking precedence over the same-named `config`
    /// fields; `None` for a stand-alone runner, which reads its own
    /// config.
    batch: Option<BatchParams<'g>>,
}

impl<'g> Runner<'g> {
    /// Prepare a runner. The partitioner must produce exactly
    /// `config.cluster.machines` workers.
    pub fn new(
        graph: &'g Graph,
        partitioner: &dyn Partitioner,
        config: EngineConfig,
    ) -> Runner<'g> {
        let partition = partitioner.partition(graph, config.cluster.machines);
        Self::with_partition(graph, partition, config)
    }

    /// Prepare a runner with a pre-built partition: build the
    /// [`Topology`], then use it.
    pub fn with_partition(
        graph: &'g Graph,
        partition: Partition,
        config: EngineConfig,
    ) -> Runner<'g> {
        let topology = Arc::new(Topology::build(graph, partition, &config.profile));
        Self::assemble(graph, topology, Cow::Owned(config), None)
    }

    /// Prepare the runner of one batch of a job. `topology` (built for
    /// `config.profile`) and `config` are the job's, made once; `batch`
    /// carries what differs per batch and overrides the same-named
    /// fields of `config`.
    pub fn for_batch(
        graph: &'g Graph,
        topology: &Arc<Topology>,
        config: &'g EngineConfig,
        batch: BatchParams<'g>,
    ) -> Runner<'g> {
        Self::assemble(
            graph,
            Arc::clone(topology),
            Cow::Borrowed(config),
            Some(batch),
        )
    }

    fn assemble(
        graph: &'g Graph,
        topology: Arc<Topology>,
        config: Cow<'g, EngineConfig>,
        batch: Option<BatchParams<'g>>,
    ) -> Runner<'g> {
        let workers = topology.partition.num_workers();
        assert_eq!(
            workers, config.cluster.machines,
            "partition workers must match cluster machines"
        );
        assert_eq!(topology.partition.num_vertices(), graph.num_vertices());
        let runner = Runner {
            graph,
            topology,
            config,
            batch,
        };
        let residual = runner.batch_params().residual_bytes;
        assert!(
            residual.is_empty() || residual.len() == workers,
            "residual_bytes must be empty or per-worker"
        );
        runner
    }

    /// Seed, cutoff and residual this runner executes under: the
    /// batch's, or the config's own.
    fn batch_params(&self) -> BatchParams<'_> {
        self.batch.unwrap_or(BatchParams {
            seed: self.config.seed,
            cutoff: self.config.cutoff,
            residual_bytes: &self.config.residual_bytes,
        })
    }

    pub fn partition(&self) -> &Partition {
        &self.topology.partition
    }

    /// The paged-adjacency layout, if this runner executes the real
    /// out-of-core path (see [`PagedLayout`]).
    pub fn paged_layout(&self) -> Option<&PagedLayout> {
        self.topology.paged.as_ref()
    }

    /// Execute `program` to completion (quiescence, fixed round bound,
    /// overload cutoff, or overflow), with one [`StateSlab`] per worker
    /// holding its vertices' rows.
    pub fn run_slab<P: SlabProgram>(&self, program: &P) -> RunResult<P::Out> {
        self.run_dense(program, &PerSlab::new(program))
    }

    /// [`Runner::run_slab`], drawing worker slabs from (and retiring
    /// them to) `recycler` so consecutive batches reuse allocations.
    pub fn run_slab_recycled<P: SlabProgram>(
        &self,
        program: &P,
        recycler: &SlabRecycler<P::Cell>,
    ) -> RunResult<P::Out> {
        self.run_dense(program, &PerSlab::with_recycler(program, recycler))
    }

    /// [`Runner::run_slab_recycled`] with no output extracted: per
    /// worker, the sum of `fold` over the rows the batch wrote, read
    /// straight from the slab cells. Callers that only fold the state
    /// (residual-memory accounting) never build one `Out` per vertex.
    pub fn run_slab_fold<P: SlabProgram>(
        &self,
        program: &P,
        recycler: &SlabRecycler<P::Cell>,
        fold: impl Fn(SlabRow<'_, P::Cell>) -> u64,
    ) -> (RunOutcome, RunStats, Vec<u64>) {
        self.run_core(&PerSlab::with_recycler(program, recycler), |_, slab| {
            let mut sum = 0;
            slab.for_each_written_row(|_, row| sum += fold(row));
            sum
        })
    }

    /// Run `core`, then extract every written row and scatter it into
    /// per-vertex states; an unwritten vertex gets `Out::default()`.
    fn run_dense<P: SlabProgram>(&self, program: &P, core: &PerSlab<'_, P>) -> RunResult<P::Out> {
        let mut states = vec![P::Out::default(); self.graph.num_vertices()];
        let (outcome, stats, _) = self.run_core(core, |vertices, slab| {
            slab.for_each_written_row(|li, row| {
                let v = vertices[li as usize];
                states[v as usize] = program.extract(v, row);
            })
        });
        RunResult {
            outcome,
            stats,
            states,
        }
    }

    /// The round loop: stop check → recovery → fan-out → compute →
    /// route → account → advance, round after round, over one slab per
    /// worker.
    /// `finish` sees each worker's vertex list and final slab, in worker
    /// order, before the slabs are recycled.
    fn run_core<P: SlabProgram, R>(
        &self,
        program: &PerSlab<'_, P>,
        mut finish: impl FnMut(&[VertexId], &StateSlab<P::Cell>) -> R,
    ) -> (RunOutcome, RunStats, Vec<R>) {
        let Topology { locals, paged, .. } = &*self.topology;
        let profile = &self.config.profile;
        let batch = self.batch_params();
        let seeds = self.seed_locals(program.seeds());
        let seeded = seeds.iter().map(Vec::len).sum();
        let mut states: Vec<StateSlab<P::Cell>> = locals
            .worker_vertices()
            .iter()
            .map(|list| program.make_store(list))
            .collect();
        let mut ledger = Ledger::new(self, batch, &states, program.message_bytes());
        // Round buffers, all recycled across rounds: the compute stage
        // drains the inboxes in place while emitting into the grid's
        // shard matrix, and the route stage refills the inboxes — every
        // Vec keeps the capacity last round's traffic shaped. They start
        // as the buffers the previous run on this thread parked, if it
        // ran over this topology: a drained grid is as good as new.
        let spare: Option<RoundBuffers<StateSlab<P::Cell>, P::Message>> =
            self.topology.take_spare();
        let (mut grid, inboxes, mut checkpoint) = match spare {
            Some(b) => (b.grid, b.inboxes, b.checkpoint),
            None => (RouteGrid::new(states.len()), Vec::new(), None),
        };
        let mut carry = RoundCarry::new(inboxes, states.len());
        // Fresh (cold) partition caches on a paged run, none on a
        // resident one.
        let mut pagers = paged
            .as_ref()
            .map_or_else(Vec::new, PagedLayout::make_pagers);
        let mut recovery = Recovery::arm(&self.config, &ledger, &mut checkpoint);

        let mut outcome = None;
        let mut round = 0usize;
        loop {
            // ---- stop check ----------------------------------------
            if round > 0
                && (carry.inboxes.iter().all(Inbox::is_empty)
                    || program.max_rounds().is_some_and(|max| round > max))
            {
                break; // quiescent, or past a fixed horizon (BKHS)
            }
            if round > self.config.max_rounds {
                outcome = Some(RunOutcome::Overload);
                break;
            }
            // ---- recovery ------------------------------------------
            let rollback = recovery
                .as_mut()
                .and_then(|rec| rec.begin_round(round, &mut states, &mut carry, &mut pagers));
            if let Some(restored) = rollback {
                round = restored;
                continue;
            }
            // ---- fan-out -------------------------------------------
            // Decided afresh every round, replays included: the pool
            // changes where a stage runs, never what it computes.
            let load = match round {
                0 => seeded,
                _ => carry.inboxes.iter().map(Inbox::len).sum(),
            };
            let pool = fans_out(load).then(|| self.topology.try_pool()).flatten();
            let pool = pool.as_deref();
            // ---- compute -------------------------------------------
            let pass = Pass {
                program,
                graph: self.graph,
                seeds: &seeds,
                round,
                seed: batch.seed,
            };
            let work = self.compute(pool, &pass, &mut carry, &mut grid, &mut states, &mut pagers);
            // ---- route ---------------------------------------------
            let routing = grid.route_presharded(
                pool,
                &mut carry.inboxes,
                locals,
                program.message_bytes(),
                profile.combiner,
            );
            // ---- account -------------------------------------------
            outcome = ledger.account(round, &work, &carry, routing, recovery.as_mut());
            if outcome.is_some() {
                break;
            }
            // ---- advance -------------------------------------------
            carry.advance(routing, profile.combiner);
            round += 1;
        }

        let finished = (locals.worker_vertices().iter().zip(&states))
            .map(|(list, slab)| finish(list, slab))
            .collect();
        program.recycle(states);
        let mut stats = ledger.stats;
        if let Some(rec) = recovery {
            stats.faults = rec.faults;
            checkpoint = Some(rec.checkpoint);
        }
        // Every exit follows a merge (or precedes any compute), so the
        // grid is drained; `RoundCarry::new` empties the inboxes.
        self.topology.park_spare(RoundBuffers {
            grid,
            inboxes: carry.inboxes,
            checkpoint,
        });
        let outcome = outcome.unwrap_or(RunOutcome::Completed(ledger.total));
        (outcome, stats, finished)
    }

    /// Per worker, the local indices round 0 initializes, ascending and
    /// distinct: the program's seed vertices, or every local index when
    /// it names none — one list either way, so round 0 has one loop.
    fn seed_locals(&self, seeds: Option<&[VertexId]>) -> Vec<Vec<u32>> {
        let Topology {
            partition, locals, ..
        } = &*self.topology;
        let lists = locals.worker_vertices();
        match seeds {
            None => lists
                .iter()
                .map(|list| (0..list.len() as u32).collect())
                .collect(),
            Some(seeds) => {
                let mut per_worker = vec![Vec::new(); lists.len()];
                for &v in seeds {
                    per_worker[partition.owner_of(v) as usize].push(locals.local_of(v));
                }
                for list in &mut per_worker {
                    list.sort_unstable();
                    list.dedup();
                }
                per_worker
            }
        }
    }

    /// The compute stage: every worker's [`Pass`] drains its inbox in
    /// `carry` into its [`ShardedOutbox`](crate::ShardedOutbox) sink,
    /// so envelopes land pre-sharded and pre-folded in `grid`. `pagers`
    /// is empty on a resident run. With a `pool`, worker `w` runs on
    /// pool thread `w`.
    ///
    /// The last round of a fixed horizon sends messages that the stop
    /// check drops unread. Without a combiner its statistics are known
    /// at emission, so it is a *counted* round: the workers emit into
    /// [`CountingOutbox`](crate::CountingOutbox) sinks, which count
    /// exactly what the routed round would and store nothing.
    fn compute<C: ProgramCore>(
        &self,
        pool: Option<&WorkerPool>,
        pass: &Pass<'_, C>,
        carry: &mut RoundCarry<C::Message>,
        grid: &mut RouteGrid<C::Message>,
        states: &mut [C::Store],
        pagers: &mut [WorkerPager],
    ) -> Work {
        let topo = &*self.topology;
        let combine = self.config.profile.combiner;
        let (graph, mirrors) = (self.graph, topo.mirrors.as_ref());
        let msg_bytes = pass.program.message_bytes();
        grid.begin_round(combine, &topo.locals);
        let counted = !combine && pass.program.max_rounds() == Some(pass.round);
        let active = if counted {
            let sinks = grid.count_sinks(graph, &topo.partition, mirrors, msg_bytes);
            pass.run(pool, topo, &mut carry.inboxes, sinks, states, pagers)
        } else {
            let sinks = grid.emit_sinks(graph, &topo.partition, &topo.locals, mirrors, msg_bytes);
            pass.run(pool, topo, &mut carry.inboxes, sinks, states, pagers)
        };
        Work {
            active,
            paged: pagers.iter_mut().map(WorkerPager::take_round).collect(),
        }
    }
}

/// What the compute stage measured of one round: per worker, the
/// vertices it activated and its pager's movement (none on a resident
/// run), which feed the cost model's disk terms and memory ledger.
struct Work {
    active: Vec<u64>,
    paged: Vec<PagerRound>,
}

/// What every worker's share of one round reads and none writes: the
/// program, the graph, each worker's round-0 seeds, the round and the
/// batch seed.
struct Pass<'a, C> {
    program: &'a C,
    graph: &'a Graph,
    seeds: &'a [Vec<u32>],
    round: usize,
    seed: u64,
}

impl<C: ProgramCore> Pass<'_, C> {
    /// Run every worker's share of the round, worker `w` draining
    /// `inboxes[w]` into the `w`-th of `sinks`; returns each worker's
    /// active-vertex count.
    fn run<S: EmitSink<C::Message> + Send>(
        &self,
        pool: Option<&WorkerPool>,
        topo: &Topology,
        inboxes: &mut [Inbox<C::Message>],
        sinks: impl Iterator<Item = S>,
        states: &mut [C::Store],
        pagers: &mut [WorkerPager],
    ) -> Vec<u64> {
        let worker_vertices = topo.locals.worker_vertices();
        let mut active = vec![0u64; states.len()];
        let mut worker_pagers = pagers.iter_mut();
        let per_worker = (inboxes.iter_mut().zip(sinks))
            .zip(states.iter_mut())
            .zip(active.iter_mut())
            .map(|item| (item, worker_pagers.next()));
        dispatch(
            pool,
            per_worker,
            |w, ((((inbox, mut sink), store), slot), pager)| {
                *slot = self.worker(w, &worker_vertices[w], inbox, &mut sink, store, pager);
            },
        );
        active
    }

    /// Execute worker `w`'s share of the round over its `vertices`
    /// (local-index order): one pass over the inbox's runs, grouped by
    /// local index at the merge, each vertex handed its messages as a
    /// borrowed slice — no sorting, no clones, no allocation. The inbox
    /// is cleared after (capacity kept); emissions land in `sink`.
    ///
    /// The pass is partition-major. A resident worker (`pager: None`)
    /// is one partition served by the [`Graph`]; an out-of-core one
    /// streams every partition, whether or not a run lands in it
    /// (GraphD's full edge pass), through `pager`'s bounded cache.
    /// Partitions and runs both ascend by local index, so the compute
    /// sequence is the same either way; the pager only moves bytes.
    fn worker(
        &self,
        w: usize,
        vertices: &[VertexId],
        inbox: &mut Inbox<C::Message>,
        sink: &mut dyn EmitSink<C::Message>,
        store: &mut C::Store,
        mut pager: Option<&mut WorkerPager>,
    ) -> u64 {
        let (program, graph, round, seed) = (self.program, self.graph, self.round, self.seed);
        let partitions = pager.as_ref().map_or(1, |p| p.partitions());
        let all = vertices.len() as u32;
        if round == 0 {
            // Round 0 is a full superstep to the model — every vertex
            // counts as active, and on a paged run every partition
            // streams through the cache — though only the seeds
            // (ascending, so one cursor walks them) can do anything in
            // `init`. A worker's vertex list is in local-index order,
            // so the local index IS the position.
            let mut next = self.seeds[w].iter().copied().peekable();
            for p in 0..partitions {
                let hi = pager.as_deref_mut().map_or(all, |pager| {
                    pager.ensure_resident(p);
                    pager.partition_range(p).1
                });
                let chunk = pager.as_deref().map(|pager| pager.chunk(p));
                while let Some(li) = next.next_if(|&li| li < hi) {
                    let v = vertices[li as usize];
                    let mut rng = vertex_rng(seed, round, v);
                    let mut ctx = vertex_context(v, li, round, graph, chunk, &mut rng, sink);
                    program.init_vertex(v, li, store, &mut ctx);
                }
            }
            return all as u64;
        }

        let runs = inbox.runs();
        let deliveries = inbox.deliveries();
        let mut ri = 0usize;
        let mut start = 0usize;
        for p in 0..partitions {
            let hi = pager.as_deref_mut().map_or(all, |pager| {
                pager.ensure_resident(p);
                pager.partition_range(p).1
            });
            let chunk = pager.as_deref().map(|pager| pager.chunk(p));
            while ri < runs.len() && runs[ri].local < hi {
                let run = runs[ri];
                let msgs = &deliveries[start..run.end as usize];
                start = run.end as usize;
                ri += 1;
                let mut rng = vertex_rng(seed, round, run.dest);
                let mut ctx =
                    vertex_context(run.dest, run.local, round, graph, chunk, &mut rng, sink);
                program.compute_vertex(run.dest, run.local, store, msgs, &mut ctx);
            }
        }
        debug_assert_eq!(ri, runs.len(), "every delivered run must compute");
        let active = runs.len() as u64;
        // Recycle: the routing merge stage refills this inbox, reusing
        // the capacity this round's traffic established.
        inbox.clear();
        active
    }
}

/// The [`Context`] of one vertex activation: adjacency from the pinned
/// `chunk` on a paged pass, from the resident `graph` otherwise.
fn vertex_context<'a, M: Message>(
    v: VertexId,
    li: u32,
    round: usize,
    graph: &'a Graph,
    chunk: Option<&'a DecodedChunk>,
    rng: &'a mut SmallRng,
    sink: &'a mut dyn EmitSink<M>,
) -> Context<'a, M> {
    match chunk {
        Some(chunk) => {
            let paged = PagedNeighbors {
                neighbors: chunk.neighbors_of(li),
                weights: chunk.weights_of(li),
            };
            Context::new_paged(v, round, graph, paged, rng, sink)
        }
        None => Context::new(v, round, graph, rng, sink),
    }
}

/// Everything fault-related in a run with a [`FaultPlan`]; a
/// fault-free run has none, so it takes no snapshots and makes no
/// per-round fault checks. Every event, snapshot and replayed round is
/// booked to `faults` only, so every other statistic — and the final
/// states and outcome — match the fault-free run bit for bit.
struct Recovery<S, M> {
    injector: FaultInjector,
    hard_oom: bool,
    /// Checkpoint cadence in rounds, at least 1.
    every: usize,
    /// The latest snapshot, refilled in place every cadence round.
    checkpoint: Checkpoint<S, M>,
    checkpoint_bytes: u64,
    /// Rounds below this index were already executed (and booked)
    /// before a rollback; re-running them is replay, not first run.
    replay_until: usize,
    /// Per machine, the straggler window `(until, factor)`: compute
    /// slowed by `factor` before round `until`.
    stragglers: Vec<(usize, f64)>,
    /// Seconds of one unscaled barrier; a partition stalls each round.
    barrier_secs: f64,
    network_bandwidth: f64,
    faults: FaultStats,
}

impl<S: Clone, M: Clone> Recovery<S, M> {
    /// Arm `config`'s fault plan, if any, for a run priced by `ledger`,
    /// snapshotting into the `spare` checkpoint a previous run parked.
    fn arm(
        config: &EngineConfig,
        ledger: &Ledger<'_>,
        spare: &mut Option<Checkpoint<S, M>>,
    ) -> Option<Self> {
        let plan = config.faults.as_ref()?;
        let workers = ledger.state_bytes.len();
        let injector = FaultInjector::new(plan);
        Some(Recovery {
            hard_oom: injector.hard_oom(),
            injector,
            every: config.checkpoint_every.max(1),
            checkpoint: spare.take().unwrap_or_else(|| Checkpoint {
                round: 0,
                states: Vec::new(),
                carry: RoundCarry::new(Vec::new(), 0),
                pagers: Vec::new(),
            }),
            checkpoint_bytes: ledger.state_bytes.iter().sum(),
            replay_until: 0,
            stragglers: vec![(0, 1.0); workers],
            barrier_secs: ledger.barrier_secs,
            network_bandwidth: ledger.spec.network_bandwidth,
            faults: FaultStats::default(),
        })
    }

    /// Whether `round` re-runs a round already on the books.
    fn replaying(&self, round: usize) -> bool {
        round < self.replay_until
    }

    /// Open `round`: checkpoint at the cadence, then fire every fault
    /// scheduled for it and book each. If any of them demands a
    /// rollback, restore `states`, `carry` and the pager caches from
    /// the latest checkpoint and return the round to resume from.
    fn begin_round(
        &mut self,
        round: usize,
        states: &mut Vec<S>,
        carry: &mut RoundCarry<M>,
        pagers: &mut [WorkerPager],
    ) -> Option<usize> {
        // Snapshot before this round's compute touches anything — but
        // never during replay (the saved snapshot already covers the
        // replay window). Round 0 always saves, so a checkpoint exists
        // before any fault can fire.
        if !self.replaying(round) && round.is_multiple_of(self.every) {
            self.checkpoint.save(round, states, carry, pagers);
            self.faults.checkpoint_full_bytes += Bytes(self.checkpoint_bytes);
            self.faults.checkpoints += 1;
        }
        // Every event co-scheduled for this round fires in one call;
        // the rollback (if any of them demands one) happens once,
        // after all of them are booked.
        let workers = self.stragglers.len();
        let f = &mut self.faults;
        let mut rollback = false;
        for event in self.injector.take_all_at(round) {
            f.injected += 1;
            match event.kind {
                FaultKind::MachineCrash { .. } => {
                    f.crashes += 1;
                    rollback = true;
                }
                FaultKind::DeliveryFailure { .. } => {
                    f.delivery_failures += 1;
                    rollback = true;
                }
                FaultKind::Partition { rounds } => {
                    // Connectivity is gone for `rounds` rounds: every
                    // machine stalls at the barrier until the partition
                    // heals, then the lost deliveries recover by
                    // rollback-replay like any other delivery failure.
                    f.partitions += 1;
                    f.recovery_time += SimTime::secs(rounds as f64 * self.barrier_secs);
                    rollback = true;
                }
                FaultKind::Straggler {
                    machine,
                    factor_pct,
                    rounds,
                } => {
                    f.stragglers += 1;
                    if let Some((until, slow)) = self.stragglers.get_mut(machine) {
                        let factor = f64::from(factor_pct) / 100.0;
                        *slow = if round < *until {
                            slow.max(factor)
                        } else {
                            factor
                        };
                        *until = (*until).max(round + rounds);
                    }
                }
                FaultKind::PayloadCorruption { machine, flips } => {
                    // Modelled, not decoded: each flip re-sends one
                    // bucket, the machine's per-peer share of last
                    // round's inbound bytes, priced as transfer time.
                    f.corrupted_buckets += u64::from(flips);
                    f.retransmitted_buckets += u64::from(flips);
                    let inbound = carry.prev_in_bytes.get(machine).copied().unwrap_or(0);
                    let peers = (workers as u64 - 1).max(1);
                    let bytes = u64::from(flips) * (inbound / peers);
                    f.retransmitted_bytes += Bytes(bytes);
                    if self.network_bandwidth > 0.0 {
                        f.recovery_time += SimTime::secs(bytes as f64 / self.network_bandwidth);
                    }
                }
            }
        }
        if !rollback {
            return None;
        }
        // Global rollback — the canonical Pregel recovery: restore the
        // last checkpoint and replay forward. The events are consumed
        // (transient semantics), so the replayed superstep passes the
        // failure point cleanly and recovery terminates.
        self.replay_until = self.replay_until.max(round);
        Some(self.checkpoint.restore(states, carry, pagers))
    }

    /// Book the straggler windows open at first-run `round`: re-price
    /// it with the slowed machines' compute scaled up and book only the
    /// *excess* over the `healthy` charge.
    fn book_stragglers(
        &mut self,
        round: usize,
        demand: &RoundDemand,
        healthy: SimTime,
        ledger: &Ledger<'_>,
    ) {
        if self.stragglers.iter().all(|&(until, _)| round >= until) {
            return;
        }
        let mut slow = demand.clone();
        for (ops, &(until, factor)) in slow.compute_ops.iter_mut().zip(&self.stragglers) {
            if round < until {
                *ops *= factor;
            }
        }
        if let Ok(slow_charge) = CostModel::default().charge(ledger.spec, &slow) {
            let excess = slow_charge.duration - healthy;
            if excess > SimTime::ZERO {
                self.faults.straggler_time += excess;
            }
        }
    }
}

/// The account stage: the run-constant inputs that price a round
/// (DESIGN.md §4 has the formulas) and the books it is entered in —
/// `stats` and first-run `total` time; replays go to the fault record.
struct Ledger<'r> {
    profile: &'r SystemProfile,
    spec: &'r MachineSpec,
    /// Adjacency bytes per worker, charged while resident.
    graph_bytes: &'r [u64],
    /// Per worker, its slab's dense charge, fixed for the run.
    state_bytes: Vec<u64>,
    /// Residual memory per worker left by earlier batches; empty = 0s.
    residual: &'r [u64],
    msg_bytes: u64,
    /// Seconds of one barrier before the profile scales it.
    barrier_secs: f64,
    cutoff: SimTime,
    stats: RunStats,
    total: SimTime,
}

impl<'r> Ledger<'r> {
    /// Open the books of `runner`'s run of `batch` over `states`,
    /// whose messages are `msg_bytes` each.
    fn new<C: Copy>(
        runner: &'r Runner<'_>,
        batch: BatchParams<'r>,
        states: &[StateSlab<C>],
        msg_bytes: u64,
    ) -> Self {
        let config = &*runner.config;
        // A slab's charge is its dense capacity, fixed for the run.
        let state_bytes: Vec<u64> = states.iter().map(StateSlab::resident_bytes).collect();
        Ledger {
            profile: &config.profile,
            spec: &config.cluster.machine,
            barrier_secs: CostModel::barrier_secs(states.len()),
            graph_bytes: &runner.topology.graph_bytes,
            state_bytes,
            residual: batch.residual_bytes,
            msg_bytes,
            cutoff: batch.cutoff,
            stats: RunStats::new(),
            total: SimTime::ZERO,
        }
    }

    /// Price and book one executed round from the `work` its compute
    /// stage measured, the `carry` it processed and its `routing`.
    /// Returns the outcome if the round ends the run: Overflow when it
    /// blew memory (or the hard-OOM fault killed it), Overload when
    /// first-run time passed the cutoff.
    fn account<S: Clone, M: Clone>(
        &mut self,
        round: usize,
        work: &Work,
        carry: &RoundCarry<M>,
        routing: &RoutingStats,
        recovery: Option<&mut Recovery<S, M>>,
    ) -> Option<RunOutcome> {
        let Work { active, paged } = work;
        let demand = self.demand(active, carry, routing, paged);
        // The hard-OOM fault kills a first run outright when a machine
        // exceeds physical memory, with no thrashing grace up to the
        // cost model's overflow limit (replays ran under it once).
        let killed = recovery
            .as_ref()
            .is_some_and(|r| r.hard_oom && !r.replaying(round))
            && demand.memory.iter().any(|&m| m > self.spec.memory);
        let charge = match CostModel::default().charge(self.spec, &demand) {
            Ok(charge) if !killed => charge,
            Ok(_) | Err(ChargeError::MemoryOverflow { .. }) => {
                // Killed, or over the model's overflow limit: record
                // the failed round's memory pressure so reports can
                // show what blew up, then abort.
                let peak = demand.memory.iter().copied().max().unwrap_or(Bytes::ZERO);
                self.stats.record_round(RoundStats {
                    round,
                    peak_machine_memory: peak,
                    ..RoundStats::default()
                });
                if let Some(rec) = recovery {
                    rec.faults.oom_kills += u64::from(killed);
                }
                return Some(RunOutcome::Overflow);
            }
        };
        let barrier = self.profile.barrier_scale() * self.barrier_secs;
        let duration = charge.duration + SimTime::secs(barrier);
        if let Some(rec) = recovery {
            if rec.replaying(round) {
                // Replayed work is pure recovery cost: the original
                // execution of this superstep is already on the books.
                rec.faults.replayed_rounds += 1;
                rec.faults.replayed_wire += routing.sent_wire;
                rec.faults.recovery_time += duration;
                return None;
            }
            rec.book_stragglers(round, &demand, charge.duration, self);
        }
        self.total += duration;
        // Disk overuse means 100% utilization (§4.4); with the barrier
        // included in the round duration the disk may no longer
        // dominate.
        let disk_overuse =
            if duration.as_secs() > 0.0 && charge.disk_busy.as_secs() / duration.as_secs() < 0.9 {
                SimTime::ZERO
            } else {
                charge.disk_overuse
            };
        let delivered = if self.profile.combiner {
            routing.delivered_tuples
        } else {
            routing.delivered_wire()
        };
        let paged_peak = paged.iter().map(|p| p.peak_resident_bytes).max();
        self.stats.record_round(RoundStats {
            round,
            messages_sent: routing.sent_wire,
            messages_delivered: delivered,
            network_bytes: Bytes(routing.net_out_bytes.iter().sum()),
            local_bytes: Bytes(routing.local_bytes),
            shard_copy_bytes: Bytes(routing.shard_copy_bytes),
            active_vertices: active.iter().sum(),
            peak_machine_memory: charge.peak_memory,
            state_bytes: Bytes(self.state_bytes.iter().copied().max().unwrap_or(0)),
            spilled_bytes: Bytes(demand.spill.iter().map(|b| b.get()).sum()),
            loaded_bytes: Bytes(paged.iter().map(|p| p.loaded_bytes).sum()),
            partition_loads: paged.iter().map(|p| p.partition_loads).sum(),
            paged_resident_bytes: Bytes(paged_peak.unwrap_or(0)),
            duration,
            network_overuse: charge.network_overuse,
            disk_overuse,
            disk_busy: charge.disk_busy,
            io_queue_len: charge.io_queue_len,
        });
        (self.total > self.cutoff).then_some(RunOutcome::Overload)
    }

    /// The [`RoundDemand`] of one round's measurements.
    fn demand<M>(
        &self,
        active: &[u64],
        carry: &RoundCarry<M>,
        routing: &RoutingStats,
        paged: &[PagerRound],
    ) -> RoundDemand {
        let profile = self.profile;
        let workers = active.len();
        let mut demand = RoundDemand::zeros(workers, false);
        for w in 0..workers {
            demand.compute_ops[w] = (active[w] as f64 * profile.per_vertex_ops
                + carry.prev_processed[w] as f64 * profile.per_msg_ops)
                * profile.lang_cpu_factor;
            demand.net_out[w] = Bytes(routing.net_out_bytes[w]);
            demand.net_in[w] = Bytes(routing.net_in_bytes[w]);

            let msg_buffer = carry.prev_in_bytes[w] + routing.out_buffer_bytes[w];
            let msg_buffer = (msg_buffer as f64 * profile.mem_overhead_factor) as u64;
            let mut memory = (self.state_bytes[w] as f64 * profile.mem_overhead_factor) as u64;
            if !self.residual.is_empty() {
                memory += self.residual[w];
            }
            match profile.out_of_core {
                // Out of core, message bytes over the budget spill to
                // disk; the disk terms are fed the adjacency bytes the
                // pager loaded this round, and memory is charged the
                // cache's decoded peak.
                Some(ooc) => {
                    let budget = ooc.message_budget.get();
                    let msg_spill = msg_buffer.saturating_sub(budget);
                    memory += msg_buffer.min(budget);
                    memory += paged[w].peak_resident_bytes;
                    demand.spill_messages[w] = msg_spill.checked_div(self.msg_bytes).unwrap_or(0);
                    demand.spill[w] = Bytes(msg_spill);
                    demand.stream[w] = Bytes(paged[w].loaded_bytes);
                }
                None => {
                    memory += msg_buffer;
                    memory += (self.graph_bytes[w] as f64 * profile.graph_mem_factor) as u64;
                }
            }
            demand.memory[w] = Bytes(memory);
        }
        demand.lock_ops = if matches!(profile.sync, SyncMode::Asynchronous) {
            carry.prev_processed.iter().sum::<u64>() as f64
        } else {
            0.0
        };
        demand
    }
}

/// Deterministic per-(round, vertex) RNG: thread scheduling cannot
/// affect results. Public so harnesses driving programs outside the
/// engine (benches) reproduce a [`Runner`] run bit-for-bit.
pub fn vertex_rng(seed: u64, round: usize, v: VertexId) -> SmallRng {
    SmallRng::seed_from_u64(mix64(
        seed ^ ((round as u64) << 40) ^ ((v as u64).wrapping_mul(0x9E37_79B9)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Delivery, Message};
    use crate::profile::ExecutionMode;
    use crate::slab::{SlabRow, SlabRowMut};
    use mtvc_cluster::ChaosMix;
    use mtvc_graph::generators;
    use mtvc_graph::partition::HashPartitioner;
    use std::cell::RefCell;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A fan-out override: fed each round's load, it decides in place
    /// of [`FANOUT_LOAD`].
    type Decide = Box<dyn FnMut(usize) -> bool>;

    thread_local! {
        /// This thread's fan-out override, if any.
        static FANOUT: RefCell<Option<Decide>> = const { RefCell::new(None) };
    }

    /// The override's decision for a round holding `load`, if this
    /// thread set one.
    pub(super) fn forced_fanout(load: usize) -> Option<bool> {
        FANOUT.with_borrow_mut(|decide| decide.as_mut().map(|decide| decide(load)))
    }

    /// Run `f` with every round it runs on this thread fanning out as
    /// `decide` says, whatever the round holds.
    fn with_fanout<T>(decide: impl FnMut(usize) -> bool + 'static, f: impl FnOnce() -> T) -> T {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                FANOUT.with_borrow_mut(|decide| *decide = None);
            }
        }
        FANOUT.with_borrow_mut(|slot| *slot = Some(Box::new(decide)));
        let _reset = Reset;
        f()
    }

    /// Run `f` with every round on the pool (`true`) or inline.
    fn forced<T>(pooled: bool, f: impl FnOnce() -> T) -> T {
        with_fanout(move |_| pooled, f)
    }

    /// Run `f` with rounds alternating between the pool and inline,
    /// starting pooled, counted in decisions: a replayed round takes
    /// the next turn, not the one its first execution took.
    fn alternating<T>(f: impl FnOnce() -> T) -> T {
        let mut turn = 0u64;
        with_fanout(
            move |_| {
                turn += 1;
                turn % 2 == 1
            },
            f,
        )
    }

    /// Flood: source 0 sends hop 1 to its neighbors; every vertex
    /// forwards on each improvement. Computes hop levels — checkable
    /// against BFS. One `u32` cell per vertex, `u32::MAX` while
    /// unreached.
    struct Flood;

    #[derive(Clone, Debug)]
    struct Hop(u32);
    impl Message for Hop {
        fn combine_key(&self) -> Option<u64> {
            Some(0)
        }
        fn merge(&mut self, other: &Self) {
            self.0 = self.0.min(other.0);
        }
    }

    #[derive(Clone, Default)]
    struct Level(Option<u32>);

    /// The hop level a flood row holds, if any.
    fn level(row: SlabRow<'_, u32>) -> Level {
        Level(row.written().map(|(_, l)| l).find(|&l| l != u32::MAX))
    }

    /// Lower the row's level to the best delivered hop; `Some(best)`
    /// iff that improved it.
    fn improve(row: &mut SlabRowMut<'_, u32>, inbox: &[Delivery<Hop>]) -> Option<u32> {
        let best = inbox.iter().map(|d| d.msg.0).min().unwrap();
        (best < row.get(0)).then(|| {
            row.set(0, best);
            best
        })
    }

    impl SlabProgram for Flood {
        type Message = Hop;
        type Cell = u32;
        type Out = Level;

        fn width(&self) -> usize {
            1
        }
        fn empty_cell(&self) -> u32 {
            u32::MAX
        }
        fn message_bytes(&self) -> u64 {
            8
        }

        fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u32>, ctx: &mut Context<'_, Hop>) {
            if v == 0 {
                row.set(0, 0);
                for &t in ctx.neighbors() {
                    ctx.send(t, Hop(1), 1);
                }
            }
        }

        fn compute(
            &self,
            _v: VertexId,
            mut row: SlabRowMut<'_, u32>,
            inbox: &[Delivery<Hop>],
            ctx: &mut Context<'_, Hop>,
        ) {
            if let Some(best) = improve(&mut row, inbox) {
                for &t in ctx.neighbors() {
                    ctx.send(t, Hop(best + 1), 1);
                }
            }
        }

        fn extract(&self, _v: VertexId, row: SlabRow<'_, u32>) -> Level {
            level(row)
        }
    }

    fn config(machines: usize) -> EngineConfig {
        EngineConfig::new(ClusterSpec::galaxy(machines), SystemProfile::base("test"))
    }

    #[test]
    fn flood_levels_match_bfs() {
        let g = generators::grid(8, 9);
        let runner = Runner::new(&g, &HashPartitioner::default(), config(4));
        let result = runner.run_slab(&Flood);
        assert!(result.outcome.is_completed());
        let reference = mtvc_graph::reference::bfs_levels(&g, 0);
        for v in g.vertices() {
            let got = result.states[v as usize].0;
            let want = reference[v as usize];
            if want == u32::MAX {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(want), "vertex {v}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs_and_partitions_counts() {
        let g = generators::power_law(300, 1200, 2.3, 5);
        let r1 = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        let r2 = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        assert_eq!(r1.stats.total_messages_sent, r2.stats.total_messages_sent);
        assert_eq!(r1.outcome, r2.outcome);
    }

    #[test]
    fn stats_record_rounds_and_messages() {
        let g = generators::ring(16, true);
        let result = Runner::new(&g, &HashPartitioner::default(), config(2)).run_slab(&Flood);
        // Ring of 16: flood takes ~8 forwarding rounds.
        assert!(result.stats.rounds >= 8);
        assert!(result.stats.total_messages_sent > 16);
        assert!(result.stats.total_time > SimTime::ZERO);
    }

    #[test]
    fn combiner_reduces_delivered_messages() {
        let g = generators::complete(24);
        let mut cfg = config(4);
        cfg.profile.combiner = true;
        let with = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        let without = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        assert_eq!(
            with.stats.total_messages_sent,
            without.stats.total_messages_sent
        );
        assert!(
            with.stats.total_messages_delivered < without.stats.total_messages_delivered,
            "combined {} vs uncombined {}",
            with.stats.total_messages_delivered,
            without.stats.total_messages_delivered
        );
    }

    #[test]
    fn cutoff_yields_overload() {
        let g = generators::grid(20, 20);
        let mut cfg = config(2);
        cfg.cutoff = SimTime::secs(0.5);
        let result = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        assert!(result.outcome.is_overload());
    }

    #[test]
    fn tiny_memory_overflows() {
        let g = generators::complete(64);
        let mut cfg = config(2);
        // Capacity of ~1 KB cannot hold anything.
        cfg.cluster.machine.memory = Bytes::kib(1);
        let result = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        assert!(result.outcome.is_overflow());
    }

    #[test]
    fn residual_memory_raises_pressure() {
        let g = generators::ring(64, true);
        let base = Runner::new(&g, &HashPartitioner::default(), config(2))
            .run_slab(&Flood)
            .stats
            .peak_memory;
        let mut cfg = config(2);
        cfg.residual_bytes = vec![1_000_000; 2];
        let with = Runner::new(&g, &HashPartitioner::default(), cfg)
            .run_slab(&Flood)
            .stats
            .peak_memory;
        assert!(with > base);
    }

    #[test]
    fn async_profile_runs_and_skips_barrier() {
        let g = generators::ring(64, true);
        let mut cfg = config(4);
        cfg.profile.sync = SyncMode::Asynchronous;
        let async_run = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        let sync_run = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        assert!(async_run.outcome.is_completed());
        // Light load: no barrier makes async faster (§4.8's PageRank
        // observation).
        assert!(async_run.stats.total_time < sync_run.stats.total_time);
    }

    /// An [`OocConfig`](crate::profile::OocConfig): `message_budget`
    /// governs the message-spill arithmetic,
    /// `page_budget`/`partition_bytes` the partition cache.
    fn ooc_paged(
        message_budget: u64,
        page_budget: u64,
        partition_bytes: u64,
    ) -> crate::profile::OocConfig {
        crate::profile::OocConfig {
            message_budget: Bytes::new(message_budget),
            paging: crate::profile::PagingConfig {
                budget: Bytes::new(page_budget),
                partition_bytes: Bytes::new(partition_bytes),
            },
        }
    }

    #[test]
    fn ooc_profile_spills_when_budget_tiny() {
        let g = generators::complete(48);
        let mut cfg = config(2);
        cfg.profile.out_of_core = Some(ooc_paged(64, 4096, 1024));
        let result = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        assert!(result.outcome.is_completed());
        assert!(result.stats.total_spilled_bytes > Bytes::ZERO);
        assert!(result.stats.max_disk_utilization > 0.0);
        assert!(result.stats.total_loaded_bytes > Bytes::ZERO);
        // Every round's message buffers overflow a 64-byte budget.
        assert!(result
            .stats
            .per_round
            .iter()
            .all(|r| r.spilled_bytes > Bytes::ZERO));
    }

    /// The pager serves neighbors that broadcast routing would read
    /// from mirrors, so the topology refuses the combination.
    #[test]
    #[should_panic(expected = "out-of-core profile must be point-to-point")]
    fn ooc_broadcast_topology_panics() {
        let g = generators::grid(4, 4);
        let mut profile = SystemProfile::base("test");
        profile.mode = ExecutionMode::Broadcast {
            mirror_threshold: 2,
        };
        profile.out_of_core = Some(ooc_paged(1 << 20, 1024, 256));
        let partition = HashPartitioner::default().partition(&g, 2);
        Topology::build(&g, partition, &profile);
    }

    #[test]
    fn paged_run_matches_resident_run_bit_identical() {
        let g = generators::grid(12, 12);
        let resident = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        let mut cfg = config(4);
        cfg.profile.out_of_core = Some(ooc_paged(1 << 20, 1024, 256));
        let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
        assert!(runner.paged_layout().is_some(), "paging path must engage");
        let paged = runner.run_slab(&Flood);
        assert_eq!(
            resident.outcome.is_completed(),
            paged.outcome.is_completed()
        );
        for v in g.vertices() {
            assert_eq!(
                resident.states[v as usize].0, paged.states[v as usize].0,
                "vertex {v}"
            );
        }
        // Identical compute ⇒ identical traffic; only I/O differs.
        assert_eq!(
            resident.stats.total_messages_sent,
            paged.stats.total_messages_sent
        );
        assert_eq!(resident.stats.rounds, paged.stats.rounds);
        assert!(paged.stats.total_loaded_bytes > Bytes::ZERO, "real loads");
        assert!(paged.stats.total_partition_loads > 0);
        assert!(
            paged.stats.peak_paged_resident_bytes <= Bytes::new(1024),
            "cache never exceeds its budget"
        );
    }

    #[test]
    fn paged_runs_are_deterministic_and_pool_invariant() {
        let g = generators::grid(12, 12);
        let make = |pooled: bool| {
            let mut cfg = config(4);
            cfg.profile.out_of_core = Some(ooc_paged(1 << 20, 1024, 256));
            forced(pooled, || {
                Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood)
            })
        };
        let serial = make(false);
        let again = make(false);
        let pooled = make(true);
        assert_eq!(serial.outcome, again.outcome);
        assert_eq!(serial.stats, again.stats, "paged runs must be repeatable");
        assert_eq!(serial.outcome, pooled.outcome);
        assert_eq!(serial.stats, pooled.stats, "pager counters included");
        for v in g.vertices() {
            assert_eq!(serial.states[v as usize].0, pooled.states[v as usize].0);
        }
    }

    #[test]
    fn paged_chaos_recovers_bit_identical() {
        let g = generators::grid(12, 12);
        let base = || {
            let mut cfg = config(4);
            cfg.profile.out_of_core = Some(ooc_paged(1 << 20, 1024, 256));
            cfg
        };
        let clean = Runner::new(&g, &HashPartitioner::default(), base()).run_slab(&Flood);
        let plan = FaultPlan::none()
            .with_crash(3, 1)
            .with_delivery_failure(5, 0)
            .with_crash(7, 2);
        let cfg = base().with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        assert_eq!(clean.outcome, chaos.outcome);
        for v in g.vertices() {
            assert_eq!(clean.states[v as usize].0, chaos.states[v as usize].0);
        }
        assert!(
            chaos.stats.faults.replayed_rounds > 0,
            "rollback must replay"
        );
        // Rollback restored the partition caches exactly, so every
        // first-run round's pager counters — and everything else —
        // match the fault-free run bit for bit.
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
    }

    #[test]
    fn broadcast_mode_runs_flood_equivalently() {
        /// Broadcast flood: same levels via ctx.broadcast.
        struct BFlood;
        impl SlabProgram for BFlood {
            type Message = Hop;
            type Cell = u32;
            type Out = Level;
            fn width(&self) -> usize {
                1
            }
            fn empty_cell(&self) -> u32 {
                u32::MAX
            }
            fn message_bytes(&self) -> u64 {
                8
            }
            fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u32>, ctx: &mut Context<'_, Hop>) {
                if v == 0 {
                    row.set(0, 0);
                    ctx.broadcast(Hop(1), 1);
                }
            }
            fn compute(
                &self,
                _v: VertexId,
                mut row: SlabRowMut<'_, u32>,
                inbox: &[Delivery<Hop>],
                ctx: &mut Context<'_, Hop>,
            ) {
                if let Some(best) = improve(&mut row, inbox) {
                    ctx.broadcast(Hop(best + 1), 1);
                }
            }
            fn extract(&self, _v: VertexId, row: SlabRow<'_, u32>) -> Level {
                level(row)
            }
        }
        let g = generators::power_law(200, 900, 2.2, 3);
        let mut cfg = config(4);
        cfg.profile.mode = ExecutionMode::Broadcast {
            mirror_threshold: 8,
        };
        let result = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&BFlood);
        assert!(result.outcome.is_completed());
        let reference = mtvc_graph::reference::bfs_levels(&g, 0);
        for v in g.vertices() {
            let got = result.states[v as usize].0;
            let want = reference[v as usize];
            if want == u32::MAX {
                assert_eq!(got, None, "vertex {v}");
            } else {
                assert_eq!(got, Some(want), "vertex {v}");
            }
        }
    }

    #[test]
    fn max_rounds_guard_overloads() {
        let g = generators::ring(32, true);
        let mut cfg = config(2);
        cfg.max_rounds = 3;
        let result = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        assert!(result.outcome.is_overload());
    }

    #[test]
    fn threshold_controls_pool_creation() {
        assert!(!fans_out(FANOUT_LOAD - 1));
        assert!(fans_out(FANOUT_LOAD));
        // A ring's rounds carry a few messages each: every one runs
        // inline, and no pool is spawned.
        let g = generators::ring(64, true);
        let small = Runner::new(&g, &HashPartitioner::default(), config(4));
        assert!(small.run_slab(&Flood).outcome.is_completed());
        assert!(small.topology.pool_threads().is_none());
        // The first round that fans out spawns one thread per worker.
        let pooled = Runner::new(&g, &HashPartitioner::default(), config(4));
        forced(true, || pooled.run_slab(&Flood));
        assert_eq!(pooled.topology.pool_threads().map(|ids| ids.len()), Some(4));
        // A single worker never pools, whatever its rounds hold.
        let single = Runner::new(&g, &HashPartitioner::default(), config(1));
        forced(true, || single.run_slab(&Flood));
        assert!(single.topology.pool_threads().is_none());
    }

    #[test]
    fn pooled_pipeline_matches_serial_pipeline() {
        let g = generators::power_law(400, 1600, 2.3, 11);
        let run = |pooled| {
            forced(pooled, || {
                Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood)
            })
        };
        let serial = run(false);
        let pooled = run(true);
        assert_eq!(serial.outcome, pooled.outcome);
        assert_eq!(serial.stats, pooled.stats, "RunStats must be bit-identical");
        for v in g.vertices() {
            assert_eq!(
                serial.states[v as usize].0, pooled.states[v as usize].0,
                "vertex {v}"
            );
        }
    }

    #[test]
    fn threaded_runs_are_deterministic() {
        let g = generators::power_law(300, 1200, 2.4, 17);
        let run = || {
            forced(true, || {
                Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats, b.stats);
        for v in g.vertices() {
            assert_eq!(a.states[v as usize].0, b.states[v as usize].0);
        }
    }

    /// Zero the fault record so a chaos run can be compared field-for-
    /// field against a fault-free run (recovery cost is the only
    /// permitted difference).
    fn without_faults(mut stats: RunStats) -> RunStats {
        stats.faults = Default::default();
        stats
    }

    #[test]
    fn injected_crashes_recover_bit_identical() {
        // A grid's flood runs ~23 rounds, so every scheduled fault
        // fires well before quiescence.
        let g = generators::grid(12, 12);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        let plan = FaultPlan::none()
            .with_crash(3, 1)
            .with_delivery_failure(5, 0)
            .with_crash(5, 2);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);

        assert_eq!(clean.outcome, chaos.outcome);
        for v in g.vertices() {
            assert_eq!(
                clean.states[v as usize].0, chaos.states[v as usize].0,
                "vertex {v}"
            );
        }
        let f = chaos.stats.faults;
        assert_eq!(f.injected, 3);
        assert_eq!(f.crashes, 2);
        assert_eq!(f.delivery_failures, 1);
        assert!(f.checkpoints > 0);
        assert!(f.replayed_rounds > 0, "rollback must replay rounds");
        assert!(f.replayed_wire > 0, "replay retransmits wire traffic");
        assert!(f.recovery_time > SimTime::ZERO);
        assert_eq!(
            without_faults(chaos.stats),
            without_faults(clean.stats),
            "non-replay statistics must match the fault-free run"
        );
    }

    #[test]
    fn fault_at_round_zero_recovers() {
        let g = generators::ring(32, true);
        let cfg = config(2)
            .with_checkpoint_every(4)
            .with_faults(FaultPlan::none().with_crash(0, 0));
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(2)).run_slab(&Flood);
        assert_eq!(clean.outcome, chaos.outcome);
        assert_eq!(chaos.stats.faults.injected, 1);
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
    }

    #[test]
    fn empty_plan_checkpoints_but_changes_nothing() {
        let g = generators::ring(64, true);
        let cfg = config(2)
            .with_checkpoint_every(3)
            .with_faults(FaultPlan::none());
        let armed = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(2)).run_slab(&Flood);
        assert!(armed.stats.faults.checkpoints > 1);
        assert_eq!(armed.stats.faults.injected, 0);
        assert_eq!(armed.stats.faults.replayed_rounds, 0);
        assert_eq!(without_faults(armed.stats), without_faults(clean.stats));
    }

    #[test]
    fn hard_oom_kills_where_soft_model_survives() {
        let g = generators::complete(48);
        let peak = Runner::new(&g, &HashPartitioner::default(), config(2))
            .run_slab(&Flood)
            .stats
            .peak_memory;
        // Capacity just under the observed peak: the soft cost model
        // tolerates demand up to 1.4× capacity (thrashing regime), so
        // the run completes; the hard OOM kill fires the moment demand
        // exceeds capacity.
        let cap = Bytes((peak.get() as f64 * 0.9) as u64);
        let mut soft = config(2);
        soft.cluster.machine.memory = cap;
        let soft_run = Runner::new(&g, &HashPartitioner::default(), soft.clone()).run_slab(&Flood);
        assert!(
            soft_run.outcome.is_completed(),
            "soft model thrashes through"
        );

        let hard = soft.with_faults(FaultPlan::none().with_hard_oom());
        let hard_run = Runner::new(&g, &HashPartitioner::default(), hard).run_slab(&Flood);
        assert!(hard_run.outcome.is_overflow(), "hard OOM kill aborts");
        assert_eq!(hard_run.stats.faults.oom_kills, 1);
        assert!(hard_run.stats.peak_memory > cap);
    }

    #[test]
    fn pooled_chaos_matches_serial_chaos() {
        let g = generators::power_law(400, 1600, 2.3, 11);
        let plan = FaultPlan::random(7, 4, 12, 2, 2);
        let make = |pooled| {
            let cfg = config(4).with_checkpoint_every(3).with_faults(plan.clone());
            forced(pooled, || {
                Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood)
            })
        };
        let serial = make(false);
        let pooled = make(true);
        assert_eq!(serial.outcome, pooled.outcome);
        assert_eq!(serial.stats, pooled.stats, "fault record included");
        for v in g.vertices() {
            assert_eq!(serial.states[v as usize].0, pooled.states[v as usize].0);
        }
    }

    #[test]
    fn pool_thread_ids_stable_across_rounds() {
        /// Flood variant that records which OS thread computed each
        /// round, proving no per-round thread churn.
        struct TracingFlood {
            log: Mutex<Vec<(usize, ThreadId)>>,
        }
        impl TracingFlood {
            fn trace(&self, round: usize) {
                let id = std::thread::current().id();
                self.log.lock().unwrap().push((round, id));
            }
        }
        impl SlabProgram for TracingFlood {
            type Message = Hop;
            type Cell = u32;
            type Out = Level;
            fn width(&self) -> usize {
                1
            }
            fn empty_cell(&self) -> u32 {
                u32::MAX
            }
            fn message_bytes(&self) -> u64 {
                8
            }
            fn init(&self, v: VertexId, row: SlabRowMut<'_, u32>, ctx: &mut Context<'_, Hop>) {
                self.trace(ctx.round());
                Flood.init(v, row, ctx);
            }
            fn compute(
                &self,
                v: VertexId,
                row: SlabRowMut<'_, u32>,
                inbox: &[Delivery<Hop>],
                ctx: &mut Context<'_, Hop>,
            ) {
                self.trace(ctx.round());
                Flood.compute(v, row, inbox, ctx);
            }
            fn extract(&self, v: VertexId, row: SlabRow<'_, u32>) -> Level {
                Flood.extract(v, row)
            }
        }

        let g = generators::ring(64, true);
        let runner = Runner::new(&g, &HashPartitioner::default(), config(4));
        let program = TracingFlood {
            log: Mutex::new(Vec::new()),
        };
        let result = forced(true, || runner.run_slab(&program));
        assert!(result.outcome.is_completed());
        let pool_ids: std::collections::HashSet<ThreadId> = runner
            .topology
            .pool_threads()
            .unwrap()
            .into_iter()
            .collect();

        let log = program.log.into_inner().unwrap();
        let rounds = log.iter().map(|&(r, _)| r).max().unwrap();
        assert!(rounds >= 8, "flood over a 64-ring runs many rounds");
        let ids_in = |r: usize| -> std::collections::HashSet<ThreadId> {
            log.iter()
                .filter(|&&(round, _)| round == r)
                .map(|&(_, id)| id)
                .collect()
        };
        let first = ids_in(0);
        assert!(!first.is_empty());
        assert!(
            first.is_subset(&pool_ids),
            "compute must run on pool threads"
        );
        for r in 1..=rounds {
            let ids = ids_in(r);
            if ids.is_empty() {
                continue; // quiescent tail round
            }
            assert!(
                ids.is_subset(&first),
                "round {r} ran on threads outside round 0's set"
            );
        }
    }

    #[test]
    fn co_scheduled_faults_all_fire_and_recover() {
        let g = generators::grid(12, 12);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        // Four different fault kinds, all at round 3: one take_all_at
        // call must fire every one of them.
        let plan = FaultPlan::none()
            .with_crash(3, 1)
            .with_delivery_failure(3, 0)
            .with_corruption(3, 2, 1)
            .with_straggler(3, 3, 100_000, 2);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);

        assert_eq!(clean.outcome, chaos.outcome);
        let f = chaos.stats.faults;
        assert_eq!(f.injected, 4, "all co-scheduled events fire");
        assert_eq!(f.crashes, 1);
        assert_eq!(f.delivery_failures, 1);
        assert_eq!(f.stragglers, 1);
        assert_eq!(f.corrupted_buckets, 1);
        assert!(f.replayed_rounds > 0);
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
        for v in g.vertices() {
            assert_eq!(clean.states[v as usize].0, chaos.states[v as usize].0);
        }
    }

    #[test]
    fn corruption_retransmits_without_rollback() {
        let g = generators::grid(12, 12);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        let plan = FaultPlan::none()
            .with_corruption(4, 1, 2)
            .with_corruption(6, 3, 1);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);

        assert_eq!(clean.outcome, chaos.outcome);
        let f = chaos.stats.faults;
        assert_eq!(f.injected, 2);
        assert_eq!(f.corrupted_buckets, 3);
        assert_eq!(f.retransmitted_buckets, 3);
        assert!(f.retransmitted_bytes.get() > 0, "buckets carry bytes");
        assert!(f.recovery_time > SimTime::ZERO, "retransfer costs time");
        assert_eq!(
            f.replayed_rounds, 0,
            "corruption repairs by retransmission, not rollback"
        );
        assert_eq!(f.replayed_wire, 0);
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
        for v in g.vertices() {
            assert_eq!(clean.states[v as usize].0, chaos.states[v as usize].0);
        }
    }

    #[test]
    fn stragglers_cost_time_without_changing_outputs() {
        let g = generators::grid(12, 12);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        // 1000x slowdown guarantees the straggler dominates its rounds'
        // critical path, whatever the compute/network balance.
        let plan = FaultPlan::none()
            .with_straggler(2, 1, 100_000, 3)
            .with_straggler(3, 2, 200, 2);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);

        assert_eq!(clean.outcome, chaos.outcome);
        let f = chaos.stats.faults;
        assert_eq!(f.injected, 2);
        assert_eq!(f.stragglers, 2);
        assert!(f.straggler_time > SimTime::ZERO, "slow window costs time");
        assert_eq!(f.replayed_rounds, 0, "stragglers never roll back");
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
        for v in g.vertices() {
            assert_eq!(clean.states[v as usize].0, chaos.states[v as usize].0);
        }
    }

    #[test]
    fn partitions_roll_back_and_recover() {
        let g = generators::grid(12, 12);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        // Round 5 is off the checkpoint cadence, so healing the
        // partition really does replay a round.
        let plan = FaultPlan::none().with_partition(5, 2);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);

        assert_eq!(clean.outcome, chaos.outcome);
        let f = chaos.stats.faults;
        assert_eq!(f.injected, 1);
        assert_eq!(f.partitions, 1);
        assert!(f.replayed_rounds > 0, "lost deliveries replay");
        assert!(f.recovery_time > SimTime::ZERO, "stall plus replay");
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
        for v in g.vertices() {
            assert_eq!(clean.states[v as usize].0, chaos.states[v as usize].0);
        }
    }

    #[test]
    fn chaos_mix_recovers_bit_identical() {
        let g = generators::grid(12, 12);
        let clean = Runner::new(&g, &HashPartitioner::default(), config(4)).run_slab(&Flood);
        let mix = ChaosMix {
            crashes: 1,
            losses: 1,
            stragglers: 2,
            partitions: 1,
            corruptions: 2,
        };
        let plan = FaultPlan::chaos(0xC1A0, 4, 8, mix);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let chaos = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&Flood);

        assert_eq!(clean.outcome, chaos.outcome);
        assert_eq!(chaos.stats.faults.injected as usize, mix.total());
        assert_eq!(without_faults(chaos.stats), without_faults(clean.stats));
        for v in g.vertices() {
            assert_eq!(clean.states[v as usize].0, chaos.states[v as usize].0);
        }
    }

    /// The fault record of one fixed plan — every recoverable fault
    /// kind, checkpoints every 2 rounds — pinned field by field, f64s
    /// by bit pattern. The chaos tests above scrub `faults` before they
    /// compare, so only this one sees a refactor that moves recovery
    /// cost between fields or rounds.
    #[test]
    fn fault_record_is_pinned() {
        let g = generators::grid(12, 12);
        let plan = FaultPlan::none()
            .with_straggler(4, 1, 300, 3)
            .with_crash(5, 1)
            .with_corruption(6, 2, 2)
            .with_delivery_failure(9, 0)
            .with_partition(11, 2);
        let cfg = config(4).with_checkpoint_every(2).with_faults(plan);
        let f = Runner::new(&g, &HashPartitioner::default(), cfg)
            .run_slab(&Flood)
            .stats
            .faults;
        assert_eq!(f.injected, 5);
        assert_eq!(f.crashes, 1);
        assert_eq!(f.delivery_failures, 1);
        assert_eq!(f.stragglers, 1);
        assert_eq!(f.partitions, 1);
        assert_eq!(f.oom_kills, 0);
        assert_eq!(f.checkpoints, 12);
        assert_eq!(f.checkpoint_full_bytes, Bytes(20_736));
        assert_eq!(f.checkpoint_delta_bytes, Bytes::ZERO);
        assert_eq!(f.replayed_rounds, 3);
        assert_eq!(f.replayed_wire, 94);
        assert_eq!(f.corrupted_buckets, 2);
        assert_eq!(f.retransmitted_buckets, 2);
        assert_eq!(f.retransmitted_bytes, Bytes(26));
        assert_eq!(f.recovery_time.as_secs().to_bits(), 0x3fd2_8f7f_332d_9b8b);
        assert_eq!(f.straggler_time.as_secs().to_bits(), 0x3ec0_00ae_d749_2d4d);
    }

    #[test]
    fn checkpoint_cadence_edges_are_safe() {
        let g = generators::ring(32, true);
        let plan = FaultPlan::none().with_crash(3, 0);
        let run = |every: usize| {
            Runner::new(
                &g,
                &HashPartitioner::default(),
                config(2)
                    .with_checkpoint_every(every)
                    .with_faults(plan.clone()),
            )
            .run_slab(&Flood)
        };
        let clean = Runner::new(&g, &HashPartitioner::default(), config(2)).run_slab(&Flood);
        let every_round = run(1);
        let zero = run(0);
        let sparse = run(10_000);
        // `0` is documented to mean "every round" — identical to 1.
        assert_eq!(every_round.stats, zero.stats);
        // Cadence beyond the run length: only the round-0 snapshot
        // exists, so recovery replays from the very start.
        assert_eq!(sparse.stats.faults.checkpoints, 1);
        assert!(sparse.stats.faults.replayed_rounds >= 3);
        for r in [&every_round, &zero, &sparse] {
            assert_eq!(r.outcome, clean.outcome);
            assert_eq!(
                without_faults(r.stats.clone()),
                without_faults(clean.stats.clone())
            );
            for v in g.vertices() {
                assert_eq!(clean.states[v as usize].0, r.states[v as usize].0);
            }
        }
    }

    /// Multi-lane flood over a state slab: lane `q` floods distances
    /// from source vertex `q`, where an edge out of an odd vertex weighs
    /// 2 — so one round's messages to a vertex differ, and a fold that
    /// kept the wrong one would show. `EXACT` only declares its
    /// messages' min merge exact ([`Message::EXACT_MERGE`]).
    struct LaneFlood<const EXACT: bool> {
        width: usize,
    }

    type SlabFlood = LaneFlood<false>;

    #[derive(Clone, Debug)]
    struct LaneMsg<const EXACT: bool> {
        lane: u16,
        dist: u64,
    }

    impl<const EXACT: bool> Message for LaneMsg<EXACT> {
        const EXACT_MERGE: bool = EXACT;
        fn combine_key(&self) -> Option<u64> {
            Some(u64::from(self.lane))
        }
        fn merge(&mut self, other: &Self) {
            self.dist = self.dist.min(other.dist);
        }
    }

    impl<const EXACT: bool> SlabProgram for LaneFlood<EXACT> {
        type Message = LaneMsg<EXACT>;
        type Cell = u64;
        /// `(lane, distance)` of every lane that reached the vertex.
        type Out = Vec<(usize, u64)>;

        fn width(&self) -> usize {
            self.width
        }
        fn empty_cell(&self) -> u64 {
            u64::MAX
        }
        fn message_bytes(&self) -> u64 {
            12
        }

        fn init(
            &self,
            v: VertexId,
            mut row: SlabRowMut<'_, u64>,
            ctx: &mut Context<'_, LaneMsg<EXACT>>,
        ) {
            if (v as usize) < self.width {
                let q = v as usize;
                row.relax_min(q, 0);
                for &t in ctx.neighbors() {
                    ctx.send(
                        t,
                        LaneMsg {
                            lane: q as u16,
                            dist: 1,
                        },
                        1,
                    );
                }
            }
        }

        fn compute(
            &self,
            v: VertexId,
            mut row: SlabRowMut<'_, u64>,
            inbox: &[Delivery<LaneMsg<EXACT>>],
            ctx: &mut Context<'_, LaneMsg<EXACT>>,
        ) {
            for d in inbox {
                row.relax_min(d.msg.lane as usize, d.msg.dist);
            }
            let mut improved = Vec::new();
            row.drain(|q, cell| improved.push((q, *cell)));
            let weight = 1 + u64::from(v % 2);
            for (q, dist) in improved {
                for &t in ctx.neighbors() {
                    ctx.send(
                        t,
                        LaneMsg {
                            lane: q as u16,
                            dist: dist + weight,
                        },
                        1,
                    );
                }
            }
        }

        fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> Vec<(usize, u64)> {
            row.written().filter(|&(_, d)| d != u64::MAX).collect()
        }
    }

    /// Job-scoped topology: batches borrowing one shared [`Topology`]
    /// (paged layout and pool included) and one config, with seed,
    /// cutoff and residual handed over as [`BatchParams`], equal
    /// stand-alone runners that each build their own from a config
    /// carrying the same three values. The first batch runs inline and
    /// the second on the pool; their twins the other way round.
    #[test]
    fn for_batch_over_a_shared_topology_equals_with_partition() {
        let g = generators::grid(10, 10);
        let program = SlabFlood { width: 3 };
        let mut resident = config(4);
        resident.profile.combiner = true;
        let mut paged = config(4);
        paged.profile.out_of_core = Some(ooc_paged(512, 1024, 256));
        for base in [resident, paged] {
            let partition = HashPartitioner::default().partition(&g, 4);
            let topology = Arc::new(Topology::build(&g, partition.clone(), &base.profile));
            assert_eq!(topology.paged.is_some(), base.profile.out_of_core.is_some());
            let recycler = SlabRecycler::new();
            for (i, residual) in [vec![], vec![1 << 20, 0, 3 << 20, 0]].iter().enumerate() {
                let pooled = i == 1;
                let batch = BatchParams {
                    seed: 40 + i as u64,
                    cutoff: SimTime::secs(1e9),
                    residual_bytes: residual,
                };
                let shared = Runner::for_batch(&g, &topology, &base, batch);
                // A fingerprint of every reached cell: `(q + 1) · (d + 1)`.
                let print = |q: usize, d: u64| (q as u64 + 1) * (d + 1);
                let (outcome, stats, folded) = forced(pooled, || {
                    shared.run_slab_fold(&program, &recycler, |row| {
                        row.written()
                            .filter(|&(_, d)| d != u64::MAX)
                            .map(|(q, d)| print(q, d))
                            .sum()
                    })
                });
                assert_eq!(topology.pool_threads().is_some(), pooled);
                let got = forced(pooled, || shared.run_slab_recycled(&program, &recycler));

                let mut own = base.clone();
                own.seed = batch.seed;
                own.cutoff = batch.cutoff;
                own.residual_bytes = residual.clone();
                let want = forced(!pooled, || {
                    Runner::with_partition(&g, partition.clone(), own).run_slab(&program)
                });
                assert!(want.outcome.is_completed());
                assert_eq!(folded.len(), 4, "one fold per worker");
                let mut want_folded = vec![0u64; 4];
                for (v, cells) in want.states.iter().enumerate() {
                    let owner = partition.owner_of(v as VertexId) as usize;
                    want_folded[owner] += cells.iter().map(|&(q, d)| print(q, d)).sum::<u64>();
                }
                assert_eq!(folded, want_folded);
                assert_eq!((outcome, &stats), (want.outcome, &want.stats));
                assert_eq!(got.outcome, want.outcome);
                assert_eq!(got.stats, want.stats);
                assert_eq!(got.states, want.states);
            }
        }
    }

    /// Consecutive runs over one topology hand their round buffers on.
    /// Whatever the last run left in them — traffic a cutoff stopped in
    /// flight, a checkpoint of another width — the next run equals one
    /// on a fresh topology. Dropping the topology drops its buffers.
    #[test]
    fn spare_round_buffers_leave_no_trace() {
        type Spare = RoundBuffers<crate::slab::StateSlab<u64>, LaneMsg<false>>;
        let g = generators::grid(12, 12);
        let clean = config(4);
        let plan = FaultPlan::none()
            .with_crash(5, 1)
            .with_delivery_failure(9, 0);
        let faulted = config(4).with_checkpoint_every(2).with_faults(plan);
        let partition = HashPartitioner::default().partition(&g, 4);
        let (cut, open) = (SimTime::secs(1e-12), SimTime::secs(1e9));
        let runs = [
            (&clean, 3, cut),
            (&faulted, 5, open),
            (&faulted, 3, open),
            (&clean, 3, open),
        ];
        // Each twin runs over a topology of its own, so the shared
        // topology's runs below follow one another uninterrupted.
        let wants: Vec<_> = runs
            .iter()
            .map(|&(config, width, cutoff)| {
                let mut own = config.clone();
                own.seed = 9;
                own.cutoff = cutoff;
                Runner::with_partition(&g, partition.clone(), own).run_slab(&SlabFlood { width })
            })
            .collect();
        assert!(
            !crate::topology::thread_holds_spare(),
            "twins take theirs along"
        );

        let topology = Arc::new(Topology::build(&g, partition, &clean.profile));
        let recycler = SlabRecycler::new();
        for (i, ((config, width, cutoff), want)) in runs.into_iter().zip(&wants).enumerate() {
            let batch = BatchParams {
                seed: 9,
                cutoff,
                residual_bytes: &[],
            };
            let got = Runner::for_batch(&g, &topology, config, batch)
                .run_slab_recycled(&SlabFlood { width }, &recycler);
            assert_eq!(got.outcome, want.outcome, "run {i}");
            assert_eq!(got.stats, want.stats, "run {i}");
            assert_eq!(got.states, want.states, "run {i}");
            assert!(topology.holds_spare::<Spare>(), "run {i} parks its buffers");
            match i {
                0 => assert_eq!(want.outcome, RunOutcome::Overload),
                1 | 2 => assert!(want.stats.faults.replayed_rounds > 0),
                _ => assert!(want.outcome.is_completed()),
            }
        }
        drop(topology);
        assert!(!crate::topology::thread_holds_spare());
    }

    /// Extraction contract: a row no mutator touched is never shown to
    /// `extract`; its output is the default.
    #[test]
    fn slab_flood_unwritten_row_extracts_to_default() {
        let flood = SlabFlood { width: 3 };
        assert!(flood.extract(0, SlabRow::unwritten()).is_empty());
        assert_eq!(Flood.extract(0, SlabRow::unwritten()).0, None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Scheduling independence: runs whose rounds all fan out, or
        /// alternate, or follow a random pattern — replays after a
        /// rollback included, on a resident or a paged layout, with
        /// the combiner on or off — equal the all-inline run in
        /// outcome, statistics (fault record included) and states.
        #[test]
        fn pooled_run_equals_serial_run(
            n in 16usize..120,
            workers in 2usize..6,
            width in 1usize..5,
            combine in proptest::prelude::any::<bool>(),
            paged in proptest::prelude::any::<bool>(),
            faults in proptest::prelude::any::<bool>(),
            pattern in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = generators::power_law(n, n * 4, 2.4, seed);
            let mut cfg = config(workers);
            cfg.cutoff = SimTime::secs(1e12);
            cfg.profile.combiner = combine;
            if paged {
                cfg.profile.out_of_core = Some(ooc_paged(512, 1024, 256));
            }
            if faults {
                let plan = FaultPlan::none().with_crash(2, 0).with_delivery_failure(3, 1);
                cfg = cfg.with_checkpoint_every(2).with_faults(plan);
            }
            let program = SlabFlood { width };
            let part = HashPartitioner { salt: seed };
            let run = || Runner::new(&g, &part, cfg.clone()).run_slab(&program);
            let serial = forced(false, run);
            let mut bits = pattern;
            let mixed = with_fanout(
                move |_| {
                    bits = bits.rotate_right(1);
                    bits & 1 == 1
                },
                run,
            );
            for other in [forced(true, run), alternating(run), mixed] {
                proptest::prop_assert_eq!(&serial.outcome, &other.outcome);
                proptest::prop_assert_eq!(&serial.stats, &other.stats);
                proptest::prop_assert_eq!(&serial.states, &other.states);
            }
        }

        /// A payload declared [`Message::EXACT_MERGE`] folds at the
        /// sender on every profile, yet the model never sees it: with
        /// the combiner on or off, resident or paged, every round on the
        /// pool or alternating, fault-free or through a crash and a
        /// lost delivery, the exact run equals its plain twin in
        /// outcome, states and every statistic but `shard_copy_bytes` —
        /// which, without a combiner, is the host copy the fold saved.
        #[test]
        fn exact_merge_moves_only_host_copies(
            n in 16usize..120,
            workers in 2usize..6,
            width in 1usize..5,
            combine in proptest::prelude::any::<bool>(),
            paged in proptest::prelude::any::<bool>(),
            pooled in proptest::prelude::any::<bool>(),
            faults in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = generators::power_law(n, n * 4, 2.4, seed);
            let mut cfg = config(workers);
            cfg.cutoff = SimTime::secs(1e12);
            cfg.profile.combiner = combine;
            if paged {
                cfg.profile.out_of_core = Some(ooc_paged(512, 1024, 256));
            }
            if faults {
                let plan = FaultPlan::none().with_crash(2, 0).with_delivery_failure(3, 1);
                cfg = cfg.with_checkpoint_every(2).with_faults(plan);
            }
            let part = HashPartitioner { salt: seed };
            let mode = |run: &dyn Fn() -> RunResult<Vec<(usize, u64)>>| {
                if pooled {
                    forced(true, run)
                } else {
                    alternating(run)
                }
            };
            let runner = Runner::new(&g, &part, cfg);
            let plain = mode(&|| runner.run_slab(&LaneFlood::<false> { width }));
            let exact = mode(&|| runner.run_slab(&LaneFlood::<true> { width }));
            proptest::prop_assert_eq!(&plain.outcome, &exact.outcome);
            proptest::prop_assert_eq!(&plain.states, &exact.states);
            let copies = |stats: &RunStats| stats.total_shard_copy_bytes;
            if combine {
                // Both fold, and both are charged the fold.
                proptest::prop_assert_eq!(&plain.stats, &exact.stats);
            } else {
                proptest::prop_assert!(copies(&exact.stats) <= copies(&plain.stats));
            }
            let scrub = |mut stats: RunStats| {
                stats.total_shard_copy_bytes = Bytes::ZERO;
                stats.per_round.iter_mut().for_each(|r| r.shard_copy_bytes = Bytes::ZERO);
                stats
            };
            proptest::prop_assert_eq!(scrub(plain.stats), scrub(exact.stats));
        }
    }

    /// Rounds alternating between the pool and inline through a crash
    /// and a delivery failure. Checkpoints fall on even rounds, so the
    /// crash at round 5 rolls back to round 4, whose replay runs in
    /// the other mode than its first execution (pooled, then inline).
    /// Resident and paged, combiner on and off, the run equals the
    /// all-inline one bit for bit.
    #[test]
    fn alternating_rounds_replay_bit_identical() {
        let g = generators::grid(12, 12);
        for combine in [false, true] {
            for paged in [false, true] {
                let plan = FaultPlan::none()
                    .with_crash(5, 1)
                    .with_delivery_failure(8, 0);
                let mut cfg = config(4).with_checkpoint_every(2).with_faults(plan);
                cfg.profile.combiner = combine;
                if paged {
                    cfg.profile.out_of_core = Some(ooc_paged(512, 1024, 256));
                }
                let run = || {
                    Runner::new(&g, &HashPartitioner::default(), cfg.clone())
                        .run_slab(&SlabFlood { width: 3 })
                };
                let inline = forced(false, run);
                let mixed = alternating(run);
                assert!(inline.outcome.is_completed());
                assert!(
                    inline.stats.faults.replayed_rounds > 0,
                    "a rollback replays"
                );
                assert_eq!(inline.outcome, mixed.outcome);
                assert_eq!(inline.stats, mixed.stats, "combine {combine} paged {paged}");
                assert_eq!(inline.states, mixed.states);
            }
        }
    }

    thread_local! {
        /// The token a [`ThreadFlood`] leaves with each thread that
        /// computes for it, dropped when the thread exits.
        static KEPT: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
    }

    /// Flood that records the threads its vertices compute on and
    /// leaves its `token` with each of them.
    #[derive(Default)]
    struct ThreadFlood {
        seen: Mutex<std::collections::HashSet<ThreadId>>,
        token: Arc<()>,
    }

    impl ThreadFlood {
        fn note(&self) {
            let id = std::thread::current().id();
            self.seen.lock().unwrap().insert(id);
            KEPT.with_borrow_mut(|kept| *kept = Some(Arc::clone(&self.token)));
        }

        fn threads(&self) -> std::collections::HashSet<ThreadId> {
            self.seen.lock().unwrap().clone()
        }
    }

    impl SlabProgram for ThreadFlood {
        type Message = Hop;
        type Cell = u32;
        type Out = Level;
        fn width(&self) -> usize {
            1
        }
        fn empty_cell(&self) -> u32 {
            u32::MAX
        }
        fn message_bytes(&self) -> u64 {
            8
        }
        fn init(&self, v: VertexId, row: SlabRowMut<'_, u32>, ctx: &mut Context<'_, Hop>) {
            self.note();
            Flood.init(v, row, ctx);
        }
        fn compute(
            &self,
            v: VertexId,
            row: SlabRowMut<'_, u32>,
            inbox: &[Delivery<Hop>],
            ctx: &mut Context<'_, Hop>,
        ) {
            self.note();
            Flood.compute(v, row, inbox, ctx);
        }
        fn extract(&self, v: VertexId, row: SlabRow<'_, u32>) -> Level {
            Flood.extract(v, row)
        }
    }

    /// One pool per topology: ten batches over one shared topology
    /// (what a job's batches and a `BatchRunner`'s clones share) fan
    /// out to the same four threads, spawned once; dropping the
    /// topology joins them. A one-worker topology spawns none.
    #[test]
    fn one_pool_serves_every_batch_and_joins_on_drop() {
        let g = generators::grid(12, 12);
        let cfg = config(4);
        let partition = HashPartitioner::default().partition(&g, 4);
        let topology = Arc::new(Topology::build(&g, partition, &cfg.profile));
        let program = ThreadFlood::default();
        let mut first = None;
        for seed in 0..10 {
            let batch = BatchParams {
                seed,
                cutoff: SimTime::secs(1e9),
                residual_bytes: &[],
            };
            let run = forced(true, || {
                Runner::for_batch(&g, &topology, &cfg, batch).run_slab(&program)
            });
            assert!(run.outcome.is_completed());
            let ids = topology
                .pool_threads()
                .expect("a pooled round spawns the pool");
            assert_eq!(ids.len(), 4);
            assert_eq!(
                first.get_or_insert_with(|| ids.clone()),
                &ids,
                "batch {seed}"
            );
        }
        let pool: std::collections::HashSet<ThreadId> = first.unwrap().into_iter().collect();
        assert_eq!(program.threads(), pool, "every compute ran on the pool");
        // The program's own token plus one per pool thread; each
        // thread drops its copy as it exits.
        assert_eq!(Arc::strong_count(&program.token), 5);
        drop(topology);
        assert_eq!(Arc::strong_count(&program.token), 1, "dropping joins");

        let single = Runner::new(&g, &HashPartitioner::default(), config(1));
        let program = ThreadFlood::default();
        forced(true, || single.run_slab(&program));
        assert!(single.topology.pool_threads().is_none());
        let here = std::thread::current().id();
        assert_eq!(program.threads(), [here].into());
    }

    /// Flood whose first round-1 vertex stops at `held`, then `done`:
    /// the batch running it holds the pool in between.
    struct StallFlood {
        stalled: std::sync::atomic::AtomicBool,
        held: std::sync::Barrier,
        done: std::sync::Barrier,
    }

    impl SlabProgram for StallFlood {
        type Message = Hop;
        type Cell = u32;
        type Out = Level;
        fn width(&self) -> usize {
            1
        }
        fn empty_cell(&self) -> u32 {
            u32::MAX
        }
        fn message_bytes(&self) -> u64 {
            8
        }
        fn init(&self, v: VertexId, row: SlabRowMut<'_, u32>, ctx: &mut Context<'_, Hop>) {
            Flood.init(v, row, ctx);
        }
        fn compute(
            &self,
            v: VertexId,
            row: SlabRowMut<'_, u32>,
            inbox: &[Delivery<Hop>],
            ctx: &mut Context<'_, Hop>,
        ) {
            let first = !self.stalled.swap(true, std::sync::atomic::Ordering::SeqCst);
            if ctx.round() == 1 && first {
                self.held.wait();
                self.done.wait();
            }
            Flood.compute(v, row, inbox, ctx);
        }
        fn extract(&self, v: VertexId, row: SlabRow<'_, u32>) -> Level {
            Flood.extract(v, row)
        }
    }

    /// Two threads run batches over one topology at once. The first
    /// holds the pool through its round 1 while the second runs its
    /// whole batch: every round of the second finds the pool taken and
    /// runs inline, on the calling thread. Both batches' outcomes,
    /// statistics and per-worker folds equal sequential inline runs.
    #[test]
    fn busy_pool_falls_back_to_inline() {
        let g = generators::grid(12, 12);
        let cfg = config(4);
        let partition = HashPartitioner::default().partition(&g, 4);
        let fold = |row: SlabRow<'_, u32>| row.written().map(|(_, l)| u64::from(l)).sum::<u64>();
        let batch = |seed| BatchParams {
            seed,
            cutoff: SimTime::secs(1e9),
            residual_bytes: &[],
        };
        let twins = Arc::new(Topology::build(&g, partition.clone(), &cfg.profile));
        let want: Vec<_> = [1, 2]
            .into_iter()
            .map(|seed| {
                forced(false, || {
                    Runner::for_batch(&g, &twins, &cfg, batch(seed)).run_slab_fold(
                        &Flood,
                        &SlabRecycler::new(),
                        fold,
                    )
                })
            })
            .collect();

        let topology = Arc::new(Topology::build(&g, partition, &cfg.profile));
        let stall = StallFlood {
            stalled: Default::default(),
            held: std::sync::Barrier::new(2),
            done: std::sync::Barrier::new(2),
        };
        let inline = ThreadFlood::default();
        let run = |program: &dyn Fn(&Runner<'_>) -> _, seed| {
            forced(true, || {
                program(&Runner::for_batch(&g, &topology, &cfg, batch(seed)))
            })
        };
        let (holder, fallback) = std::thread::scope(|s| {
            let holder =
                s.spawn(|| run(&|r| r.run_slab_fold(&stall, &SlabRecycler::new(), fold), 1));
            stall.held.wait();
            let fallback = run(&|r| r.run_slab_fold(&inline, &SlabRecycler::new(), fold), 2);
            stall.done.wait();
            (holder.join().unwrap(), fallback)
        });
        let here = std::thread::current().id();
        assert_eq!(inline.threads(), [here].into(), "the busy pool ran nothing");
        assert_eq!(topology.pool_threads().map(|ids| ids.len()), Some(4));
        assert_eq!(holder, want[0]);
        assert_eq!(fallback, want[1]);
    }
}
