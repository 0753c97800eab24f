//! The four closed-loop job workloads: one caller runs the workload's
//! job list and waits for it.
//!
//! Untraced passes call the public entry points (`mtvc_core::run_job`,
//! `BatchRunner::run_batch`). Traced passes run a replica of the same
//! batch loop built from the public pieces underneath (partitioner,
//! `Runner::with_partition`, `Runner::run_slab_recycled`) so spans can
//! sit at each crate boundary; the replica is asserted to reproduce the
//! entry point's rounds, messages and simulated time exactly.

use crate::inputs::{self, Scale};
use crate::trace::{SpanId, Tracer};
use mtvc_cluster::{ClusterSpec, FaultPlan};
use mtvc_core::{run_job, select_sources, BatchRunner, BatchSchedule, JobSpec, Task};
use mtvc_engine::{
    vertex_rng, Context, EngineConfig, Inbox, LocalIndex, PagedLayout, PagingConfig, PerSlab,
    ProgramCore, RouteGrid, Runner, SlabProgram, SlabRecycler, SystemProfile,
};
use mtvc_graph::partition::Partition;
use mtvc_graph::{Graph, VertexId};
use mtvc_metrics::{RunOutcome, RunStats, SimTime};
use mtvc_systems::SystemKind;
use mtvc_tasks::bkhs::BkhsState;
use mtvc_tasks::bppr::BpprState;
use mtvc_tasks::mssp::MsspState;
use mtvc_tasks::{BkhsSlabProgram, BpprSlabProgram, MsspSlabProgram, SourceIndex};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Wide,
    Narrow,
    Paged,
    Recovery,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnGraph {
    Big,
    Mid,
}

/// One job of a workload's list.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Name under `tasks.` in the per-layer metrics.
    pub layer: &'static str,
    pub task: Task,
    pub system: SystemKind,
    pub batches: usize,
    pub on: OnGraph,
}

/// Modelled cutoff lifted far above the paper's 6000 s, so that the
/// simulated clock can never truncate real execution.
const NO_CUTOFF: SimTime = SimTime(1.0e12);

/// Share of a worker's decoded adjacency that `job-paged` lets the
/// partition cache hold.
const PAGED_BUDGET_SHARE: f64 = 0.4;

/// Checkpoint cadence of `job-recovery`.
const RECOVERY_CHECKPOINT_EVERY: usize = 2;

/// The fault schedule every `job-recovery` batch runs under.
fn recovery_plan() -> FaultPlan {
    FaultPlan::none()
        .with_straggler(2, 0, 150, 3)
        .with_corruption(3, 2, 2)
        .with_crash(5, 1)
        .with_delivery_failure(7, 3)
}

fn cell(layer: &'static str, task: Task, system: SystemKind, batches: usize, on: OnGraph) -> Cell {
    Cell {
        layer,
        task,
        system,
        batches,
        on,
    }
}

/// The job list of each workload at full scale.
fn full_cells(kind: JobKind) -> Vec<Cell> {
    use OnGraph::{Big, Mid};
    use SystemKind::{GraphD, GraphLab, PregelPlus};
    match kind {
        JobKind::Wide => vec![
            cell("mssp", Task::mssp(32), PregelPlus, 1, Big),
            cell("mssp_combine", Task::mssp(32), GraphLab, 1, Big),
            cell("bkhs", Task::bkhs(512), PregelPlus, 8, Big),
            cell("bppr", Task::bppr(32), PregelPlus, 1, Mid),
        ],
        JobKind::Narrow => vec![
            cell("mssp", Task::mssp(8), PregelPlus, 8, Big),
            cell("mssp_combine", Task::mssp(8), GraphLab, 8, Big),
            cell("bkhs", Task::bkhs(512), PregelPlus, 512, Big),
            cell("bppr", Task::bppr(2), PregelPlus, 2, Mid),
        ],
        JobKind::Paged => vec![
            cell("mssp", Task::mssp(32), GraphD, 4, Big),
            cell("bkhs", Task::bkhs(256), GraphD, 4, Big),
        ],
        JobKind::Recovery => vec![cell("mssp", Task::mssp(64), PregelPlus, 4, Big)],
    }
}

impl Cell {
    /// Workload and source range of each batch, in order. BPPR takes
    /// every vertex as a source, so its ranges are empty.
    fn batch_plan(&self) -> Vec<(u64, Range<usize>)> {
        let mut offset = 0usize;
        BatchSchedule::equal(self.task.workload(), self.batches)
            .batches()
            .iter()
            .map(|&w| {
                let range = match self.task {
                    Task::Bppr { .. } => 0..0,
                    _ => offset..offset + w as usize,
                };
                offset = range.end;
                (w, range)
            })
            .collect()
    }
}

pub fn cells(kind: JobKind, scale: Scale) -> Vec<Cell> {
    let mut cells = full_cells(kind);
    for c in &mut cells {
        let w = (c.task.workload() / scale.shrink()).max(1);
        c.task = c.task.with_workload(w);
        c.batches = c.batches.min(w as usize);
    }
    cells
}

/// Everything a workload's passes read, built once per set-up.
pub struct JobInputs {
    pub kind: JobKind,
    pub seed: u64,
    pub cells: Vec<Cell>,
    big: Arc<Graph>,
    mid: Option<Arc<Graph>>,
    /// The cluster jobs are priced on (σ-scaled for `job-paged`).
    pub cluster: ClusterSpec,
    /// One partition per cell, as the cell's system draws it.
    partitions: Vec<Partition>,
    /// The source pool of each cell, as `run_job` selects it (empty for
    /// BPPR, where every vertex is a source).
    sources: Vec<Arc<SourceIndex>>,
    /// `job-recovery` only: the unarmed runner of each cell.
    recovery: Vec<BatchRunner>,
    pub generate_s: f64,
    pub partition_s: f64,
    /// Decoded adjacency bytes over all workers (`job-paged` only).
    pub adjacency_bytes: u64,
}

impl JobInputs {
    /// Set-up: generate the graphs, partition them, pick the sources.
    pub fn build(kind: JobKind, scale: Scale, seed: u64) -> JobInputs {
        let cells = cells(kind, scale);
        let t = Instant::now();
        let big = Arc::new(inputs::graph(scale.big(), seed));
        let mid = cells
            .iter()
            .any(|c| c.on == OnGraph::Mid)
            .then(|| Arc::new(inputs::graph(scale.mid(), seed)));
        let generate_s = t.elapsed().as_secs_f64();
        let mut inputs = JobInputs::from_cells(kind, seed, cells, big, mid);
        inputs.generate_s = generate_s;
        inputs
    }

    /// Set-up on graphs that already exist: partition, pick the sources.
    pub fn from_cells(
        kind: JobKind,
        seed: u64,
        cells: Vec<Cell>,
        big: Arc<Graph>,
        mid: Option<Arc<Graph>>,
    ) -> JobInputs {
        let mut cluster = inputs::cluster();
        let graph_of = |c: &Cell| match c.on {
            OnGraph::Big => &big,
            OnGraph::Mid => mid.as_ref().expect("mid graph built when a cell uses it"),
        };
        let t = Instant::now();
        let partitions: Vec<Partition> = cells
            .iter()
            .map(|c| {
                c.system
                    .partitioner()
                    .partition(graph_of(c), cluster.machines)
            })
            .collect();
        let partition_s = t.elapsed().as_secs_f64();

        let mut adjacency_bytes = 0;
        if kind == JobKind::Paged {
            // Size the machines so that GraphD's paging budget (2 % of
            // usable memory) is PAGED_BUDGET_SHARE of the largest
            // worker's decoded adjacency: every round must re-load.
            let locals = LocalIndex::build(&partitions[0]);
            let probe = PagingConfig::with_budget(mtvc_metrics::Bytes::new(1 << 20));
            let layout = PagedLayout::build(&big, locals.worker_vertices(), probe);
            let adj = layout.adjacency();
            let decoded: Vec<u64> = (0..adj.workers()).map(|w| adj.decoded_bytes(w)).collect();
            adjacency_bytes = decoded.iter().sum();
            let largest = *decoded.iter().max().expect("at least one worker") as f64;
            let usable = cluster.machine.usable_memory().as_f64();
            cluster = cluster.scaled(usable * 0.02 / (PAGED_BUDGET_SHARE * largest));
        }

        let sources = cells
            .iter()
            .map(|c| {
                SourceIndex::shared(match c.task {
                    Task::Bppr { .. } => Vec::new(),
                    _ => select_sources(graph_of(c), c.task.workload(), seed ^ 0xA5A5),
                })
            })
            .collect();
        let recovery = if kind == JobKind::Recovery {
            cells
                .iter()
                .map(|c| {
                    BatchRunner::new(big.clone(), c.task, c.system, cluster.clone())
                        .with_checkpoint_every(RECOVERY_CHECKPOINT_EVERY)
                })
                .collect()
        } else {
            Vec::new()
        };

        JobInputs {
            kind,
            seed,
            cells,
            big,
            mid,
            cluster,
            partitions,
            sources,
            recovery,
            generate_s: 0.0,
            partition_s,
            adjacency_bytes,
        }
    }

    pub fn partition(&self, ci: usize) -> &Partition {
        &self.partitions[ci]
    }

    pub fn graph(&self, c: &Cell) -> &Arc<Graph> {
        match c.on {
            OnGraph::Big => &self.big,
            OnGraph::Mid => self
                .mid
                .as_ref()
                .expect("mid graph built when a cell uses it"),
        }
    }

    /// Unit tasks one pass completes.
    pub fn unit_tasks(&self) -> u64 {
        self.cells.iter().map(|c| c.task.workload()).sum()
    }

    fn spec(&self, c: &Cell) -> JobSpec {
        let mut spec = JobSpec::new(
            c.task,
            c.system,
            self.cluster.clone(),
            BatchSchedule::equal(c.task.workload(), c.batches),
        )
        .with_seed(self.seed);
        spec.cutoff = NO_CUTOFF;
        spec
    }

    /// Run cell `ci` through the public entry point.
    pub fn run_cell(&self, ci: usize, variant: Variant) -> CellRun {
        let c = &self.cells[ci];
        if self.kind == JobKind::Recovery {
            let base = &self.recovery[ci];
            let sources = self.sources[ci].sources();
            let runner = match variant {
                Variant::Workload => base.clone().with_faults(recovery_plan()),
                Variant::Reference => base.clone(),
                Variant::CheckpointsOnly => base.clone().with_faults(FaultPlan::none()),
            };
            let start = Instant::now();
            let mut run = CellRun::default();
            let mut residual = vec![0u64; runner.machines()];
            for (i, (w, range)) in c.batch_plan().into_iter().enumerate() {
                let e = runner.run_batch(
                    w,
                    &sources[range],
                    &residual,
                    self.seed.wrapping_add(i as u64 + 1),
                    NO_CUTOFF,
                );
                for (r, d) in residual.iter_mut().zip(&e.residual_delta) {
                    *r += d;
                }
                run.absorb_batch(w, e.outcome, &e.stats);
            }
            run.wall_s = start.elapsed().as_secs_f64();
            run
        } else {
            let mut spec = self.spec(c);
            if variant == Variant::Reference && self.kind == JobKind::Paged {
                // Resident twin: same partitioner, adjacency in memory,
                // machines large enough to hold it.
                spec.system = SystemKind::PregelPlus;
                spec.cluster = inputs::cluster();
            }
            let start = Instant::now();
            let r = run_job(self.graph(c), &spec);
            let mut run = CellRun {
                stats: r.stats,
                ..CellRun::default()
            };
            for b in &r.per_batch {
                run.batches += 1;
                run.completed += u64::from(b.outcome.is_completed());
                run.workload += b.workload;
                run.sim_s += b.time.as_secs();
            }
            run.wall_s = start.elapsed().as_secs_f64();
            run
        }
    }

    /// One untraced pass over the job list.
    pub fn pass(&self, variant: Variant) -> Pass {
        let start = Instant::now();
        let cells = (0..self.cells.len())
            .map(|ci| self.run_cell(ci, variant))
            .collect();
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            cells,
        }
    }

    /// One traced pass: the replica of each job under a `job` span.
    /// `pools` outlives the pass the way a `BatchRunner`'s slab pools
    /// outlive its batches; `run_job` starts every job with empty ones.
    pub fn traced_pass(&self, tracer: &mut Tracer, pools: &Pools) -> Pass {
        let start = Instant::now();
        let root = tracer.begin("pass", None, 0);
        let cells = (0..self.cells.len())
            .map(|ci| {
                if self.kind == JobKind::Recovery {
                    self.replica_cell(ci, tracer, root, pools)
                } else {
                    self.replica_cell(ci, tracer, root, &Pools::default())
                }
            })
            .collect();
        tracer.end(root);
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            cells,
        }
    }

    /// The batch loop of `run_job` (or, for `job-recovery`, of a caller
    /// driving `BatchRunner::run_batch`) rebuilt from public pieces.
    fn replica_cell(&self, ci: usize, tracer: &mut Tracer, pass: SpanId, pools: &Pools) -> CellRun {
        let c = &self.cells[ci];
        let graph = self.graph(c);
        let start = Instant::now();
        let job = tracer.begin("job", Some(pass), ci as u64);
        let recovery = self.kind == JobKind::Recovery;

        // `run_job` partitions per job; a `BatchRunner` did it when it
        // was built, which is set-up.
        let partition = if recovery {
            self.partitions[ci].clone()
        } else {
            tracer.scope("graph.partition", Some(job), ci as u64, || {
                c.system
                    .partitioner()
                    .partition(graph, self.cluster.machines)
            })
        };
        let profile = c.system.profile(&self.cluster.machine);
        let job_index = &self.sources[ci];

        let mut run = CellRun::default();
        let mut residual = vec![0u64; self.cluster.machines];
        let mut elapsed = SimTime::ZERO;
        for (i, (w, range)) in c.batch_plan().into_iter().enumerate() {
            let batch = tracer.begin("batch", Some(job), i as u64);
            let mut cfg = EngineConfig::new(self.cluster.clone(), profile.clone());
            cfg.seed = self.seed.wrapping_add(i as u64 + 1);
            cfg.residual_bytes = residual.clone();
            let (index, range) = if recovery {
                cfg.cutoff = NO_CUTOFF;
                cfg.faults = Some(recovery_plan());
                cfg.checkpoint_every = RECOVERY_CHECKPOINT_EVERY;
                // `run_batch` re-indexes the slice it is handed.
                let slice = job_index.sources()[range].to_vec();
                let len = slice.len();
                (SourceIndex::shared(slice), 0..len)
            } else {
                cfg.cutoff = NO_CUTOFF - elapsed;
                (Arc::clone(job_index), range)
            };
            let out = dispatch(
                c.task,
                w,
                index,
                range,
                graph.num_vertices(),
                pools,
                ExecuteBatch {
                    graph,
                    partition: partition.clone(),
                    cfg,
                    tracer,
                    batch,
                    key: i as u64,
                },
            );
            elapsed += out.outcome.plot_time().min(NO_CUTOFF - elapsed);
            for (r, d) in residual.iter_mut().zip(&out.residual_delta) {
                *r += d;
            }
            run.absorb_batch(w, out.outcome, &out.stats);
            tracer.end(batch);
        }
        tracer.end(job);
        run.wall_s = start.elapsed().as_secs_f64();
        run
    }

    /// Staged single-thread replica of the round loop for every batch of
    /// cell `ci`, timing the compute phase and the routing phase apart.
    /// Fault-free and resident whatever the workload: recovered runs
    /// equal fault-free ones outside `faults`, and paged runs equal
    /// resident ones, so rounds and wire totals must still match.
    pub fn staged_cell(&self, ci: usize, tracer: &mut Tracer, pools: &Pools) -> Staged {
        let c = &self.cells[ci];
        let graph = self.graph(c);
        let partition = &self.partitions[ci];
        let locals = LocalIndex::build(partition);
        let profile = c.system.profile(&self.cluster.machine);
        let index = &self.sources[ci];
        let mut total = Staged::default();
        let root = tracer.begin("staged", None, ci as u64);
        for (i, (w, range)) in c.batch_plan().into_iter().enumerate() {
            let s = dispatch(
                c.task,
                w,
                Arc::clone(index),
                range,
                graph.num_vertices(),
                pools,
                StageBatch {
                    graph,
                    partition,
                    locals: &locals,
                    profile: &profile,
                    seed: self.seed.wrapping_add(i as u64 + 1),
                    tracer,
                    parent: root,
                },
            );
            total.absorb(&s);
        }
        tracer.end(root);
        total
    }

    /// Untimed correctness pass: one batch per cell through
    /// `Runner::run_slab` under the cell's own system, cluster and
    /// fault plan, every extracted state compared with the sequential
    /// reference. Returns a description of each mismatch.
    pub fn verify(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (ci, c) in self.cells.iter().enumerate() {
            let graph = self.graph(c);
            let mut cfg = EngineConfig::new(
                self.cluster.clone(),
                c.system.profile(&self.cluster.machine),
            );
            cfg.seed = self.seed ^ 0x7E57;
            cfg.cutoff = NO_CUTOFF;
            if self.kind == JobKind::Recovery {
                cfg.faults = Some(recovery_plan());
                cfg.checkpoint_every = RECOVERY_CHECKPOINT_EVERY;
            }
            let runner = Runner::with_partition(graph, self.partitions[ci].clone(), cfg);
            let width = c.task.workload().min(VERIFY_WIDTH);
            let sources = select_sources(graph, width, self.seed ^ 0x7E57);
            let tag = format!("{} on {}", c.task.name(), c.system.name());
            match c.task {
                Task::Mssp { .. } => {
                    let r = runner.run_slab(&MsspSlabProgram::new(sources.clone()));
                    check_outcome(&tag, r.outcome, &mut errors);
                    verify_mssp(&tag, graph, &sources, &r.states, &mut errors);
                }
                Task::Bkhs { k, .. } => {
                    let r = runner.run_slab(&BkhsSlabProgram::new(sources.clone(), k));
                    check_outcome(&tag, r.outcome, &mut errors);
                    verify_bkhs(&tag, graph, &sources, k, &r.states, &mut errors);
                }
                Task::Bppr { alpha, .. } => {
                    let n = graph.num_vertices();
                    let r = runner.run_slab(&BpprSlabProgram::new(VERIFY_WALKS, alpha, n));
                    check_outcome(&tag, r.outcome, &mut errors);
                    verify_bppr(&tag, graph, &sources, alpha, &r.states, &mut errors);
                }
            }
        }
        errors
    }
}

/// Queries per verified MSSP/BKHS batch; sources checked for BPPR.
const VERIFY_WIDTH: u64 = 8;
/// Walks per source in the verified BPPR batch.
const VERIFY_WALKS: u64 = 1024;
/// Largest L1 distance between the Monte-Carlo stop distribution of
/// `VERIFY_WALKS` walks and `exact_ppr`, both coarsened to three cells:
/// the source, its out-neighbours, every other vertex. (Vertex by
/// vertex the sampling error of 1 024 walks alone is 0.5 to 0.9 on a
/// power-law graph, which would hide a wrong kernel; per cell it is
/// below 0.02.)
const BPPR_L1_TOLERANCE: f64 = 0.15;

fn check_outcome(tag: &str, outcome: RunOutcome, errors: &mut Vec<String>) {
    if !outcome.is_completed() {
        errors.push(format!("verify {tag}: batch ended {outcome}"));
    }
}

fn verify_mssp(
    tag: &str,
    graph: &Graph,
    sources: &[VertexId],
    states: &[MsspState],
    errors: &mut Vec<String>,
) {
    for (q, &s) in sources.iter().enumerate() {
        let want = mtvc_graph::reference::dijkstra(graph, s);
        let wrong = states
            .iter()
            .zip(&want)
            .filter(|(st, &d)| st.dist.get(&(q as u32)).copied() != (d != u64::MAX).then_some(d))
            .count();
        if wrong > 0 {
            errors.push(format!(
                "verify {tag}: query {q} from {s} disagrees with dijkstra at {wrong} vertices"
            ));
        }
    }
}

fn verify_bkhs(
    tag: &str,
    graph: &Graph,
    sources: &[VertexId],
    k: u32,
    states: &[BkhsState],
    errors: &mut Vec<String>,
) {
    for (q, &s) in sources.iter().enumerate() {
        let want = mtvc_graph::reference::k_hop_set(graph, s, k);
        let got: Vec<VertexId> = states
            .iter()
            .enumerate()
            .filter(|(_, st)| st.reached.contains(&(q as u32)))
            .map(|(v, _)| v as VertexId)
            .collect();
        if got != want {
            errors.push(format!(
                "verify {tag}: query {q} from {s} reaches {} vertices, k_hop_set {}",
                got.len(),
                want.len()
            ));
        }
    }
}

fn verify_bppr(
    tag: &str,
    graph: &Graph,
    sources: &[VertexId],
    alpha: f64,
    states: &[BpprState],
    errors: &mut Vec<String>,
) {
    let stopped: u64 = states.iter().map(|st| st.stops.values().sum::<u64>()).sum();
    let want = VERIFY_WALKS * graph.num_vertices() as u64;
    if stopped != want {
        errors.push(format!(
            "verify {tag}: {stopped} walks stopped, started {want}"
        ));
    }
    for &s in sources {
        let exact = mtvc_tasks::reference::exact_ppr(graph, s, alpha);
        let cell_of = |v: usize| {
            if v == s as usize {
                0
            } else if graph.neighbors(s).contains(&(v as VertexId)) {
                1
            } else {
                2
            }
        };
        let mut diff = [0.0f64; 3];
        for (v, (st, &p)) in states.iter().zip(&exact).enumerate() {
            let hits = st.stops.get(&s).copied().unwrap_or(0);
            diff[cell_of(v)] += hits as f64 / VERIFY_WALKS as f64 - p;
        }
        let l1: f64 = diff.iter().map(|d| d.abs()).sum();
        if l1 > BPPR_L1_TOLERANCE {
            errors.push(format!(
                "verify {tag}: source {s} is coarse L1 {l1:.3} from exact_ppr (limit {BPPR_L1_TOLERANCE})"
            ));
        }
    }
}

/// Which flavour of the job list a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Workload,
    /// `job-paged`: the resident twin. `job-recovery`: the fault-free
    /// twin. Both must reproduce the workload's rounds and messages.
    /// The other workloads have no twin and run as defined.
    Reference,
    /// `job-recovery`: checkpoints taken, no fault fired.
    CheckpointsOnly,
}

/// What one job of a pass did.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    pub wall_s: f64,
    pub stats: RunStats,
    pub batches: u64,
    pub completed: u64,
    /// Σ batch workloads (must equal the task's workload).
    pub workload: u64,
    /// Modelled seconds, summed over batches.
    pub sim_s: f64,
}

impl CellRun {
    fn absorb_batch(&mut self, workload: u64, outcome: RunOutcome, stats: &RunStats) {
        self.stats.absorb(stats);
        self.batches += 1;
        self.completed += u64::from(outcome.is_completed());
        self.workload += workload;
        self.sim_s += outcome.plot_time().as_secs();
    }

    /// What must repeat exactly from pass to pass.
    pub fn fingerprint(&self) -> (usize, u64, u64, u64) {
        (
            self.stats.rounds,
            self.stats.total_messages_sent,
            self.stats.total_messages_delivered,
            self.sim_s.to_bits(),
        )
    }
}

#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cells: Vec<CellRun>,
}

impl Pass {
    pub fn fingerprint(&self) -> Vec<(usize, u64, u64, u64)> {
        self.cells.iter().map(CellRun::fingerprint).collect()
    }
}

/// Slab pools shared by every replica batch of a run, as `run_job`
/// shares them across the batches of a job.
#[derive(Default)]
pub struct Pools {
    words: SlabRecycler<u64>,
    flags: SlabRecycler<u8>,
}

/// Something to do with the slab program of one batch. The program's
/// type depends on the task, so callers hand `dispatch` a visitor.
trait BatchVisitor {
    type Out;
    fn visit<P: SlabProgram>(
        self,
        program: &P,
        pool: &SlabRecycler<P::Cell>,
        residual_of: fn(&P::Out) -> u64,
    ) -> Self::Out;
}

/// Build the point-to-point slab program `mtvc_core` runs for `task`
/// and hand it to `visitor` with the matching pool and residual rule.
fn dispatch<V: BatchVisitor>(
    task: Task,
    workload: u64,
    index: Arc<SourceIndex>,
    range: Range<usize>,
    num_vertices: usize,
    pools: &Pools,
    visitor: V,
) -> V::Out {
    match task {
        Task::Bppr { alpha, .. } => visitor.visit(
            &BpprSlabProgram::new(workload, alpha, num_vertices),
            &pools.words,
            |st: &BpprState| st.stops.values().sum::<u64>() * 8 + st.stops.len() as u64 * 16,
        ),
        Task::Mssp { .. } => visitor.visit(
            &MsspSlabProgram::batch(index, range),
            &pools.words,
            |st: &MsspState| st.dist.len() as u64 * 16,
        ),
        Task::Bkhs { k, .. } => visitor.visit(
            &BkhsSlabProgram::batch(index, range, k),
            &pools.flags,
            |st: &BkhsState| st.reached.len() as u64,
        ),
    }
}

struct BatchOut {
    outcome: RunOutcome,
    stats: RunStats,
    residual_delta: Vec<u64>,
}

/// `mtvc_core`'s per-batch `execute`, with spans.
struct ExecuteBatch<'a> {
    graph: &'a Graph,
    partition: Partition,
    cfg: EngineConfig,
    tracer: &'a mut Tracer,
    batch: SpanId,
    key: u64,
}

impl BatchVisitor for ExecuteBatch<'_> {
    type Out = BatchOut;

    fn visit<P: SlabProgram>(
        self,
        program: &P,
        pool: &SlabRecycler<P::Cell>,
        residual_of: fn(&P::Out) -> u64,
    ) -> BatchOut {
        let ExecuteBatch {
            graph,
            partition,
            cfg,
            tracer,
            batch,
            key,
        } = self;
        let workers = partition.num_workers();
        let owner: Vec<u16> = graph.vertices().map(|v| partition.owner_of(v)).collect();
        let runner = tracer.scope("engine.runner_new", Some(batch), key, || {
            Runner::with_partition(graph, partition, cfg)
        });
        let result = tracer.scope("engine.run_slab", Some(batch), key, || {
            runner.run_slab_recycled(program, pool)
        });
        let mut residual_delta = vec![0u64; workers];
        for (v, state) in result.states.iter().enumerate() {
            residual_delta[owner[v] as usize] += residual_of(state);
        }
        BatchOut {
            outcome: result.outcome,
            stats: result.stats,
            residual_delta,
        }
    }
}

/// Totals of the staged replica.
#[derive(Debug, Clone, Default)]
pub struct Staged {
    pub rounds: usize,
    pub sent_wire: u64,
    pub delivered: u64,
    pub compute_s: f64,
    pub route_s: f64,
    /// Bytes allocated in each round after the first three of a batch
    /// (buffers are still growing towards their high-water mark there).
    pub steady_round_alloc: Vec<f64>,
}

impl Staged {
    fn absorb(&mut self, other: &Staged) {
        self.rounds += other.rounds;
        self.sent_wire += other.sent_wire;
        self.delivered += other.delivered;
        self.compute_s += other.compute_s;
        self.route_s += other.route_s;
        self.steady_round_alloc
            .extend_from_slice(&other.steady_round_alloc);
    }
}

/// Rounds of a batch left out of the steady-state allocation figure.
const ALLOC_WARMUP_ROUNDS: usize = 3;

struct StageBatch<'a> {
    graph: &'a Graph,
    partition: &'a Partition,
    locals: &'a LocalIndex,
    profile: &'a SystemProfile,
    seed: u64,
    tracer: &'a mut Tracer,
    parent: SpanId,
}

impl BatchVisitor for StageBatch<'_> {
    type Out = Staged;

    /// The fold-at-send round loop of `Runner::run_core` (begin_round →
    /// emit_sinks → compute → route_presharded) without pricing,
    /// ledger, checkpoints or paging, as
    /// `mtvc_bench::round_loop::drive_core_presharded` builds it.
    fn visit<P: SlabProgram>(
        self,
        program: &P,
        pool: &SlabRecycler<P::Cell>,
        _residual_of: fn(&P::Out) -> u64,
    ) -> Staged {
        let core = PerSlab::with_recycler(program, pool);
        let StageBatch {
            graph,
            partition,
            locals,
            profile,
            seed,
            tracer,
            parent,
        } = self;
        let workers = partition.num_workers();
        let msg_bytes = core.message_bytes();
        let combine = profile.combiner;
        let mut stores: Vec<_> = locals
            .worker_vertices()
            .iter()
            .map(|list| core.make_store(list))
            .collect();
        let mut inboxes: Vec<Inbox<P::Message>> = (0..workers).map(|_| Inbox::new()).collect();
        let mut grid: RouteGrid<P::Message> = RouteGrid::new(workers);
        grid.set_policy(profile.route_policy(false));
        let mut out = Staged::default();

        for round in 0.. {
            if round > 0 {
                if inboxes.iter().all(|i| i.is_empty()) {
                    break;
                }
                if core.max_rounds().is_some_and(|max| round > max) {
                    break;
                }
            }
            let allocated = crate::alloc::allocated_bytes();
            let span = tracer.begin("round", Some(parent), round as u64);
            let compute = tracer.begin("tasks.compute", Some(span), round as u64);
            grid.begin_round(combine, locals);
            for (((w, vertices), mut sink), inbox) in locals
                .worker_vertices()
                .iter()
                .enumerate()
                .zip(grid.emit_sinks(graph, partition, locals, None, msg_bytes))
                .zip(inboxes.iter_mut())
            {
                if round == 0 {
                    for (li, &v) in vertices.iter().enumerate() {
                        let mut rng = vertex_rng(seed, round, v);
                        let mut ctx = Context::new(v, round, graph, &mut rng, &mut sink);
                        core.init_vertex(v, li as u32, &mut stores[w], &mut ctx);
                    }
                } else {
                    let mut start = 0usize;
                    for run in inbox.runs() {
                        let msgs = &inbox.deliveries()[start..run.end as usize];
                        start = run.end as usize;
                        let mut rng = vertex_rng(seed, round, run.dest);
                        let mut ctx = Context::new(run.dest, round, graph, &mut rng, &mut sink);
                        core.compute_vertex(run.dest, run.local, &mut stores[w], msgs, &mut ctx);
                    }
                    inbox.clear();
                }
            }
            tracer.end(compute);
            let route = tracer.begin("engine.route", Some(span), round as u64);
            let stats = grid.route_presharded(None, &mut inboxes, locals, msg_bytes, combine);
            out.sent_wire += stats.sent_wire;
            // What `RunStats::total_messages_delivered` counts.
            out.delivered += if combine {
                stats.delivered_tuples
            } else {
                stats.delivered_wire()
            };
            tracer.end(route);
            tracer.end(span);
            out.compute_s += tracer.secs(compute);
            out.route_s += tracer.secs(route);
            out.rounds = round + 1;
            if round >= ALLOC_WARMUP_ROUNDS {
                out.steady_round_alloc
                    .push((crate::alloc::allocated_bytes() - allocated) as f64);
            }
        }
        core.recycle(stores);
        out
    }
}
