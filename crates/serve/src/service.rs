//! The online task service: queue → admission → batch former → worker
//! pool → completions.
//!
//! [`TaskService::start`] trains the §5 memory model for every
//! supported task shape (light `2^r` probes, Levenberg–Marquardt fit),
//! then spawns one *batch former* thread and a pool of *worker*
//! threads. Tenants submit unit-task requests and receive a [`Ticket`]
//! they can block on; the former packs compatible requests into the
//! largest batch the admission controller allows and hands it to the
//! pool over a bounded crossbeam channel; workers execute batches on
//! the simulated cluster and publish per-request completions together
//! with queue-wait / end-to-end latency histograms.
//! [`TaskService::shutdown`] closes the queue, drains everything still
//! queued or in flight, joins the threads, and returns the final
//! [`ServiceReport`].
//!
//! A batch that overloads or overflows past the engine's OOM
//! bisection re-queues its requests, up to `RETRY_BUDGET` (2) times
//! with capped exponential backoff, before they fail typed. Admission
//! runs at the paper's overload threshold `OVERLOAD_P` (0.85) and
//! flushes residual memory every `FLUSH_EVERY` (4) batches. These are
//! constants of this module, not configuration.

use crate::admission::{AdmissionController, AdmissionError};
use crate::controller::{ControllerStats, JointController, SchedulerPolicy};
use crate::queue::{same_shape, DrrQueue, QueuePolicy, SubmitError};
use crate::request::{Completion, QueuedRequest, RequestId, RequestOutcome, SloClass, TaskRequest};
use mtvc_cluster::{ClusterSpec, FaultPlan};
use mtvc_core::{select_sources, BatchRunner, RecoveryPolicy, Task};
use mtvc_graph::hash::mix64;
use mtvc_graph::Graph;
use mtvc_metrics::{
    Bytes, FaultStats, Histogram, RunOutcome, SimTime, TimedSeries, OVERLOAD_CUTOFF,
};
use mtvc_systems::SystemKind;
use mtvc_tune::{train, FitError, OnlineLatencyModel, OnlineMemoryModel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Overload threshold `p` of Eq. 1–2: the fraction of usable memory a
/// machine may reach before a run counts as strained.
const OVERLOAD_P: f64 = 0.85;

/// Completed batches per flush epoch: results aggregate and residual
/// memory releases every this many batches.
const FLUSH_EVERY: usize = 4;

/// Times a request whose carrying batch failed is re-queued before the
/// failure becomes terminal.
const RETRY_BUDGET: u32 = 2;

/// Base delay of the exponential retry backoff (doubles per attempt,
/// plus deterministic jitter).
const RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// Hard cap on a single retry's backoff delay.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(20);

/// Configuration of a [`TaskService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Vertex-centric system profile batches execute under.
    pub system: SystemKind,
    /// The shared cluster all tenants run on.
    pub cluster: ClusterSpec,
    /// Task shapes the service accepts (workload fields are ignored;
    /// one memory model is trained per shape at startup).
    pub shapes: Vec<Task>,
    /// Worker threads executing batches concurrently.
    pub workers: usize,
    /// Queue capacity in requests (backpressure bound).
    pub queue_capacity: usize,
    /// DRR quantum in workload units per tenant per round.
    pub quantum: u64,
    /// Hard cap on a single batch's workload, independent of headroom.
    pub max_batch: u64,
    /// Workload the training phase probes towards (`2^r ≤ max(8, this/4)`).
    pub training_workload: u64,
    /// Seed for training, source selection, and batch execution.
    pub seed: u64,
    /// Engine checkpoint cadence: rounds between superstep snapshots
    /// inside every batch (drives rollback-and-replay recovery).
    pub checkpoint_every: usize,
    /// Fault plan injected into every batch — chaos testing. `None`
    /// runs fault-free.
    pub chaos: Option<FaultPlan>,
    /// Which scheduler forms batches: the PR-1 baseline or the
    /// SLO-aware scheduler (EDF-within-DRR, class-weighted quanta, and
    /// the joint controller sizing batches).
    pub scheduler: SchedulerPolicy,
}

impl ServiceConfig {
    /// Light training probes, two workers, a 256-request queue.
    /// [`TaskService::start`] refuses `workers`, `queue_capacity`,
    /// `quantum` or `max_batch` of zero.
    pub fn new(system: SystemKind, cluster: ClusterSpec) -> ServiceConfig {
        ServiceConfig {
            system,
            cluster,
            shapes: Vec::new(),
            workers: 2,
            queue_capacity: 256,
            quantum: 8,
            max_batch: 1 << 20,
            training_workload: 256,
            seed: 0x5EED,
            checkpoint_every: 8,
            chaos: None,
            scheduler: SchedulerPolicy::BaselineDrr,
        }
    }

    /// Pick the scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Add a supported task shape.
    pub fn with_shape(mut self, shape: Task) -> Self {
        self.shapes.push(shape);
        self
    }

    /// Set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the queue capacity (requests).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the DRR quantum (workload units).
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        self.quantum = quantum;
        self
    }

    /// Set the per-batch workload cap.
    pub fn with_max_batch(mut self, cap: u64) -> Self {
        self.max_batch = cap;
        self
    }

    /// Set the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the engine checkpoint cadence (rounds between snapshots).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Inject a fault plan into every batch (chaos testing).
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }
}

/// Why [`TaskService::start`] failed.
#[derive(Debug)]
pub enum StartError {
    /// `shapes` was empty.
    NoShapes,
    /// A sizing field that must be at least 1 was 0: `workers`,
    /// `queue_capacity`, `quantum` or `max_batch` (the name is
    /// carried). Such a service could never serve a request.
    ZeroField(&'static str),
    /// The memory-model fit for a shape did not converge.
    Fit {
        /// The shape whose training data could not be fitted.
        shape: Task,
        /// The underlying fitter error.
        source: FitError,
    },
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::NoShapes => write!(f, "service needs at least one task shape"),
            StartError::ZeroField(field) => write!(f, "ServiceConfig::{field} must be at least 1"),
            StartError::Fit { shape, source } => {
                write!(f, "memory-model fit failed for {shape}: {source}")
            }
        }
    }
}

impl std::error::Error for StartError {}

/// Handle for one submitted request; resolves to its [`Completion`].
#[derive(Debug, Clone)]
pub struct Ticket {
    id: RequestId,
    slot: Arc<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    done: Mutex<Option<Completion>>,
    cv: Condvar,
}

impl Ticket {
    /// The id the service assigned to the request.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Block until the request finishes.
    pub fn wait(&self) -> Completion {
        let mut done = self.slot.done.lock().unwrap();
        loop {
            if let Some(c) = done.take() {
                return c;
            }
            done = self.slot.cv.wait(done).unwrap();
        }
    }

    /// The completion, if already published.
    pub fn try_get(&self) -> Option<Completion> {
        self.slot.done.lock().unwrap().take()
    }
}

/// Per-[`SloClass`] slice of the service report: how one tenant class
/// fared, independent of the others.
#[derive(Debug, Clone, Default)]
pub struct ClassReport {
    /// Requests of this class executed to completion.
    pub served: u64,
    /// Requests of this class dropped on their dispatch deadline.
    pub deadline: u64,
    /// Requests of this class that could never fit the cluster.
    pub rejected: u64,
    /// Requests of this class whose batch failed terminally.
    pub failed: u64,
    /// Served requests of this class that carried a deadline — i.e.
    /// deadlines *met* (`deadline` above counts the misses).
    pub deadline_met: u64,
    /// Of the `deadline` misses, how many expired while still queued
    /// (never dispatched), as opposed to after a failed batch.
    pub expired_in_queue: u64,
    /// Time-in-queue of the in-queue expiries, microseconds — stamped
    /// inside the queue lock at removal.
    pub expired_wait: Histogram,
    /// End-to-end latency of this class's requests, microseconds.
    pub latency: Histogram,
    /// Queue wait of this class's requests, microseconds.
    pub queue_wait: Histogram,
}

/// Final statistics returned by [`TaskService::shutdown`]. A running
/// service accumulates one as its batches and requests finish.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Requests executed to completion.
    pub served: u64,
    /// Requests dropped on their dispatch deadline (queued or after a
    /// failed batch their retries could not redeem in time).
    pub deadline: u64,
    /// Requests that could never fit the cluster.
    pub rejected: u64,
    /// Requests whose batch overloaded or overflowed and whose retry
    /// budget is exhausted.
    pub failed: u64,
    /// Batches dispatched to the worker pool.
    pub batches: u64,
    /// Flush epochs completed (residual-memory releases).
    pub flushes: u64,
    /// Online memory-model refits across shapes.
    pub refits: u64,
    /// Batches that exceeded the 6000 s cutoff.
    pub overload_batches: u64,
    /// Batches that exhausted machine memory.
    pub overflow_batches: u64,
    /// Wall-clock queue wait per request, microseconds.
    pub queue_wait: Histogram,
    /// Wall-clock end-to-end latency per request, microseconds.
    pub latency: Histogram,
    /// Simulated batch running time, milliseconds.
    pub service_time: Histogram,
    /// Workload units per dispatched batch.
    pub batch_workload: Histogram,
    /// Highest queue depth observed (requests).
    pub max_queue_depth: u64,
    /// Total simulated cluster time across batches.
    pub total_sim_time: SimTime,
    /// Requests re-queued after their batch failed.
    pub retries: u64,
    /// Retried requests that were eventually served.
    pub retried_success: u64,
    /// Every batch's fault and recovery record, summed: faults the
    /// chaos plan injected, replayed supersteps, hard OOM kills,
    /// corrupted and retransmitted buckets, and so on.
    pub faults: FaultStats,
    /// Simulated recovery time per faulted batch, milliseconds.
    pub recovery_latency: Histogram,
    /// Out-of-core message spill traffic across all batches, summed
    /// from each batch's
    /// `RunStats::total_spilled_bytes`.
    pub total_spilled_bytes: Bytes,
    /// Partition bytes streamed in by the pager across all batches
    /// (zero when paging is off).
    pub total_loaded_bytes: Bytes,
    /// Per-[`SloClass`] breakdown, indexed by [`SloClass::index`].
    pub class: [ClassReport; 3],
    /// Queue depth over time: `(seconds since start, requests)`
    /// sampled by the batch former each scheduling round.
    pub queue_depth_series: TimedSeries,
    /// What the joint controller did (all-zero under the baseline
    /// scheduler, which never consults it).
    pub controller: ControllerStats,
    /// The scheduler this report was produced under.
    pub scheduler: SchedulerPolicy,
}

impl ServiceReport {
    /// Total requests that reached a terminal outcome.
    pub fn requests(&self) -> u64 {
        self.served + self.deadline + self.rejected + self.failed
    }

    /// The report slice for `class`.
    pub fn class(&self, class: SloClass) -> &ClassReport {
        &self.class[class.index()]
    }

    /// The report a service starts from and accumulates into.
    fn empty() -> ServiceReport {
        ServiceReport {
            queue_depth_series: TimedSeries::new("queue_depth"),
            ..ServiceReport::default()
        }
    }
}

struct Shared {
    queue: DrrQueue,
    admission: Mutex<AdmissionController>,
    /// Signalled by workers whenever a completion frees headroom.
    headroom: Condvar,
    pending: Mutex<HashMap<RequestId, Arc<Slot>>>,
    metrics: Mutex<ServiceReport>,
    shapes: Vec<Task>,
    /// One online latency model per shape (parallel to `shapes`):
    /// workers feed observed batch wall latencies in; the SLO
    /// scheduler inverts the fit to size deadline-constrained batches.
    latency_models: Vec<Mutex<OnlineLatencyModel>>,
    /// Joint controller + its stats (the former is the only caller;
    /// the lock exists so `shutdown` can read the stats).
    controller: Mutex<JointController>,
    scheduler: SchedulerPolicy,
    /// Epoch for the queue-depth time series.
    started: Instant,
}

impl Shared {
    fn latency_model_for(&self, shape: &Task) -> Option<&Mutex<OnlineLatencyModel>> {
        self.shapes
            .iter()
            .position(|s| same_shape(s, shape))
            .map(|i| &self.latency_models[i])
    }
}

/// A batch formed by the scheduler, in flight to a worker.
struct FormedBatch {
    id: u64,
    shape: Task,
    workload: u64,
    requests: Vec<QueuedRequest>,
    /// Per-machine residual snapshot the batch starts against.
    residual: Vec<u64>,
    dispatched: Instant,
}

/// The running service. Dropping it shuts down without a report;
/// prefer [`TaskService::shutdown`].
pub struct TaskService {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    former: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TaskService {
    /// Train the memory model for every shape, fit it, and spawn the
    /// former and worker threads. Training cost is the §5 "minor"
    /// probe cost, paid once here.
    pub fn start(graph: Arc<Graph>, cfg: ServiceConfig) -> Result<TaskService, StartError> {
        if cfg.shapes.is_empty() {
            return Err(StartError::NoShapes);
        }
        for (field, value) in [
            ("workers", cfg.workers as u64),
            ("queue_capacity", cfg.queue_capacity as u64),
            ("quantum", cfg.quantum),
            ("max_batch", cfg.max_batch),
        ] {
            if value == 0 {
                return Err(StartError::ZeroField(field));
            }
        }
        let mut admission = AdmissionController::new(&cfg.cluster, OVERLOAD_P, FLUSH_EVERY);
        let mut runners: Vec<(Task, Arc<BatchRunner>)> = Vec::new();
        for (i, &shape) in cfg.shapes.iter().enumerate() {
            if admission.supports(&shape) {
                continue; // duplicate shape in the config
            }
            let probe_task = shape.with_workload(cfg.training_workload);
            let data = train(
                &graph,
                probe_task,
                cfg.system,
                &cfg.cluster,
                cfg.seed ^ mix64(i as u64 + 1),
            );
            let model = OnlineMemoryModel::fit(&data, cfg.seed)
                .map_err(|source| StartError::Fit { shape, source })?;
            admission.register(shape, model);
            let mut runner =
                BatchRunner::new(graph.clone(), shape, cfg.system, cfg.cluster.clone())
                    .with_checkpoint_every(cfg.checkpoint_every);
            if let Some(plan) = &cfg.chaos {
                runner = runner.with_faults(plan.clone());
            }
            runners.push((shape, Arc::new(runner)));
        }

        let queue_policy = match cfg.scheduler {
            SchedulerPolicy::BaselineDrr => QueuePolicy::default(),
            SchedulerPolicy::SloAware => QueuePolicy::slo_aware(),
        };
        let shapes: Vec<Task> = cfg.shapes.iter().map(|s| s.with_workload(1)).collect();
        let latency_models = shapes
            .iter()
            .map(|_| Mutex::new(OnlineLatencyModel::new()))
            .collect();
        let shared = Arc::new(Shared {
            queue: DrrQueue::new(cfg.queue_capacity, cfg.quantum).with_policy(queue_policy),
            admission: Mutex::new(admission),
            headroom: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            metrics: Mutex::new(ServiceReport::empty()),
            shapes,
            latency_models,
            controller: Mutex::new(JointController::new(cfg.workers)),
            scheduler: cfg.scheduler,
            started: Instant::now(),
        });

        let (tx, rx) = crossbeam::channel::bounded::<FormedBatch>(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let rx = rx.clone();
            let shared = shared.clone();
            let runners = runners.clone();
            let seed = cfg.seed;
            workers.push(std::thread::spawn(move || {
                worker_loop(&shared, &runners, seed, rx)
            }));
        }
        drop(rx);

        let former = {
            let shared = shared.clone();
            let max_batch = cfg.max_batch;
            std::thread::spawn(move || former_loop(&shared, max_batch, tx))
        };

        Ok(TaskService {
            shared,
            next_id: AtomicU64::new(0),
            former: Some(former),
            workers,
        })
    }

    /// Submit a request, blocking while the queue is at capacity
    /// (backpressure). Returns a [`Ticket`] resolving to the
    /// completion.
    pub fn submit(&self, request: TaskRequest) -> Result<Ticket, SubmitError> {
        self.submit_inner(request, true)
    }

    /// Submit without blocking; fails with [`SubmitError::Full`] when
    /// the queue is at capacity.
    pub fn try_submit(&self, request: TaskRequest) -> Result<Ticket, SubmitError> {
        self.submit_inner(request, false)
    }

    fn submit_inner(&self, request: TaskRequest, block: bool) -> Result<Ticket, SubmitError> {
        if request.workload() == 0 {
            return Err(SubmitError::Empty);
        }
        if !self
            .shared
            .shapes
            .iter()
            .any(|s| same_shape(s, &request.task))
        {
            return Err(AdmissionError::UnregisteredShape(request.task.with_workload(1)).into());
        }
        let id = RequestId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let slot = Arc::new(Slot::default());
        self.shared.pending.lock().unwrap().insert(id, slot.clone());
        let queued = QueuedRequest {
            id,
            request,
            submitted: Instant::now(),
            attempts: 0,
        };
        let res = if block {
            self.shared.queue.submit_blocking(queued)
        } else {
            self.shared.queue.try_submit(queued)
        };
        match res {
            Ok(()) => Ok(Ticket { id, slot }),
            Err(e) => {
                self.shared.pending.lock().unwrap().remove(&id);
                Err(e)
            }
        }
    }

    /// Largest workload a `shape` batch could ever carry (idle, flushed
    /// cluster) — requests above this are rejected outright. Errs typed
    /// when no model is registered for the shape.
    pub fn admissible_max(&self, shape: &Task) -> Result<u64, AdmissionError> {
        self.shared.admission.lock().unwrap().max_possible(shape)
    }

    /// Stop accepting requests, drain everything queued and in flight,
    /// join all threads, and return the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.stop();
        let mut report = self.shared.metrics.lock().unwrap().clone();
        let ac = self.shared.admission.lock().unwrap();
        report.flushes = ac.flushes();
        report.refits = ac.refits();
        report.max_queue_depth = self.shared.queue.depth().high_water();
        report.controller = self.shared.controller.lock().unwrap().stats();
        report.scheduler = self.shared.scheduler;
        report
    }

    fn stop(&mut self) {
        self.shared.queue.close();
        if let Some(former) = self.former.take() {
            let _ = former.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for TaskService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Publish a terminal outcome for one request.
fn finish(
    shared: &Shared,
    req: QueuedRequest,
    outcome: RequestOutcome,
    dispatched: Option<Instant>,
) {
    let now = Instant::now();
    let queue_wait = dispatched.unwrap_or(now).duration_since(req.submitted);
    let latency = now.duration_since(req.submitted);
    let class = req.request.class;
    {
        let mut m = shared.metrics.lock().unwrap();
        let c = &mut m.class[class.index()];
        match &outcome {
            RequestOutcome::Served { .. } => {
                c.served += 1;
                if req.request.deadline.is_some() {
                    c.deadline_met += 1;
                }
            }
            RequestOutcome::Deadline => {
                c.deadline += 1;
                if dispatched.is_none() {
                    // Never dispatched: the deadline passed in-queue.
                    c.expired_in_queue += 1;
                }
            }
            RequestOutcome::Rejected => c.rejected += 1,
            RequestOutcome::Failed { .. } => c.failed += 1,
        }
        c.latency.record(latency.as_micros() as u64);
        c.queue_wait.record(queue_wait.as_micros() as u64);
        match &outcome {
            RequestOutcome::Served { .. } => {
                m.served += 1;
                if req.attempts > 0 {
                    m.retried_success += 1;
                }
            }
            RequestOutcome::Deadline => m.deadline += 1,
            RequestOutcome::Rejected => m.rejected += 1,
            RequestOutcome::Failed { .. } => m.failed += 1,
        }
        m.queue_wait.record(queue_wait.as_micros() as u64);
        m.latency.record(latency.as_micros() as u64);
    }
    let completion = Completion {
        id: req.id,
        tenant: req.request.tenant,
        class,
        outcome,
        queue_wait,
        latency,
        attempts: req.attempts,
    };
    let slot = shared.pending.lock().unwrap().remove(&req.id);
    if let Some(slot) = slot {
        *slot.done.lock().unwrap() = Some(completion);
        slot.cv.notify_all();
    }
}

/// How long the former waits for worker completions before rechecking
/// headroom (a safety valve; the headroom condvar is the fast path).
const HEADROOM_POLL: Duration = Duration::from_millis(20);

fn former_loop(shared: &Shared, max_batch: u64, tx: crossbeam::channel::Sender<FormedBatch>) {
    let mut last_depth = usize::MAX;
    while let Some(shape) = shared.queue.next_shape_blocking() {
        let depth = shared.queue.len();
        if depth != last_depth {
            last_depth = depth;
            let t = shared.started.elapsed().as_secs_f64();
            shared
                .metrics
                .lock()
                .unwrap()
                .queue_depth_series
                .push(t, depth as f64);
        }
        let w_max = {
            let ac = shared.admission.lock().unwrap();
            match ac.max_admissible(&shape) {
                Ok(w) => w.min(max_batch),
                Err(_) => {
                    // No model for this shape (submit gates on the
                    // registered set, so only a config bug reaches
                    // here): drain the head typed instead of panicking.
                    drop(ac);
                    if let Some(req) = shared.queue.pop_head(&shape) {
                        finish(shared, req, RequestOutcome::Rejected, None);
                    }
                    continue;
                }
            }
        };
        if w_max >= 1 {
            let now = Instant::now();
            // The joint controller may size the batch below the full
            // headroom; the cap is raised back to the head's workload so
            // a head wider than the cap cannot wedge the former.
            let budget = match shared.scheduler {
                SchedulerPolicy::BaselineDrr => w_max,
                SchedulerPolicy::SloAware => {
                    let head_slack = shared.queue.head_slack(&shape, now);
                    let head_w = shared.queue.head_workload(&shape).unwrap_or(1);
                    let cap = {
                        let model = shared
                            .latency_model_for(&shape)
                            .expect("admissible shape has a latency model")
                            .lock()
                            .unwrap();
                        shared
                            .controller
                            .lock()
                            .unwrap()
                            .decide(depth, w_max, head_slack, &model)
                    };
                    cap.max(head_w.min(w_max))
                }
            };
            let round = shared.queue.take_batch(&shape, budget, now);
            if !round.expired.is_empty() {
                let mut m = shared.metrics.lock().unwrap();
                for exp in &round.expired {
                    m.class[exp.request.request.class.index()]
                        .expired_wait
                        .record(exp.time_in_queue.as_micros() as u64);
                }
            }
            for exp in round.expired {
                finish(shared, exp.request, RequestOutcome::Deadline, None);
            }
            if !round.taken.is_empty() {
                let workload: u64 = round.taken.iter().map(|r| r.workload()).sum();
                let reserved = {
                    let mut ac = shared.admission.lock().unwrap();
                    ac.reserve(&shape, workload)
                };
                let Ok((id, residual)) = reserved else {
                    for req in round.taken {
                        finish(shared, req, RequestOutcome::Rejected, None);
                    }
                    continue;
                };
                let batch = FormedBatch {
                    id,
                    shape,
                    workload,
                    requests: round.taken,
                    residual,
                    dispatched: Instant::now(),
                };
                // Bounded channel: backpressure when every worker is
                // busy. A send error means the workers are gone.
                if tx.send(batch).is_err() {
                    return;
                }
                continue;
            }
        }
        // Nothing was taken: the ring head does not fit the current
        // headroom (or the budget is zero).
        let Some(w_head) = shared.queue.head_workload(&shape) else {
            continue; // head expired away or shape rotated; re-peek
        };
        let mut ac = shared.admission.lock().unwrap();
        if w_head > ac.max_possible(&shape).unwrap_or(0).min(max_batch) {
            // Cannot fit even an idle, flushed cluster: reject.
            drop(ac);
            if let Some(req) = shared.queue.pop_head(&shape) {
                finish(shared, req, RequestOutcome::Rejected, None);
            }
            continue;
        }
        if w_head <= w_max {
            // Fits the headroom; the DRR deficit just has not built up
            // yet. Loop again — every round banks another quantum.
            continue;
        }
        if ac.has_inflight() {
            // Wait for a worker to free headroom.
            let _ = shared.headroom.wait_timeout(ac, HEADROOM_POLL);
            continue;
        }
        if ac.has_residual() {
            // Idle cluster blocked only by unshipped results: close the
            // flush epoch early and re-check.
            ac.flush();
            continue;
        }
        // No in-flight work, no residual, yet w_head > w_max: the
        // model's idle admission equals max_possible, so this is
        // unreachable; guard against a pathological fit by rejecting.
        drop(ac);
        if let Some(req) = shared.queue.pop_head(&shape) {
            finish(shared, req, RequestOutcome::Rejected, None);
        }
    }
}

fn worker_loop(
    shared: &Shared,
    runners: &[(Task, Arc<BatchRunner>)],
    seed: u64,
    rx: crossbeam::channel::Receiver<FormedBatch>,
) {
    let policy = RecoveryPolicy::default();
    while let Ok(batch) = rx.recv() {
        let Some(runner) = runners
            .iter()
            .find(|(s, _)| same_shape(s, &batch.shape))
            .map(|(_, r)| r)
        else {
            // No runner for this shape (only a config bug reaches
            // here): release the reservation and fail the requests
            // typed instead of panicking the worker.
            shared.admission.lock().unwrap().abort(batch.id);
            shared.headroom.notify_all();
            for req in batch.requests {
                finish(
                    shared,
                    req,
                    RequestOutcome::Failed {
                        reason: "unregistered shape",
                    },
                    Some(batch.dispatched),
                );
            }
            continue;
        };
        let batch_seed = seed ^ mix64(batch.id.wrapping_add(0xB42C));
        let sources = match batch.shape {
            Task::Bppr { .. } => Vec::new(),
            Task::Mssp { .. } | Task::Bkhs { .. } => {
                select_sources(runner.graph(), batch.workload, batch_seed)
            }
        };
        let run_started = Instant::now();
        let exec = runner.run_batch_bisecting(
            batch.workload,
            &sources,
            &batch.residual,
            batch_seed,
            OVERLOAD_CUTOFF,
            &policy,
        );
        let completed_time = match exec.outcome {
            RunOutcome::Completed(t) => Some(t),
            _ => None,
        };
        // Feed the observed wall latency back as a refit point: the
        // SLO scheduler inverts this model to size deadline-bound
        // batches against real (not simulated) execution cost.
        if completed_time.is_some() {
            if let Some(model) = shared.latency_model_for(&batch.shape) {
                model
                    .lock()
                    .unwrap()
                    .observe(batch.workload, run_started.elapsed().as_secs_f64());
            }
        }
        {
            let mut ac = shared.admission.lock().unwrap();
            // OOM-killed attempts are censored observations: the model
            // learns the kill's demand as a lower bound on the peak.
            for &(w, bound) in &exec.censored {
                ac.record_censored(&batch.shape, w, bound);
            }
            ac.complete(
                batch.id,
                &batch.shape,
                batch.workload,
                completed_time.map(|_| exec.peak_memory.as_f64()),
                &batch.residual,
                &exec.residual_delta,
            );
        }
        shared.headroom.notify_all();
        {
            let mut m = shared.metrics.lock().unwrap();
            m.batches += 1;
            m.batch_workload.record(batch.workload);
            m.total_sim_time += exec.time;
            m.service_time
                .record((exec.time.as_secs() * 1e3).round() as u64);
            let f = &exec.stats.faults;
            m.faults.absorb(f);
            m.total_spilled_bytes += exec.stats.total_spilled_bytes;
            m.total_loaded_bytes += exec.stats.total_loaded_bytes;
            if f.injected > 0 {
                m.recovery_latency
                    .record((f.recovery_time.as_secs() * 1e3).round() as u64);
            }
            match exec.outcome {
                RunOutcome::Completed(_) => {}
                RunOutcome::Overload => m.overload_batches += 1,
                RunOutcome::Overflow => m.overflow_batches += 1,
            }
        }
        match completed_time {
            Some(t) => {
                for req in batch.requests {
                    finish(
                        shared,
                        req,
                        RequestOutcome::Served { batch_time: t },
                        Some(batch.dispatched),
                    );
                }
            }
            None => {
                let reason = match exec.outcome {
                    RunOutcome::Overload => "overload",
                    _ => "overflow",
                };
                retry_or_fail(shared, batch.requests, reason, batch.dispatched);
            }
        }
    }
}

/// Settle every request of a failed batch: re-queue it (with
/// exponential backoff and deterministic jitter) while the retry budget
/// and its deadline allow, otherwise publish the typed terminal
/// outcome.
fn retry_or_fail(
    shared: &Shared,
    requests: Vec<QueuedRequest>,
    reason: &'static str,
    dispatched: Instant,
) {
    for mut req in requests {
        if req.attempts >= RETRY_BUDGET {
            finish(
                shared,
                req,
                RequestOutcome::Failed { reason },
                Some(dispatched),
            );
            continue;
        }
        if req.expired(Instant::now()) {
            // The deadline passed while the batch was failing; no
            // retry can land in time.
            finish(shared, req, RequestOutcome::Deadline, Some(dispatched));
            continue;
        }
        // base · 2^attempt, jittered by up to one base, capped. The
        // jitter is deterministic in (request, attempt) so runs stay
        // reproducible.
        let base = RETRY_BACKOFF
            .saturating_mul(1u32 << req.attempts.min(16))
            .min(RETRY_BACKOFF_CAP);
        let jitter_ns = mix64(req.id.0 ^ ((u64::from(req.attempts) + 1) << 48))
            % RETRY_BACKOFF.as_nanos() as u64;
        let delay = (base + Duration::from_nanos(jitter_ns)).min(RETRY_BACKOFF_CAP);
        std::thread::sleep(delay);
        req.attempts += 1;
        match shared.queue.try_submit(req.clone()) {
            Ok(()) => {
                shared.metrics.lock().unwrap().retries += 1;
            }
            // Queue closed (shutdown) or full: the retry cannot be
            // parked anywhere, so the failure becomes terminal.
            Err(_) => finish(
                shared,
                req,
                RequestOutcome::Failed { reason },
                Some(dispatched),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TenantId;
    use mtvc_graph::generators;

    fn small_service(shapes: &[Task]) -> TaskService {
        let graph = Arc::new(generators::power_law(300, 1400, 2.4, 11));
        let mut cfg = ServiceConfig::new(SystemKind::PregelPlus, ClusterSpec::galaxy(4))
            .with_workers(2)
            .with_quantum(16)
            .with_seed(0xC0FFEE);
        cfg.training_workload = 64;
        for &s in shapes {
            cfg = cfg.with_shape(s);
        }
        TaskService::start(graph, cfg).expect("service starts")
    }

    #[test]
    fn serves_a_mixed_stream_to_completion() {
        let svc = small_service(&[Task::mssp(1), Task::bppr(1)]);
        let mut tickets = Vec::new();
        for i in 0..20u64 {
            let tenant = TenantId((i % 3) as u32);
            let task = if i % 2 == 0 {
                Task::mssp(2)
            } else {
                Task::bppr(4)
            };
            tickets.push(svc.submit(TaskRequest::new(tenant, task)).unwrap());
        }
        for t in &tickets {
            let c = t.wait();
            assert!(c.outcome.is_served(), "{:?}", c.outcome);
            assert!(c.latency >= c.queue_wait);
        }
        let report = svc.shutdown();
        assert_eq!(report.served, 20);
        assert_eq!(report.requests(), 20);
        assert_eq!(report.overload_batches, 0);
        assert_eq!(report.overflow_batches, 0);
        assert!(report.batches >= 1);
        assert_eq!(report.latency.count(), 20);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let svc = small_service(&[Task::mssp(1)]);
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| {
                svc.submit(TaskRequest::new(TenantId(i % 2), Task::mssp(1)))
                    .unwrap()
            })
            .collect();
        let report = svc.shutdown();
        assert_eq!(report.served, 10);
        for t in tickets {
            assert!(t.try_get().is_some());
        }
    }

    #[test]
    fn unsupported_shape_is_refused_at_submit() {
        let svc = small_service(&[Task::mssp(1)]);
        let err = svc
            .submit(TaskRequest::new(TenantId(0), Task::bkhs(1)))
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::Admission(AdmissionError::UnregisteredShape(Task::bkhs(1)))
        );
        assert!(svc.admissible_max(&Task::bkhs(1)).is_err());
        svc.shutdown();
    }

    #[test]
    fn oversized_request_is_rejected_not_hung() {
        let svc = small_service(&[Task::bppr(1)]);
        // A single request far beyond any admissible batch.
        let t = svc
            .submit(TaskRequest::new(TenantId(0), Task::bppr(u64::MAX / 2)))
            .unwrap();
        let c = t.wait();
        assert_eq!(c.outcome, RequestOutcome::Rejected);
        let report = svc.shutdown();
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn submissions_after_shutdown_fail_closed() {
        let svc = small_service(&[Task::mssp(1)]);
        svc.shared.queue.close();
        let err = svc
            .submit(TaskRequest::new(TenantId(0), Task::mssp(1)))
            .unwrap_err();
        assert_eq!(err, SubmitError::Closed);
        svc.shutdown();
    }

    #[test]
    fn expired_requests_report_deadline() {
        let svc = small_service(&[Task::mssp(1)]);
        // Deadline already passed relative to a backdated submission.
        let t = svc
            .submit(
                TaskRequest::new(TenantId(0), Task::mssp(1)).with_deadline(Duration::from_nanos(1)),
            )
            .unwrap();
        let c = t.wait();
        // Either it expired in the queue, or the former dispatched it
        // before the deadline check saw it — both are terminal.
        assert!(matches!(
            c.outcome,
            RequestOutcome::Deadline | RequestOutcome::Served { .. }
        ));
        svc.shutdown();
    }

    /// Satellite (c): shutdown under injected worker-batch faults must
    /// still resolve every ticket — recoverable crashes and delivery
    /// failures replay from checkpoints and the drain leaves nothing
    /// hung on [`Ticket::wait`].
    #[test]
    fn shutdown_drains_every_ticket_under_injected_faults() {
        let graph = Arc::new(generators::grid(12, 12));
        let mut cfg = ServiceConfig::new(SystemKind::PregelPlus, ClusterSpec::galaxy(4))
            .with_workers(2)
            .with_quantum(16)
            .with_seed(0xFA117)
            .with_checkpoint_every(2)
            // Off-cadence fault rounds: a crash at a checkpoint round
            // restores to itself and replays nothing.
            .with_chaos(
                FaultPlan::none()
                    .with_crash(3, 1)
                    .with_delivery_failure(5, 0),
            );
        cfg.training_workload = 64;
        cfg = cfg.with_shape(Task::mssp(1)).with_shape(Task::bppr(1));
        let svc = TaskService::start(graph, cfg).expect("service starts");
        let tickets: Vec<Ticket> = (0..16u32)
            .map(|i| {
                let task = if i % 2 == 0 {
                    Task::mssp(2)
                } else {
                    Task::bppr(4)
                };
                svc.submit(TaskRequest::new(TenantId(i % 3), task)).unwrap()
            })
            .collect();
        let report = svc.shutdown();
        for t in &tickets {
            let c = t.try_get().expect("ticket left unresolved after drain");
            assert!(c.outcome.is_served(), "{:?}", c.outcome);
        }
        assert_eq!(report.requests(), 16);
        assert_eq!(
            report.served, 16,
            "recoverable faults must not fail requests"
        );
        assert!(report.faults.injected > 0, "chaos plan never fired");
        assert!(
            report.faults.replayed_rounds > 0,
            "no rollback-replay happened"
        );
        assert!(report.recovery_latency.count() > 0);
        assert_eq!(report.failed, 0);
    }

    /// The retry ladder: a request from a failed batch is re-queued
    /// with its attempt count bumped while budget and deadline allow,
    /// and fails typed (never panics, never hangs) otherwise.
    #[test]
    fn failed_requests_retry_until_budget_exhausts() {
        let shared = Shared {
            queue: DrrQueue::new(8, 8),
            admission: Mutex::new(AdmissionController::new(&ClusterSpec::galaxy(2), 0.85, 4)),
            headroom: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            metrics: Mutex::new(ServiceReport::empty()),
            shapes: vec![Task::mssp(1)],
            latency_models: vec![Mutex::new(OnlineLatencyModel::new())],
            controller: Mutex::new(JointController::new(2)),
            scheduler: SchedulerPolicy::BaselineDrr,
            started: Instant::now(),
        };
        let req = |attempts: u32| QueuedRequest {
            id: RequestId(1),
            request: TaskRequest::new(TenantId(0), Task::mssp(1)),
            submitted: Instant::now(),
            attempts,
        };
        // Under budget: re-queued with the attempt consumed.
        retry_or_fail(&shared, vec![req(0)], "overflow", Instant::now());
        assert_eq!(shared.queue.len(), 1);
        assert_eq!(shared.metrics.lock().unwrap().retries, 1);
        let requeued = shared.queue.pop_head(&Task::mssp(1)).unwrap();
        assert_eq!(requeued.attempts, 1);
        // Budget exhausted: terminal typed failure.
        retry_or_fail(&shared, vec![req(2)], "overflow", Instant::now());
        assert_eq!(shared.metrics.lock().unwrap().failed, 1);
        assert!(shared.queue.is_empty());
        // Deadline already passed: Deadline, not Failed.
        let mut stale = req(0);
        stale.request.deadline = Some(Duration::from_nanos(1));
        stale.submitted = Instant::now() - Duration::from_millis(5);
        retry_or_fail(&shared, vec![stale], "overflow", Instant::now());
        assert_eq!(shared.metrics.lock().unwrap().deadline, 1);
        // Closed queue (shutdown): the retry has nowhere to park.
        shared.queue.close();
        retry_or_fail(&shared, vec![req(0)], "overload", Instant::now());
        assert_eq!(shared.metrics.lock().unwrap().failed, 2);
    }

    /// A config that could never serve is refused typed, before any
    /// thread is spawned: zero workers would strand every ticket, a
    /// zero queue or quantum would panic inside the queue.
    #[test]
    fn start_refuses_zero_sizing_fields() {
        let graph = Arc::new(generators::grid(4, 4));
        let base = ServiceConfig::new(SystemKind::PregelPlus, ClusterSpec::galaxy(4))
            .with_shape(Task::mssp(1));
        let mut no_workers = base.clone();
        no_workers.workers = 0;
        let zeroed = [
            ("workers", no_workers),
            ("queue_capacity", base.clone().with_queue_capacity(0)),
            ("quantum", base.clone().with_quantum(0)),
            ("max_batch", base.with_max_batch(0)),
        ];
        for (field, cfg) in zeroed {
            match TaskService::start(graph.clone(), cfg) {
                Err(StartError::ZeroField(f)) => assert_eq!(f, field),
                Err(e) => panic!("{field}: wrong error {e}"),
                Ok(_) => panic!("{field} = 0 was accepted"),
            }
        }
    }

    /// Chaos does not change outcomes: a stream served under injected
    /// crashes and payload corruption completes every request exactly
    /// as a fault-free one does (batch-level bit-identity is proven by
    /// the engine's chaos proptest; here the claim is the service level
    /// never degrades an outcome). Replay and retransmission traffic is
    /// visible only in the fault counters.
    #[test]
    fn chaos_stream_serves_everything_fault_free_does() {
        let run = |chaos: Option<FaultPlan>| {
            let graph = Arc::new(generators::grid(10, 10));
            let mut cfg = ServiceConfig::new(SystemKind::PregelPlus, ClusterSpec::galaxy(4))
                .with_workers(1)
                .with_quantum(16)
                .with_seed(0xD15EA5E)
                .with_checkpoint_every(3);
            cfg.training_workload = 64;
            cfg = cfg.with_shape(Task::mssp(1));
            if let Some(plan) = chaos {
                cfg = cfg.with_chaos(plan);
            }
            let svc = TaskService::start(graph, cfg).expect("service starts");
            let tickets: Vec<Ticket> = (0..8)
                .map(|i| {
                    svc.submit(TaskRequest::new(TenantId(i % 2), Task::mssp(2)))
                        .unwrap()
                })
                .collect();
            for t in &tickets {
                assert!(t.wait().outcome.is_served());
            }
            svc.shutdown()
        };
        let clean = run(None);
        let chaos = run(Some(
            FaultPlan::none()
                .with_crash(1, 0)
                .with_crash(3, 2)
                .with_corruption(5, 0, 2),
        ));
        assert_eq!(clean.served, 8);
        assert_eq!(chaos.served, 8);
        assert_eq!(chaos.failed, 0);
        assert!(chaos.faults.injected > 0, "chaos plan never fired");
        assert_eq!(clean.faults.injected, 0);
        assert!(chaos.faults.replayed_rounds > clean.faults.replayed_rounds);
        assert!(
            chaos.faults.corrupted_buckets > 0,
            "corruption events must surface in the report"
        );
        assert_eq!(
            chaos.faults.corrupted_buckets, chaos.faults.retransmitted_buckets,
            "every corrupted bucket is retransmitted exactly once"
        );
        assert!(chaos.faults.retransmitted_bytes.get() > 0);
        assert_eq!(clean.faults.corrupted_buckets, 0);
        assert_eq!(clean.faults.retransmitted_buckets, 0);
        assert_eq!(clean.faults.retransmitted_bytes.get(), 0);
    }
}
