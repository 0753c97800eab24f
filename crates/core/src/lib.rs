//! Multi-task processing layer — the paper's primary subject.
//!
//! A *multi-processing job* (§2.3) is a bundle of independent unit
//! tasks (PPR queries, SSSP sources, k-hop sources) executed on a
//! VC-system. This crate provides:
//!
//! * [`task::Task`] — the three benchmark multi-task workloads with
//!   their workload semantics (walks per node for BPPR; source counts
//!   for MSSP/BKHS);
//! * [`schedule::BatchSchedule`] — how a workload is divided into
//!   sequential batches (k-batch, Full-Parallelism, unequal, explicit) —
//!   the *round–congestion tradeoff* knob (§1, Figure 1);
//! * [`executor`] — the batch executor: runs batches sequentially on
//!   the engine, tracks **residual memory** (§4.5/§4.7) across batches,
//!   aggregates statistics and the monetary cost (§4.6);
//! * [`sweep`] — batch-count sweeps producing the figures' time-vs-
//!   batches series;
//! * [`unequal`] — the Δ = W₁ − W₂ two-batch experiments (Figure 9);
//! * [`whole_graph`] — the replicated-graph access mode (§4.9,
//!   Figure 10);
//! * [`ppa`] — §2.4's Practical-Pregel-Algorithm condition checker,
//!   making the "multi-processing cannot be a PPA" argument testable.

pub mod executor;
pub mod ppa;
pub mod schedule;
pub mod sweep;
pub mod task;
pub mod unequal;
pub mod whole_graph;

pub use executor::{
    run_job, BatchExecution, BatchOutcome, BatchRunner, JobResult, JobSpec, Kernel, LadderStep,
    RecoveredBatch, MAX_BISECT_DEPTH,
};
pub use ppa::{check_ppa, PpaCriteria, PpaReport};
pub use schedule::{BatchSchedule, InvalidSchedule};
pub use sweep::{batch_sweep, doubling_batches, SweepPoint};
pub use task::{select_sources, Task};
