//! `mtvc-serve` — an online multi-tenant task service with
//! tuner-driven adaptive batching.
//!
//! The offline pipeline in this workspace answers the paper's
//! questions: given a *fixed* multi-task workload, which batch scheme
//! finishes fastest without straining the cluster? This crate turns
//! that machinery into a *service*: unit-task requests arrive
//! continuously from multiple tenants, and the §5 memory model decides
//! — online, before every batch — how much of the backlog the cluster
//! can safely absorb.
//!
//! # Architecture
//!
//! ```text
//! tenants ──submit──▶ DrrQueue ──DRR round──▶ batch former ──▶ worker pool
//!                      (bounded,              (admission:       (crossbeam
//!                       backpressure)          Eq. 6 online)     channel)
//!                                                  ▲                │
//!                                                  │   observe / complete
//!                                                  └────────────────┘
//!                                         completions, histograms, gauges
//! ```
//!
//! * [`DrrQueue`] — bounded multi-tenant queue; deficit round-robin
//!   gives every backlogged tenant the same workload share.
//! * [`AdmissionController`] — solves Eq. 6 against *live* state:
//!   measured residual memory plus the predicted peaks of in-flight
//!   batches, under the `p·M` overload threshold.
//! * [`OnlineMemoryModel`](mtvc_tune::OnlineMemoryModel) — the fitted
//!   `M*`/`M_r*` curves, refreshed from observed per-batch peaks.
//! * [`TaskService`] — ties it together: training at startup, a batch
//!   former thread, a worker pool, latency histograms, graceful
//!   drain-on-shutdown. A failed batch's requests retry under a fixed
//!   budget (see [`service`]).
//!
//! # Example
//!
//! ```
//! use mtvc_serve::{ServiceConfig, TaskRequest, TaskService, TenantId};
//! use mtvc_core::Task;
//! use mtvc_cluster::ClusterSpec;
//! use mtvc_systems::SystemKind;
//! use mtvc_graph::generators;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(generators::power_law(200, 900, 2.4, 7));
//! let cfg = ServiceConfig::new(SystemKind::PregelPlus, ClusterSpec::galaxy(4))
//!     .with_shape(Task::mssp(1));
//! let svc = TaskService::start(graph, cfg).unwrap();
//! let ticket = svc.submit(TaskRequest::new(TenantId(0), Task::mssp(2))).unwrap();
//! assert!(ticket.wait().outcome.is_served());
//! let report = svc.shutdown();
//! assert_eq!(report.served, 1);
//! ```

#![deny(missing_docs)]

pub mod admission;
pub mod controller;
pub mod queue;
pub mod request;
pub mod service;

pub use admission::{AdmissionController, AdmissionError, BatchId};
pub use controller::{ControllerStats, Decision, JointController, SchedulerPolicy};
pub use queue::{DrrQueue, ExpiredRequest, QueuePolicy, SubmitError, TakenBatch};
pub use request::{
    Completion, QueuedRequest, RequestId, RequestOutcome, SloClass, TaskRequest, TenantId,
};
pub use service::{ClassReport, ServiceConfig, ServiceReport, StartError, TaskService, Ticket};
