//! Request and completion types for the online task service.
//!
//! A *request* is one unit task (§2.2's "a set of unit tasks of the
//! same type"): a tenant asks for a [`Task`]-shaped piece of work with
//! a small workload, optionally bounded by a deadline. The service
//! groups compatible requests into batches; the *completion* reports
//! how the request fared and where its time went.

use mtvc_core::Task;
use mtvc_metrics::SimTime;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Identifies the tenant a request belongs to. Tenants share the
/// cluster; the queue arbitrates between them with deficit round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Service-level-objective class of a request: how urgently the
/// scheduler should treat it relative to other traffic.
///
/// Classes drive the SLO-aware scheduler
/// ([`crate::SchedulerPolicy::SloAware`]): per-class DRR quanta weight
/// the workload share, earliest-deadline-first ordering favours
/// urgent heads within each DRR round, and the per-class sections of
/// [`crate::ServiceReport`] break latency and deadline outcomes out by
/// class. Under the baseline scheduler the class is carried and
/// reported but does not influence ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SloClass {
    /// User-facing traffic with tight deadlines (think an interactive
    /// query on a dashboard): smallest latency target, highest DRR
    /// weight.
    Interactive,
    /// Ordinary traffic with moderate latency expectations.
    Standard,
    /// Throughput-oriented background work; no meaningful latency
    /// target beyond eventual completion.
    Batch,
}

impl SloClass {
    /// Every class, in severity order — index matches
    /// [`SloClass::index`].
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];

    /// Dense index for per-class arrays (0 = Interactive, 1 = Standard,
    /// 2 = Batch).
    pub fn index(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// Short lowercase label for reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Unique id assigned to a request when it is submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// One unit-task request as submitted by a tenant.
#[derive(Debug, Clone)]
pub struct TaskRequest {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Task shape and workload for this request. The workload is the
    /// request's size in the task's own unit (walks for BPPR, sources
    /// for MSSP/BKHS) and is never split across batches.
    pub task: Task,
    /// Drop the request (outcome [`RequestOutcome::Deadline`]) if it
    /// has not been dispatched within this long of submission.
    pub deadline: Option<Duration>,
    /// SLO class the scheduler and the per-class report sections use.
    pub class: SloClass,
}

impl TaskRequest {
    /// A deadline-free [`SloClass::Standard`] request.
    pub fn new(tenant: TenantId, task: Task) -> TaskRequest {
        TaskRequest {
            tenant,
            task,
            deadline: None,
            class: SloClass::Standard,
        }
    }

    /// Attach a dispatch deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> TaskRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Set the SLO class.
    pub fn with_class(mut self, class: SloClass) -> TaskRequest {
        self.class = class;
        self
    }

    /// Workload units this request contributes to a batch.
    pub fn workload(&self) -> u64 {
        self.task.workload()
    }
}

/// A request with the bookkeeping the queue attaches at submission.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    /// The id the service assigned on submit.
    pub id: RequestId,
    /// The request as submitted.
    pub request: TaskRequest,
    /// When the request entered the queue.
    pub submitted: Instant,
    /// Dispatch attempts already consumed: how many times a batch
    /// carrying this request failed and the request was re-queued.
    pub attempts: u32,
}

impl QueuedRequest {
    /// Whether the dispatch deadline has passed at `now`.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        match self.request.deadline {
            Some(d) => now.duration_since(self.submitted) > d,
            None => false,
        }
    }

    /// Workload units this request contributes to a batch.
    pub fn workload(&self) -> u64 {
        self.request.workload()
    }

    /// Absolute instant the dispatch deadline expires (`None` for
    /// deadline-free requests). The EDF ordering key.
    pub(crate) fn deadline_at(&self) -> Option<Instant> {
        self.request.deadline.map(|d| self.submitted + d)
    }

    /// Remaining deadline slack at `now`: zero once expired, `None`
    /// without a deadline.
    pub(crate) fn slack(&self, now: Instant) -> Option<Duration> {
        self.deadline_at()
            .map(|at| at.saturating_duration_since(now))
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Executed in a batch that completed within the cutoff.
    Served {
        /// Simulated running time of the batch that carried the request.
        batch_time: SimTime,
    },
    /// Dispatch deadline passed — while the request sat in the queue,
    /// or after its carrying batch failed and no retry could land
    /// before the deadline.
    Deadline,
    /// The admission controller predicts this request can never fit on
    /// the cluster, even alone on flushed machines.
    Rejected,
    /// The carrying batch overloaded (> 6000 s cutoff) or overflowed
    /// memory past the degradation ladder, and the retry budget is
    /// exhausted (or the queue refused the retry).
    Failed {
        /// Human-readable failure class ("overload" / "overflow").
        reason: &'static str,
    },
}

impl RequestOutcome {
    /// Whether the request was actually executed to completion.
    pub fn is_served(&self) -> bool {
        matches!(self, RequestOutcome::Served { .. })
    }
}

/// Everything the service reports back for one finished request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The id returned at submission.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The request's SLO class.
    pub class: SloClass,
    /// Terminal outcome.
    pub outcome: RequestOutcome,
    /// Wall-clock time from submission until the request left the queue
    /// (dispatch, expiry, or rejection).
    pub queue_wait: Duration,
    /// Wall-clock time from submission until this completion was
    /// published.
    pub latency: Duration,
    /// Retries the request consumed before this terminal outcome
    /// (0 = settled on the first dispatch).
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expiry_is_relative_to_submission() {
        let q = QueuedRequest {
            id: RequestId(1),
            request: TaskRequest::new(TenantId(0), Task::mssp(2))
                .with_deadline(Duration::from_millis(5)),
            submitted: Instant::now(),
            attempts: 0,
        };
        assert!(!q.expired(q.submitted));
        assert!(q.expired(q.submitted + Duration::from_millis(6)));
    }

    #[test]
    fn no_deadline_never_expires() {
        let q = QueuedRequest {
            id: RequestId(2),
            request: TaskRequest::new(TenantId(0), Task::bppr(4)),
            submitted: Instant::now(),
            attempts: 0,
        };
        assert!(!q.expired(q.submitted + Duration::from_secs(3600)));
        assert_eq!(q.workload(), 4);
    }
}
