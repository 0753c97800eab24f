//! Bounded multi-tenant request queue with deficit round-robin service.
//!
//! Tenants submit unit-task requests into per-tenant FIFO lanes; the
//! batch former drains them one **DRR round** at a time. Each round
//! visits every backlogged tenant once, grants it `quantum` workload
//! units of *deficit*, and takes requests from its lane head while the
//! deficit covers them — so over time every backlogged tenant receives
//! the same workload share regardless of how fast it submits
//! (max-min fairness, one of the service-level goals multi-task
//! batching enables on a shared cluster).
//!
//! The queue is bounded: when `capacity` requests are waiting,
//! [`DrrQueue::try_submit`] fails with [`SubmitError::Full`] and
//! [`DrrQueue::submit_blocking`] parks the submitter — backpressure
//! instead of unbounded buffering.
//!
//! # SLO-aware ordering
//!
//! A [`QueuePolicy`] upgrades plain DRR in two orthogonal ways, both
//! preserving the per-round fairness invariant (every backlogged
//! tenant is visited once per round and paid its quantum):
//!
//! * **EDF-within-DRR** (`edf`): the visit order inside each round is
//!   earliest-absolute-deadline first (deadline-free lanes last, by
//!   age) instead of ring rotation, so urgent heads land in earlier
//!   batches and are drained before they expire. Because the sort only
//!   permutes the visits of one round — it never skips a lane — no
//!   backlogged tenant can be starved.
//! * **Class-weighted quanta** (`class_quanta`): the quantum paid to a
//!   lane is scaled by its head request's [`SloClass`] weight, giving
//!   interactive traffic a larger workload share per round (weighted
//!   DRR). Every weight is ≥ 1, so every class still makes progress.

use crate::admission::AdmissionError;
use crate::request::{QueuedRequest, SloClass, TenantId};
use mtvc_core::Task;
use mtvc_metrics::Gauge;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submission was turned away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitError {
    /// The queue holds `capacity` requests; try again after drains.
    Full,
    /// The service is shutting down and accepts no new work.
    Closed,
    /// The admission controller cannot handle the request — no memory
    /// model is registered for its task shape.
    Admission(AdmissionError),
    /// The request carries zero workload units.
    Empty,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue is at capacity"),
            SubmitError::Closed => write!(f, "service is shutting down"),
            SubmitError::Admission(e) => write!(f, "admission refused the request: {e}"),
            SubmitError::Empty => write!(f, "request has zero workload"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Admission(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdmissionError> for SubmitError {
    fn from(e: AdmissionError) -> SubmitError {
        SubmitError::Admission(e)
    }
}

/// A request whose dispatch deadline passed while it sat in the queue,
/// stamped with the exact time it spent there. Stamping happens at
/// removal — inside the queue lock — so the reported wait measures the
/// queueing itself, not however long the caller takes to publish the
/// completion.
#[derive(Debug)]
pub struct ExpiredRequest {
    /// The expired request.
    pub request: QueuedRequest,
    /// Submission-to-removal time: how long the request waited in the
    /// queue before the expiry sweep caught it.
    pub time_in_queue: Duration,
}

/// Result of one DRR drain round.
#[derive(Debug, Default)]
pub struct TakenBatch {
    /// Requests admitted into the batch, in DRR order. All share the
    /// batch's task shape; workloads sum to at most the `max_units`
    /// given to [`DrrQueue::take_batch`].
    pub taken: Vec<QueuedRequest>,
    /// Requests whose dispatch deadline passed while queued; removed
    /// from their lanes, to be completed as expired by the caller,
    /// each carrying its measured time-in-queue.
    pub expired: Vec<ExpiredRequest>,
}

/// Two tasks batch together iff they are the same task with the same
/// parameters, workload aside (same α for BPPR, same k for BKHS).
pub fn same_shape(a: &Task, b: &Task) -> bool {
    a.with_workload(1) == b.with_workload(1)
}

/// Scheduling policy of a [`DrrQueue`]: plain DRR by default, EDF
/// ordering and class-weighted quanta for the SLO-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuePolicy {
    /// Order each DRR round's lane visits earliest-deadline-first
    /// instead of ring rotation.
    pub edf: bool,
    /// Quantum multiplier per [`SloClass`] (indexed by
    /// [`SloClass::index`]); the lane's head request picks the weight.
    pub class_quanta: [u64; 3],
    /// Percentage of the queue's capacity reserved for
    /// [`SloClass::Interactive`] submissions: other classes see
    /// [`SubmitError::Full`] once the queue reaches
    /// `capacity · (100 − reserve) / 100`, so a saturating burst
    /// sheds background traffic before it sheds interactive traffic.
    /// 0 (the default) disables the reservation.
    pub interactive_reserve_pct: u8,
}

impl Default for QueuePolicy {
    /// Plain DRR: rotation order, every class weighted 1, no
    /// reserved capacity.
    fn default() -> QueuePolicy {
        QueuePolicy {
            edf: false,
            class_quanta: [1, 1, 1],
            interactive_reserve_pct: 0,
        }
    }
}

impl QueuePolicy {
    /// The SLO-aware default: EDF ordering, Interactive paid 4×,
    /// Standard 2×, Batch 1×, and 10 % of the queue held back for
    /// interactive submissions.
    pub fn slo_aware() -> QueuePolicy {
        QueuePolicy {
            edf: true,
            class_quanta: [4, 2, 1],
            interactive_reserve_pct: 10,
        }
    }

    /// Quantum multiplier for `class` (≥ 1 is enforced at use).
    pub fn weight(&self, class: SloClass) -> u64 {
        self.class_quanta[class.index()].max(1)
    }

    /// The submit-side capacity limit `class` sees on a queue of
    /// `capacity` requests. Interactive always sees the full
    /// capacity; at least one slot always remains usable by every
    /// class.
    pub fn class_capacity(&self, capacity: usize, class: SloClass) -> usize {
        if class == SloClass::Interactive {
            return capacity;
        }
        let reserve = capacity * usize::from(self.interactive_reserve_pct.min(100)) / 100;
        capacity.saturating_sub(reserve).max(1)
    }
}

struct Lane {
    requests: VecDeque<QueuedRequest>,
    deficit: u64,
    in_ring: bool,
}

struct QueueState {
    lanes: Vec<Lane>,
    index: HashMap<TenantId, usize>,
    /// Round-robin ring of lane indices with pending requests.
    ring: VecDeque<usize>,
    len: usize,
    closed: bool,
}

impl QueueState {
    fn activate(&mut self, lane: usize) {
        if !self.lanes[lane].in_ring {
            self.lanes[lane].in_ring = true;
            self.ring.push_back(lane);
        }
    }

    fn deactivate(&mut self, lane: usize) {
        // The caller removes the ring entry; here we only reset DRR
        // state so an idle tenant cannot bank deficit.
        self.lanes[lane].in_ring = false;
        self.lanes[lane].deficit = 0;
    }

    fn lane_of(&mut self, tenant: TenantId) -> usize {
        if let Some(&i) = self.index.get(&tenant) {
            return i;
        }
        let i = self.lanes.len();
        self.lanes.push(Lane {
            requests: VecDeque::new(),
            deficit: 0,
            in_ring: false,
        });
        self.index.insert(tenant, i);
        i
    }
}

/// The bounded multi-tenant queue. All methods are thread-safe; the
/// batch former is expected to be the only *consumer*.
pub struct DrrQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    quantum: u64,
    policy: QueuePolicy,
    depth: Gauge,
}

impl DrrQueue {
    /// A queue holding at most `capacity` requests, serving tenants
    /// `quantum` workload units per DRR round under the default
    /// (plain-DRR) policy.
    pub fn new(capacity: usize, quantum: u64) -> DrrQueue {
        assert!(capacity >= 1, "capacity must be positive");
        assert!(quantum >= 1, "quantum must be positive");
        DrrQueue {
            state: Mutex::new(QueueState {
                lanes: Vec::new(),
                index: HashMap::new(),
                ring: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            quantum,
            policy: QueuePolicy::default(),
            depth: Gauge::new(),
        }
    }

    /// Replace the scheduling policy (builder-style, before sharing).
    pub fn with_policy(mut self, policy: QueuePolicy) -> DrrQueue {
        self.policy = policy;
        self
    }

    /// The active scheduling policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// EDF sort key of a lane: `(has-no-deadline, instant)` so lanes
    /// with deadlines order strictly before deadline-free ones, which
    /// order by head age (oldest first). Stable across a round because
    /// lane heads only leave through this queue's own drains.
    fn edf_key(lane: &Lane) -> (bool, Instant) {
        match lane.requests.front() {
            Some(head) => match head.deadline_at() {
                Some(at) => (false, at),
                None => (true, head.submitted),
            },
            // Empty lanes (cannot appear in the ring) sort last.
            None => (true, Instant::now()),
        }
    }

    /// The lane the next drain would serve: ring front under plain
    /// DRR, the earliest-deadline head under EDF.
    fn front_lane(&self, st: &QueueState) -> Option<usize> {
        if !self.policy.edf {
            return st.ring.front().copied();
        }
        st.ring
            .iter()
            .copied()
            .min_by_key(|&l| Self::edf_key(&st.lanes[l]))
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live queue-depth gauge (with high-water mark).
    pub fn depth(&self) -> Gauge {
        self.depth.clone()
    }

    /// Stop accepting submissions. Queued requests remain drainable;
    /// blocked submitters and drainers wake up.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Enqueue without blocking. The capacity a submission sees is
    /// class-dependent under an interactive reservation (see
    /// [`QueuePolicy::class_capacity`]).
    pub fn try_submit(&self, req: QueuedRequest) -> Result<(), SubmitError> {
        let cap = self.policy.class_capacity(self.capacity, req.request.class);
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(SubmitError::Closed);
        }
        if st.len >= cap {
            return Err(SubmitError::Full);
        }
        self.push_locked(&mut st, req);
        drop(st);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Enqueue, parking the submitter while the queue is at (this
    /// class's) capacity — the backpressure path.
    pub fn submit_blocking(&self, req: QueuedRequest) -> Result<(), SubmitError> {
        let cap = self.policy.class_capacity(self.capacity, req.request.class);
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(SubmitError::Closed);
            }
            if st.len < cap {
                self.push_locked(&mut st, req);
                drop(st);
                self.not_empty.notify_all();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    fn push_locked(&self, st: &mut QueueState, req: QueuedRequest) {
        let lane = st.lane_of(req.request.tenant);
        st.lanes[lane].requests.push_back(req);
        st.len += 1;
        st.activate(lane);
        self.depth.set(st.len as u64);
    }

    /// Block until the queue has a request, then return the task shape
    /// the next DRR round would serve (the ring-head tenant's oldest
    /// request). Returns `None` once the queue is closed *and* drained.
    pub fn next_shape_blocking(&self) -> Option<Task> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(lane) = self.front_lane(&st) {
                if let Some(head) = st.lanes[lane].requests.front() {
                    return Some(head.request.task);
                }
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Workload of the front-lane head request if it matches `shape`.
    pub fn head_workload(&self, shape: &Task) -> Option<u64> {
        let st = self.state.lock().unwrap();
        let lane = self.front_lane(&st)?;
        let head = st.lanes[lane].requests.front()?;
        same_shape(&head.request.task, shape).then(|| head.workload())
    }

    /// Remaining deadline slack of the front-lane head at `now`, if it
    /// matches `shape` and carries a deadline. The SLO scheduler sizes
    /// deadline-constrained batches against this.
    pub fn head_slack(&self, shape: &Task, now: Instant) -> Option<Duration> {
        let st = self.state.lock().unwrap();
        let lane = self.front_lane(&st)?;
        let head = st.lanes[lane].requests.front()?;
        if !same_shape(&head.request.task, shape) {
            return None;
        }
        head.slack(now)
    }

    /// Remove and return the front-lane head request if it matches
    /// `shape` — the path the former uses to reject a request that can
    /// never be admitted.
    pub fn pop_head(&self, shape: &Task) -> Option<QueuedRequest> {
        let mut st = self.state.lock().unwrap();
        let lane = self.front_lane(&st)?;
        let matches = st.lanes[lane]
            .requests
            .front()
            .is_some_and(|h| same_shape(&h.request.task, shape));
        if !matches {
            return None;
        }
        let req = st.lanes[lane].requests.pop_front();
        st.len -= 1;
        self.depth.set(st.len as u64);
        if st.lanes[lane].requests.is_empty() {
            // Under EDF the popped lane need not be the ring front.
            st.ring.retain(|&l| l != lane);
            st.deactivate(lane);
        }
        drop(st);
        self.not_full.notify_all();
        req
    }

    /// Run one DRR round: visit every backlogged tenant once, pay each
    /// a `quantum` of deficit when its lane head matches `shape` (the
    /// quantum scaled by the head's class weight under an SLO policy),
    /// and take requests while the deficit and the `max_units` batch
    /// budget cover them. Requests past their deadline at `now` are
    /// removed and returned separately without consuming budget or
    /// deficit. Under an EDF policy the round's visit order is
    /// earliest-deadline first instead of ring rotation; every
    /// backlogged lane is still visited exactly once.
    pub fn take_batch(&self, shape: &Task, max_units: u64, now: Instant) -> TakenBatch {
        let mut out = TakenBatch::default();
        let mut budget = max_units;
        let mut removed = 0usize;
        let mut st = self.state.lock().unwrap();
        if self.policy.edf {
            // Re-order the ring for this round: urgent heads first,
            // stably, so ties keep their rotation order. Lanes are not
            // added or removed — only permuted — so the one-visit-per-
            // round fairness invariant is untouched.
            let mut order: Vec<usize> = st.ring.iter().copied().collect();
            order.sort_by_key(|&l| Self::edf_key(&st.lanes[l]));
            st.ring.clear();
            st.ring.extend(order);
        }
        let visits = st.ring.len();
        'round: for _ in 0..visits {
            let Some(&lane) = st.ring.front() else { break };
            let l = &mut st.lanes[lane];
            // Expired requests leave the lane no matter their shape.
            while l.requests.front().is_some_and(|h| h.expired(now)) {
                let req = l.requests.pop_front().unwrap();
                out.expired.push(ExpiredRequest {
                    time_in_queue: now.duration_since(req.submitted),
                    request: req,
                });
                removed += 1;
            }
            let head_matches = l
                .requests
                .front()
                .is_some_and(|h| same_shape(&h.request.task, shape));
            if head_matches {
                let weight = self
                    .policy
                    .weight(l.requests.front().unwrap().request.class);
                l.deficit = l
                    .deficit
                    .saturating_add(self.quantum.saturating_mul(weight));
                while let Some(head) = l.requests.front() {
                    if head.expired(now) {
                        let req = l.requests.pop_front().unwrap();
                        out.expired.push(ExpiredRequest {
                            time_in_queue: now.duration_since(req.submitted),
                            request: req,
                        });
                        removed += 1;
                        continue;
                    }
                    if !same_shape(&head.request.task, shape) {
                        break;
                    }
                    let w = head.workload();
                    if w > l.deficit {
                        break;
                    }
                    if w > budget {
                        // Batch budget exhausted: end the round, keep
                        // the accumulated deficit for the next one.
                        break 'round;
                    }
                    l.deficit -= w;
                    budget -= w;
                    out.taken.push(l.requests.pop_front().unwrap());
                    removed += 1;
                }
            }
            // Rotate: drained lanes leave the ring, others go to the back.
            st.ring.pop_front();
            if st.lanes[lane].requests.is_empty() {
                st.deactivate(lane);
            } else {
                st.ring.push_back(lane);
            }
        }
        st.len -= removed;
        self.depth.set(st.len as u64);
        drop(st);
        if removed > 0 {
            self.not_full.notify_all();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, TaskRequest};
    use std::time::Duration;

    fn req(id: u64, tenant: u32, task: Task) -> QueuedRequest {
        QueuedRequest {
            id: RequestId(id),
            request: TaskRequest::new(TenantId(tenant), task),
            submitted: Instant::now(),
            attempts: 0,
        }
    }

    #[test]
    fn fifo_within_a_single_tenant() {
        let q = DrrQueue::new(16, 100);
        for i in 0..5 {
            q.try_submit(req(i, 0, Task::mssp(1))).unwrap();
        }
        let b = q.take_batch(&Task::mssp(1), 100, Instant::now());
        let ids: Vec<u64> = b.taken.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn backpressure_at_capacity() {
        let q = DrrQueue::new(2, 10);
        q.try_submit(req(0, 0, Task::mssp(1))).unwrap();
        q.try_submit(req(1, 0, Task::mssp(1))).unwrap();
        assert_eq!(
            q.try_submit(req(2, 0, Task::mssp(1))),
            Err(SubmitError::Full)
        );
        q.take_batch(&Task::mssp(1), 10, Instant::now());
        q.try_submit(req(3, 0, Task::mssp(1))).unwrap();
    }

    #[test]
    fn closed_queue_rejects_submissions_but_drains() {
        let q = DrrQueue::new(4, 10);
        q.try_submit(req(0, 0, Task::mssp(1))).unwrap();
        q.close();
        assert_eq!(
            q.try_submit(req(1, 0, Task::mssp(1))),
            Err(SubmitError::Closed)
        );
        assert_eq!(q.next_shape_blocking(), Some(Task::mssp(1)));
        let b = q.take_batch(&Task::mssp(1), 10, Instant::now());
        assert_eq!(b.taken.len(), 1);
        assert_eq!(q.next_shape_blocking(), None);
    }

    #[test]
    fn drr_round_alternates_tenants() {
        let q = DrrQueue::new(32, 2);
        // Tenant 0 floods; tenant 1 trickles. Quantum 2, unit requests.
        for i in 0..8 {
            q.try_submit(req(i, 0, Task::mssp(1))).unwrap();
        }
        for i in 8..12 {
            q.try_submit(req(i, 1, Task::mssp(1))).unwrap();
        }
        let b = q.take_batch(&Task::mssp(1), 8, Instant::now());
        let per_tenant = |t: u32| {
            b.taken
                .iter()
                .filter(|r| r.request.tenant == TenantId(t))
                .count()
        };
        // One round: each backlogged tenant gets exactly its quantum.
        assert_eq!(per_tenant(0), 2);
        assert_eq!(per_tenant(1), 2);
    }

    #[test]
    fn mixed_shapes_batch_separately() {
        let q = DrrQueue::new(16, 10);
        q.try_submit(req(0, 0, Task::mssp(2))).unwrap();
        q.try_submit(req(1, 1, Task::bppr(3))).unwrap();
        let shape = q.next_shape_blocking().unwrap();
        assert!(same_shape(&shape, &Task::mssp(1)));
        let b = q.take_batch(&shape, 100, Instant::now());
        assert_eq!(b.taken.len(), 1);
        assert_eq!(b.taken[0].id.0, 0);
        let shape = q.next_shape_blocking().unwrap();
        assert!(same_shape(&shape, &Task::bppr(1)));
        let b = q.take_batch(&shape, 100, Instant::now());
        assert_eq!(b.taken.len(), 1);
        assert_eq!(b.taken[0].id.0, 1);
    }

    #[test]
    fn expired_requests_are_separated() {
        let q = DrrQueue::new(16, 10);
        let mut stale = req(0, 0, Task::mssp(1));
        stale.request.deadline = Some(Duration::from_millis(1));
        stale.submitted = Instant::now() - Duration::from_millis(50);
        q.try_submit(stale).unwrap();
        q.try_submit(req(1, 0, Task::mssp(1))).unwrap();
        let b = q.take_batch(&Task::mssp(1), 10, Instant::now());
        assert_eq!(b.expired.len(), 1);
        assert_eq!(b.expired[0].request.id.0, 0);
        assert!(b.expired[0].time_in_queue >= Duration::from_millis(50));
        assert_eq!(b.taken.len(), 1);
        assert_eq!(b.taken[0].id.0, 1);
    }

    #[test]
    fn budget_caps_the_round() {
        let q = DrrQueue::new(16, 100);
        for i in 0..6 {
            q.try_submit(req(i, 0, Task::mssp(3))).unwrap();
        }
        let b = q.take_batch(&Task::mssp(1), 7, Instant::now());
        // 3 + 3 fit; the third request of 3 would exceed 7.
        assert_eq!(b.taken.len(), 2);
        assert_eq!(q.len(), 4);
        assert_eq!(q.head_workload(&Task::mssp(1)), Some(3));
    }

    #[test]
    fn pop_head_removes_exactly_one() {
        let q = DrrQueue::new(16, 10);
        q.try_submit(req(7, 0, Task::bppr(500))).unwrap();
        assert!(q.pop_head(&Task::mssp(1)).is_none());
        let r = q.pop_head(&Task::bppr(1)).unwrap();
        assert_eq!(r.id.0, 7);
        assert!(q.is_empty());
    }

    #[test]
    fn depth_gauge_tracks_high_water() {
        let q = DrrQueue::new(16, 10);
        for i in 0..5 {
            q.try_submit(req(i, i as u32 % 2, Task::mssp(1))).unwrap();
        }
        q.take_batch(&Task::mssp(1), 100, Instant::now());
        assert_eq!(q.depth().get(), 0);
        assert_eq!(q.depth().high_water(), 5);
    }
}
