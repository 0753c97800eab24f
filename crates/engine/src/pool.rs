//! A persistent pool of worker threads shared by the compute and
//! routing phases of the round pipeline.
//!
//! The BSP loop used to spawn a fresh set of scoped OS threads every
//! round, which put thread creation and teardown on the critical path
//! of every round of every run. [`WorkerPool`] spawns one long-lived
//! thread per logical worker, once per job: the job's
//! [`Topology`](crate::Topology) holds it, spawned by the first round
//! that fans out and joined when the topology drops. Every round that
//! fans out, of every batch, dispatches its compute stage and its
//! routing merge onto the *same* threads — two hand-offs per round;
//! worker `w`'s vertices, outbox shards, and inbox merges always
//! execute on pool thread `w`,
//! preserving cache locality of the per-worker state. Rounds too small
//! to pay for the hand-off run inline instead
//! ([`Runner`](crate::Runner) decides, round by round).
//!
//! Dispatch follows the scoped-thread pattern: [`WorkerPool::scope`]
//! hands out a [`PoolScope`] through which borrowed (non-`'static`)
//! closures can be submitted, and does not return until every submitted
//! job has finished, so borrows of the caller's stack are sound. A
//! panic inside a job is caught on the pool thread and re-raised on the
//! dispatching thread once the scope has drained.

use crossbeam::channel::{unbounded, Sender};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle, ThreadId};

/// Type-erased unit of work executed by a pool thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of long-lived worker threads, one per logical
/// worker of the partition it serves.
pub struct WorkerPool {
    /// One dispatch lane per worker: jobs for worker `w` always run on
    /// thread `w`, keeping per-worker data hot in that thread's cache.
    lanes: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    ids: Vec<ThreadId>,
}

impl WorkerPool {
    /// Spawn `workers` threads. They idle on their lanes until work is
    /// dispatched and exit when the pool is dropped.
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "worker pool needs at least one thread");
        let mut lanes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded::<Job>();
            lanes.push(tx);
            let handle = thread::Builder::new()
                .name(format!("mtvc-worker-{w}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn pool worker thread");
            handles.push(handle);
        }
        let ids = handles.iter().map(|h| h.thread().id()).collect();
        WorkerPool {
            lanes,
            handles,
            ids,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// OS thread identities, indexed by worker. Stable for the life of
    /// the pool — no thread is ever respawned between rounds.
    pub fn thread_ids(&self) -> &[ThreadId] {
        &self.ids
    }

    /// Run `f` with a [`PoolScope`] that can dispatch borrowed closures
    /// onto the pool. Blocks until every dispatched job has completed
    /// (even if `f` unwinds), then re-raises the first job panic, if
    /// any.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = {
            // Wait on drop so borrows stay live past every job even if
            // `f` itself unwinds after dispatching work.
            let _guard = DrainGuard(&state);
            f(&scope)
        };
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the lanes disconnects the receivers; each thread
        // drains its queue and exits.
        self.lanes.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.lanes.len())
            .finish()
    }
}

/// Dispatch handle for one [`WorkerPool::scope`] invocation. `'env` is
/// the lifetime of borrows the dispatched closures may capture; the
/// scope guarantees every job finishes before those borrows expire.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, as in `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Dispatch `job` onto worker thread `worker`. Jobs for the same
    /// worker run in submission order; jobs for different workers run
    /// concurrently.
    pub fn run_on<F>(&self, worker: usize, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        // Bounds-check before `add_one`: a panic after the increment
        // would leave the scope waiting for a job that never runs.
        assert!(
            worker < self.pool.lanes.len(),
            "worker index {worker} out of range for a {}-lane pool",
            self.pool.lanes.len()
        );
        self.state.add_one();
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                state.record_panic(payload);
            }
            state.finish_one();
        });
        // SAFETY: the job only borrows data outliving 'env, and the
        // enclosing `WorkerPool::scope` call blocks (via `DrainGuard`)
        // until `finish_one` has run for every dispatched job, so the
        // closure never outlives its borrows despite the erased
        // lifetime.
        let wrapped: Job = unsafe { std::mem::transmute(wrapped) };
        if self.pool.lanes[worker].send(wrapped).is_err() {
            panic!("worker pool thread exited while scope was active");
        }
    }
}

/// Run `f(i, item)` for every item, `i` counting from 0: with a pool,
/// item `i` runs on lane `i % pool.workers()` — the identity for a
/// partition-sized pool, and still correct for a smaller one — and the
/// call returns once every item has finished, re-raising a panic as
/// [`WorkerPool::scope`] does; without one, inline in index order. The
/// one place the round pipeline chooses between the two.
pub(crate) fn dispatch<T, F>(pool: Option<&WorkerPool>, items: impl IntoIterator<Item = T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let f = &f;
    match pool {
        Some(pool) => pool.scope(|s| {
            let lanes = pool.workers();
            for (i, item) in items.into_iter().enumerate() {
                s.run_on(i % lanes, move || f(i, item));
            }
        }),
        None => items
            .into_iter()
            .enumerate()
            .for_each(|(i, item)| f(i, item)),
    }
}

/// Completion tracking for one scope: a pending-job count plus the
/// first panic payload observed.
struct ScopeState {
    pending: Mutex<usize>,
    drained: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> ScopeState {
        ScopeState {
            pending: Mutex::new(0),
            drained: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn add_one(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn finish_one(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.drained.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.drained.wait(pending).unwrap();
        }
    }
}

/// Blocks on scope drain when dropped, including during unwinding.
struct DrainGuard<'a>(&'a ScopeState);

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scope_runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let mut slots = vec![0u64; 4];
        pool.scope(|s| {
            for (w, slot) in slots.iter_mut().enumerate() {
                s.run_on(w, move || *slot = (w as u64 + 1) * 10);
            }
        });
        assert_eq!(slots, vec![10, 20, 30, 40]);
    }

    #[test]
    fn jobs_land_on_their_lane_thread_and_ids_are_stable() {
        let pool = WorkerPool::new(3);
        let expected: Vec<ThreadId> = pool.thread_ids().to_vec();
        for _round in 0..20 {
            let mut seen = vec![None; 3];
            pool.scope(|s| {
                for (w, slot) in seen.iter_mut().enumerate() {
                    s.run_on(w, move || *slot = Some(thread::current().id()));
                }
            });
            let seen: Vec<ThreadId> = seen.into_iter().map(|t| t.unwrap()).collect();
            assert_eq!(seen, expected, "lane threads must never be respawned");
        }
    }

    #[test]
    fn same_lane_jobs_run_in_submission_order() {
        let pool = WorkerPool::new(1);
        let log = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..16 {
                let log = &log;
                s.run_on(0, move || log.lock().unwrap().push(i));
            }
        });
        assert_eq!(*log.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn scopes_reuse_threads_across_invocations() {
        let pool = WorkerPool::new(2);
        let mut all: HashSet<ThreadId> = HashSet::new();
        for _ in 0..10 {
            let mut ids = vec![None; 2];
            pool.scope(|s| {
                for (w, slot) in ids.iter_mut().enumerate() {
                    s.run_on(w, move || *slot = Some(thread::current().id()));
                }
            });
            all.extend(ids.into_iter().flatten());
        }
        assert_eq!(all.len(), 2, "exactly two threads across all rounds");
    }

    #[test]
    fn counter_visible_after_scope() {
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for w in 0..4 {
                let counter = &counter;
                s.run_on(w, move || {
                    for _ in 0..1000 {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn job_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.run_on(0, || panic!("boom"));
                s.run_on(1, || {});
            });
        }));
        assert!(result.is_err());
        // The pool survives a job panic: lanes keep working.
        let mut ok = false;
        pool.scope(|s| s.run_on(1, || ok = true));
        assert!(ok);
    }

    #[test]
    fn dispatch_inline_visits_items_in_index_order() {
        let log = Mutex::new(Vec::new());
        dispatch(None, ["a", "b", "c", "d"], |i, item| {
            log.lock().unwrap().push((i, item, thread::current().id()));
        });
        let here = thread::current().id();
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                (0, "a", here),
                (1, "b", here),
                (2, "c", here),
                (3, "d", here)
            ]
        );
    }

    #[test]
    fn dispatch_pooled_runs_item_i_on_lane_i_mod_workers() {
        let pool = WorkerPool::new(3);
        // More items than lanes: lanes wrap around.
        let mut seen: Vec<Option<(usize, ThreadId)>> = vec![None; 8];
        dispatch(Some(&pool), seen.iter_mut(), |i, slot| {
            *slot = Some((i, thread::current().id()));
        });
        for (i, slot) in seen.into_iter().enumerate() {
            assert_eq!(slot, Some((i, pool.thread_ids()[i % 3])));
        }
    }

    #[test]
    fn dispatch_propagates_an_item_panic_like_scope() {
        let pool = WorkerPool::new(2);
        for pool in [Some(&pool), None] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                dispatch(pool, 0..4, |i, _| assert_ne!(i, 2, "boom"));
            }));
            assert!(result.is_err());
        }
        // As with `scope`, the lanes survive.
        let mut ok = [false; 2];
        dispatch(Some(&pool), ok.iter_mut(), |_, slot| *slot = true);
        assert_eq!(ok, [true; 2]);
    }
}
