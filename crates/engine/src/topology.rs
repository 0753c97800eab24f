//! The immutable half of a [`Runner`](crate::Runner): everything
//! derived from the graph, the partition and the system profile alone.
//!
//! Building it walks every vertex (local-index maps, mirror detection,
//! adjacency byte counts) and, on the out-of-core path, encodes the
//! whole adjacency to a backing store — work proportional to the graph,
//! not to a batch. A job therefore builds one [`Topology`] and every
//! batch's runner borrows it ([`Runner::for_batch`](crate::Runner::for_batch));
//! [`Runner::with_partition`](crate::Runner::with_partition) is the
//! stand-alone form that builds one and uses it. A run's round buffers
//! outlive it in a per-thread slot tagged with its topology, so the
//! next batch of the job on that thread starts from them; dropping the
//! topology drops them. The job's [`WorkerPool`] lives here too: the
//! first round of any batch that fans out spawns it, every later one
//! reuses its threads, and dropping the topology joins them.

use crate::mirror::MirrorIndex;
use crate::paging::PagedLayout;
use crate::pool::WorkerPool;
use crate::profile::{ExecutionMode, SystemProfile};
use crate::router::LocalIndex;
use mtvc_graph::partition::Partition;
use mtvc_graph::Graph;
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;

/// A graph's partition together with the indexes the round loop reads
/// every round. Read-only once built, so batches — concurrent ones
/// included — share it freely: pagers made from the shared
/// [`PagedLayout`] only read its adjacency partitions. The one thing
/// batches take turns at is the worker pool.
#[derive(Debug)]
pub struct Topology {
    pub(crate) partition: Partition,
    /// Vertex ↔ (worker, local index) addressing, shared by the compute
    /// phase (state vectors, inbox runs) and the routing pipeline
    /// (shard histograms, grouped merge).
    pub(crate) locals: LocalIndex,
    pub(crate) mirrors: Option<MirrorIndex>,
    /// Adjacency bytes per worker (resident unless streamed).
    pub(crate) graph_bytes: Vec<u64>,
    /// The out-of-core layout: adjacency partitioned, encoded, and
    /// written to a backing store. Present iff the profile carries an
    /// [`OocConfig`](crate::profile::OocConfig); each run then streams
    /// partitions through budget-bounded per-worker caches and the
    /// demand assembly charges the bytes they *measure*.
    pub(crate) paged: Option<PagedLayout>,
    /// One thread per worker, spawned by the first round that fans out
    /// and held by one round at a time.
    pool: OnceLock<Mutex<WorkerPool>>,
    /// Process-unique tag of this topology: spare round buffers carry
    /// the id of the topology they were sized for.
    id: u64,
}

/// Source of [`Topology`] ids.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The round buffers the last run on this thread left behind, with
    /// the id of the topology they belong to.
    static SPARE: RefCell<Option<(u64, Box<dyn Any>)>> = const { RefCell::new(None) };
}

impl Topology {
    /// Index `partition` of `graph` for execution under `profile` (its
    /// execution mode decides mirroring, its out-of-core config paging).
    /// Panics if `profile` is out-of-core in broadcast mode.
    pub fn build(graph: &Graph, partition: Partition, profile: &SystemProfile) -> Topology {
        assert_eq!(partition.num_vertices(), graph.num_vertices());
        let mirrors = match profile.mode {
            ExecutionMode::Broadcast { mirror_threshold } => {
                Some(MirrorIndex::build(graph, &partition, mirror_threshold))
            }
            ExecutionMode::PointToPoint => None,
        };
        let locals = LocalIndex::build(&partition);
        let weighted = graph.is_weighted();
        let graph_bytes = locals
            .worker_vertices()
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&v| 16 + graph.degree(v) as u64 * if weighted { 8 } else { 4 })
                    .sum()
            })
            .collect();
        // Broadcast mode reads mirror adjacency during routing, which
        // the pager (serving neighbors from decoded chunks) cannot
        // supply, so out-of-core profiles are point-to-point.
        let paged = profile.out_of_core.map(|ooc| {
            assert!(
                mirrors.is_none(),
                "an out-of-core profile must be point-to-point"
            );
            PagedLayout::build(graph, locals.worker_vertices(), ooc.paging)
        });
        Topology {
            partition,
            locals,
            mirrors,
            graph_bytes,
            paged,
            pool: OnceLock::new(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The worker pool, spawned on first use, for one round's compute
    /// and route stages. `None` on a one-worker partition, and while
    /// another batch's round holds the pool: this round then runs
    /// inline rather than oversubscribe the cores.
    pub(crate) fn try_pool(&self) -> Option<MutexGuard<'_, WorkerPool>> {
        let workers = self.partition.num_workers();
        if workers < 2 {
            return None;
        }
        let pool = self
            .pool
            .get_or_init(|| Mutex::new(WorkerPool::new(workers)));
        pool.try_lock().ok()
    }

    /// The worker pool's threads, indexed by worker; `None` until a
    /// round has fanned out.
    pub fn pool_threads(&self) -> Option<Vec<ThreadId>> {
        let pool = self.pool.get()?;
        // A job panic poisons the lock but leaves the thread ids as
        // they were.
        let pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
        Some(pool.thread_ids().to_vec())
    }

    /// The buffers of type `T` that the last run on this thread parked,
    /// if that run was over this topology. Whatever else is parked is
    /// dropped, so a thread never keeps buffers its next run cannot use
    /// (a service alternating between shapes keeps none idle).
    pub(crate) fn take_spare<T: Any>(&self) -> Option<T> {
        let (id, spare) = SPARE.with_borrow_mut(Option::take)?;
        if id != self.id {
            return None;
        }
        spare.downcast().ok().map(|spare| *spare)
    }

    /// Park what a run over this topology leaves, for the next run on
    /// this thread, in place of whatever was parked.
    pub(crate) fn park_spare<T: Any>(&self, spare: T) {
        let replaced = SPARE.with_borrow_mut(|slot| slot.replace((self.id, Box::new(spare))));
        drop(replaced);
    }

    #[cfg(test)]
    pub(crate) fn holds_spare<T: Any>(&self) -> bool {
        SPARE.with_borrow(|slot| {
            slot.as_ref()
                .is_some_and(|(id, spare)| *id == self.id && spare.is::<T>())
        })
    }
}

/// Whether this thread has round buffers parked, for any topology.
#[cfg(test)]
pub(crate) fn thread_holds_spare() -> bool {
    SPARE.with_borrow(Option::is_some)
}

/// A job's buffers go with its topology: dropping it drops what this
/// thread parked for it.
impl Drop for Topology {
    fn drop(&mut self) {
        // `try_with`: a thread tearing down its locals has none to free.
        let parked = SPARE.try_with(|slot| slot.borrow_mut().take_if(|(id, _)| *id == self.id));
        drop(parked);
    }
}
