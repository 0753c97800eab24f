//! The partition pager: real out-of-core adjacency movement for
//! over-budget runs.
//!
//! When a profile's [`OocConfig`](crate::profile::OocConfig) carries a
//! [`PagingConfig`], the runner stops *estimating* disk traffic and
//! starts *measuring* it: at partition time the graph's adjacency is
//! sliced into contiguous-CSR chunks and written to a [`MemStore`]
//! ([`PagedLayout::build`]), and each worker streams partitions through
//! a budget-bounded [`WorkerPager`] cache every round. Compute reads
//! neighbors from the decoded chunks (via
//! [`PagedNeighbors`](crate::program::PagedNeighbors)), so the paging
//! path is the *hot path*, not an accounting shadow — a codec or cache
//! bug breaks results.
//!
//! Every round streams every partition in local-index order — GraphD's
//! semi-streaming full edge pass (§2.2) — and a load that would
//! overflow the budget first evicts the least recently used resident
//! partition. Vertices run in ascending local-index order, exactly as
//! on a resident worker, so a paged run is bit-identical to a
//! fully-resident run by construction; the pager only changes which
//! bytes move.
//!
//! **Determinism / replay**: eviction decisions are pure functions of
//! the cache's recency order. Checkpoints capture a [`PagerSnapshot`]
//! (resident partition ids in recency order — metadata, not decoded
//! bytes); rollback restores that exact cache state, so replayed rounds
//! evolve the cache identically to the first execution and every
//! post-replay round sees identical load counters.

use crate::profile::PagingConfig;
use mtvc_graph::ooc::{DecodedChunk, MemStore, PartitionedAdjacency};
use mtvc_graph::{Graph, VertexId};
use std::sync::Arc;

/// The paged-adjacency layout: the partitioned on-store adjacency plus
/// the paging configuration. Part of a [`Topology`](crate::Topology),
/// so it is encoded once per job and shared by every batch's run — the
/// runs only read it.
pub struct PagedLayout {
    adjacency: Arc<PartitionedAdjacency>,
    config: PagingConfig,
}

impl std::fmt::Debug for PagedLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedLayout")
            .field("adjacency", &self.adjacency)
            .field("config", &self.config)
            .finish()
    }
}

impl PagedLayout {
    /// Partition `graph`'s adjacency along `locals` (each worker's
    /// vertex list in local-index order), encode every partition, and
    /// write them to a fresh [`MemStore`]. After this the store holds
    /// the copy the pagers read; the resident [`Graph`] is no longer
    /// consulted for neighbors on the paged path. The benchmark's
    /// decode probe calls this and [`Self::adjacency`].
    pub fn build(graph: &Graph, locals: &[Vec<VertexId>], config: PagingConfig) -> PagedLayout {
        let adjacency = Arc::new(PartitionedAdjacency::build(
            graph,
            locals,
            config.partition_bytes.get(),
            Arc::new(MemStore::new()),
        ));
        PagedLayout { adjacency, config }
    }

    pub fn adjacency(&self) -> &Arc<PartitionedAdjacency> {
        &self.adjacency
    }

    /// Fresh per-worker pagers for one run (cold caches).
    pub fn make_pagers(&self) -> Vec<WorkerPager> {
        (0..self.adjacency.workers())
            .map(|w| WorkerPager::new(self.adjacency.clone(), w, self.config))
            .collect()
    }
}

/// Measured paging activity of one worker over one round, harvested by
/// the runner via [`WorkerPager::take_round`] and fed to the cost
/// model's disk terms and the round's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerRound {
    /// Encoded adjacency bytes read from the store this round.
    pub loaded_bytes: u64,
    /// Adjacency partitions loaded.
    pub partition_loads: u64,
    /// Peak decoded adjacency bytes resident in the cache this round —
    /// what the memory ledger charges instead of the
    /// `graph_bytes × graph_mem_factor` estimate.
    pub peak_resident_bytes: u64,
}

/// Resident-set snapshot of one worker's pager: partition ids in
/// recency order (least → most recent). Captured into checkpoints so
/// rollback restores the exact cache state; cheap metadata, never
/// decoded bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PagerSnapshot {
    resident: Vec<u32>,
}

/// One worker's bounded partition cache over the shared
/// [`PartitionedAdjacency`]. Loads decode real store bytes; eviction
/// recycles decode buffers; every byte moved lands in [`PagerRound`].
pub struct WorkerPager {
    adj: Arc<PartitionedAdjacency>,
    worker: usize,
    budget: u64,
    resident: Vec<Option<DecodedChunk>>,
    /// Partition ids, least recently used first.
    recency: Vec<u32>,
    resident_bytes: u64,
    free_chunks: Vec<DecodedChunk>,
    raw: Vec<u8>,
    round: PagerRound,
}

impl std::fmt::Debug for WorkerPager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPager")
            .field("worker", &self.worker)
            .field("partitions", &self.resident.len())
            .field("resident_bytes", &self.resident_bytes)
            .finish()
    }
}

impl WorkerPager {
    fn new(adj: Arc<PartitionedAdjacency>, worker: usize, config: PagingConfig) -> WorkerPager {
        let nparts = adj.partitions(worker).len();
        WorkerPager {
            adj,
            worker,
            budget: config.budget.get(),
            resident: (0..nparts).map(|_| None).collect(),
            recency: Vec::with_capacity(nparts),
            resident_bytes: 0,
            free_chunks: Vec::new(),
            raw: Vec::new(),
            round: PagerRound::default(),
        }
    }

    /// Adjacency partitions of this worker.
    pub fn partitions(&self) -> usize {
        self.resident.len()
    }

    /// Local-index range `[start, end)` of partition `p`.
    pub fn partition_range(&self, p: usize) -> (u32, u32) {
        let m = self.adj.partitions(self.worker)[p];
        (m.li_start, m.li_end)
    }

    /// Make partition `p` resident (loading and decoding it from the
    /// store if it is not), evicting other partitions as needed to
    /// respect the budget. `p` itself is pinned and never evicted by
    /// its own load; a single partition larger than the whole budget
    /// is allowed to be the sole resident.
    pub fn ensure_resident(&mut self, p: usize) {
        if self.resident[p].is_some() {
            self.touch(p);
            return;
        }
        let meta = self.adj.partitions(self.worker)[p];
        // Evict-before-load: the incoming decoded size is known from
        // the partition meta, so the cache never transiently exceeds
        // its budget.
        while self.resident_bytes + meta.decoded_bytes > self.budget {
            match self.pick_victim(p) {
                Some(victim) => self.evict(victim),
                None => break,
            }
        }
        let mut chunk = self.free_chunks.pop().unwrap_or_default();
        let read = self
            .adj
            .load_into(self.worker, p, &mut self.raw, &mut chunk);
        debug_assert_eq!(chunk.resident_bytes(), meta.decoded_bytes);
        self.resident_bytes += chunk.resident_bytes();
        self.resident[p] = Some(chunk);
        self.recency.push(p as u32);
        self.round.loaded_bytes += read;
        self.round.partition_loads += 1;
        self.round.peak_resident_bytes = self.round.peak_resident_bytes.max(self.resident_bytes);
    }

    /// The decoded chunk of partition `p`; must be resident.
    pub fn chunk(&self, p: usize) -> &DecodedChunk {
        self.resident[p].as_ref().expect("partition not resident")
    }

    fn touch(&mut self, p: usize) {
        if let Some(pos) = self.recency.iter().position(|&q| q == p as u32) {
            let id = self.recency.remove(pos);
            self.recency.push(id);
        }
    }

    /// Eviction victim: the least recently used resident other than
    /// the pinned `keep`. Pure in recency order, which is what makes
    /// replay evolve the cache identically.
    fn pick_victim(&self, keep: usize) -> Option<usize> {
        self.recency
            .iter()
            .map(|&q| q as usize)
            .find(|&q| q != keep)
    }

    fn evict(&mut self, p: usize) {
        if let Some(chunk) = self.resident[p].take() {
            self.resident_bytes -= chunk.resident_bytes();
            self.free_chunks.push(chunk);
            if let Some(pos) = self.recency.iter().position(|&q| q == p as u32) {
                self.recency.remove(pos);
            }
        }
    }

    /// Decoded adjacency bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Harvest and reset this round's measured counters. The next
    /// round's peak starts from the bytes still resident.
    pub fn take_round(&mut self) -> PagerRound {
        let mut out = std::mem::take(&mut self.round);
        out.peak_resident_bytes = out.peak_resident_bytes.max(self.resident_bytes);
        self.round.peak_resident_bytes = self.resident_bytes;
        out
    }

    /// Capture the resident set (recency order) for a checkpoint.
    pub fn snapshot(&self) -> PagerSnapshot {
        PagerSnapshot {
            resident: self.recency.clone(),
        }
    }

    /// Restore the cache to a checkpoint's resident set: drop
    /// partitions the snapshot lacks, reload ones it has (reloads are
    /// rollback repair traffic, recorded nowhere), and adopt the
    /// snapshot's recency order exactly, so replayed rounds evolve the
    /// cache identically to the first execution.
    pub fn restore(&mut self, snap: &PagerSnapshot) {
        for p in 0..self.resident.len() {
            if self.resident[p].is_some() && !snap.resident.contains(&(p as u32)) {
                self.evict(p);
            }
        }
        for &p in &snap.resident {
            let p = p as usize;
            if self.resident[p].is_none() {
                let mut chunk = self.free_chunks.pop().unwrap_or_default();
                self.adj
                    .load_into(self.worker, p, &mut self.raw, &mut chunk);
                self.resident_bytes += chunk.resident_bytes();
                self.resident[p] = Some(chunk);
            }
        }
        self.recency = snap.resident.clone();
        self.round = PagerRound {
            peak_resident_bytes: self.resident_bytes,
            ..PagerRound::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_graph::generators;
    use mtvc_graph::partition::{HashPartitioner, Partitioner};
    use mtvc_metrics::Bytes;

    fn layout(budget: u64) -> (PagedLayout, Vec<Vec<VertexId>>) {
        let g = generators::power_law(600, 3000, 2.3, 11);
        let locals = HashPartitioner::default()
            .partition(&g, 2)
            .worker_vertices();
        let config = PagingConfig {
            budget: Bytes::new(budget),
            partition_bytes: Bytes::new(512),
        };
        (PagedLayout::build(&g, &locals, config), locals)
    }

    #[test]
    fn cache_respects_budget_and_counts_real_bytes() {
        let (layout, _) = layout(4096);
        let mut pagers = layout.make_pagers();
        let pager = &mut pagers[0];
        let nparts = pager.partitions();
        assert!(nparts > 4, "graph must split into several partitions");
        for p in 0..nparts {
            pager.ensure_resident(p);
            assert!(!pager.chunk(p).is_empty());
        }
        let round = pager.take_round();
        assert_eq!(round.partition_loads, nparts as u64);
        assert_eq!(round.loaded_bytes, layout.adjacency().encoded_bytes(0));
        // Budget was enforced throughout (partitions decode well under
        // 4 KiB each here, so the pinned-overflow case never applies).
        assert!(round.peak_resident_bytes <= 4096);
        assert!(pager.resident_bytes() <= 4096);
    }

    #[test]
    fn revisiting_resident_partition_loads_nothing() {
        let (layout, _) = layout(1 << 20);
        let mut pager = layout.make_pagers().remove(0);
        pager.ensure_resident(0);
        pager.ensure_resident(1);
        let first = pager.take_round();
        assert_eq!(first.partition_loads, 2);
        pager.ensure_resident(0);
        pager.ensure_resident(1);
        let second = pager.take_round();
        assert_eq!(second.partition_loads, 0, "warm cache: no traffic");
        assert_eq!(second.loaded_bytes, 0);
        assert_eq!(second.peak_resident_bytes, pager.resident_bytes());
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let (layout, _) = layout(4096);
        let metas = layout.adjacency().partitions(0);
        assert!(metas.len() >= 4, "graph must split into several partitions");
        let d = |p: usize| metas[p].decoded_bytes;
        // The budget fits {0, 2} but not {0, 2, 3}: loading 3 forces
        // exactly one eviction.
        let config = PagingConfig {
            budget: Bytes::new(d(0) + d(2) + d(3) - 1),
            partition_bytes: Bytes::new(512),
        };
        let mut pager = WorkerPager::new(layout.adjacency().clone(), 0, config);
        pager.ensure_resident(0);
        pager.ensure_resident(2);
        pager.ensure_resident(0); // 2 is now the least recently used
        pager.ensure_resident(3);
        assert!(pager.resident[2].is_none(), "LRU partition 2 is evicted");
        assert!(pager.resident[0].is_some(), "recently used 0 survives");
        assert!(pager.resident[3].is_some(), "the loaded partition stays");
        assert_eq!(pager.snapshot().resident, vec![0, 3]);

        // A budget below any one partition: each load evicts every
        // other resident, never itself.
        let config = PagingConfig {
            budget: Bytes::new(1),
            partition_bytes: Bytes::new(512),
        };
        let mut pager = WorkerPager::new(layout.adjacency().clone(), 0, config);
        pager.ensure_resident(0);
        pager.ensure_resident(3);
        assert!(pager.resident[0].is_none());
        assert_eq!(pager.snapshot().resident, vec![3]);
        assert_eq!(pager.resident_bytes(), d(3));
    }

    #[test]
    fn snapshot_restore_reproduces_resident_set() {
        let (layout, _) = layout(8192);
        let mut pager = layout.make_pagers().remove(0);
        for p in 0..pager.partitions() {
            pager.ensure_resident(p);
        }
        let snap = pager.snapshot();
        let resident_before: Vec<bool> = pager.resident.iter().map(Option::is_some).collect();
        let bytes_before = pager.resident_bytes();
        // Mutate the cache, then restore.
        for p in 0..pager.partitions() {
            pager.evict(p);
        }
        pager.ensure_resident(0);
        pager.restore(&snap);
        let resident_after: Vec<bool> = pager.resident.iter().map(Option::is_some).collect();
        assert_eq!(resident_before, resident_after);
        assert_eq!(bytes_before, pager.resident_bytes());
        assert_eq!(pager.snapshot(), snap, "recency order restored exactly");
        let round = pager.take_round();
        assert_eq!(round.loaded_bytes, 0, "restore traffic is recorded nowhere");
    }
}
