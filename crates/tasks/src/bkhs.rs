//! Batch k-Hop Search (BKHS).
//!
//! §2.3/§3: for each source `s`, collect the vertices within `k` hops.
//! "The implementations of BKHS are similar to those of MSSP except for
//! the termination condition: the program stops after k + 1
//! communication rounds." The workload is the number of source queries.
//! Like MSSP, queries are addressed by query id, so duplicate start
//! vertices are distinct (independently-charged) unit tasks.
//!
//! The slab kernels [`BkhsSlabProgram`] / [`BkhsBroadcastSlabProgram`]
//! keep one reach byte per `(vertex, query)` in a dense slab row (see
//! the `mssp` module docs); property tests pin their reach sets to the
//! sequential k-hop reference. [`BkhsLaneSlabProgram`] additionally
//! batches eight adjacent queries per envelope ([`ReachLanesMsg`]), the
//! same lane scheme as MSSP's `DistLanesMsg` — mult-weighted traffic
//! stays bit-identical to the scalar slab kernel.

use crate::mssp::QueryId;
use crate::sources::SourceIndex;
use mtvc_engine::{Context, Delivery, Message, SlabProgram, SlabRow, SlabRowMut, LANES};
use mtvc_graph::hash::FastSet;
use mtvc_graph::VertexId;
use std::ops::Range;
use std::sync::Arc;

/// Reachability notification: "query `q` reaches you".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachMsg {
    pub query: QueryId,
}

impl Message for ReachMsg {
    /// Reaching a query twice is reaching it once; only the first
    /// delivery of a query marks the cell and sends.
    const EXACT_MERGE: bool = true;

    fn combine_key(&self) -> Option<u64> {
        Some(self.query as u64)
    }
    fn merge(&mut self, _other: &Self) {}
}

/// Lane-batched reachability notification: "the queries of `chunk`
/// whose bit is set in `mask` reach you". One envelope per
/// (chunk, edge) replaces up to [`LANES`] scalar [`ReachMsg`]s; the
/// multiplicity is the number of set lanes, so wire accounting matches
/// the scalar traffic unit for unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachLanesMsg {
    /// Chunk index: lanes cover queries `[chunk*LANES, chunk*LANES+LANES)`.
    pub chunk: u32,
    /// Bit `l` set = lane `l`'s query reaches the destination.
    pub mask: u8,
}

impl Message for ReachLanesMsg {
    /// A mask OR: the merged lanes mark the row exactly as both do.
    const EXACT_MERGE: bool = true;

    fn combine_key(&self) -> Option<u64> {
        Some(self.chunk as u64)
    }
    fn merge(&mut self, other: &Self) {
        self.mask |= other.mask;
    }
    fn units(&self) -> u64 {
        self.mask.count_ones() as u64 // live lanes
    }
}

/// Per-vertex BKHS state: queries whose k-hop ball contains this vertex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BkhsState {
    pub reached: FastSet<QueryId>,
}

// ---------------------------------------------------------------------
// Slab kernels
// ---------------------------------------------------------------------

/// Reconstruct the sparse reach set from a dense flag row.
fn extract_reached(row: SlabRow<'_, u8>) -> BkhsState {
    let mut state = BkhsState::default();
    for (q, flag) in row.written() {
        if flag != 0 {
            state.reached.insert(q as QueryId);
        }
    }
    state
}

/// Point-to-point BKHS on a dense state slab: one reach byte per
/// `(vertex, query)`. Deduplication is a flag test; forwarding happens
/// per delivery in inbox order (deterministic: routing delivers in a
/// fixed order). The frontier bitset is unused — BKHS forwards inline
/// and never re-scans its row.
#[derive(Debug, Clone)]
pub struct BkhsSlabProgram {
    index: Arc<SourceIndex>,
    range: Range<usize>,
    k: u32,
}

impl BkhsSlabProgram {
    pub fn new(sources: Vec<VertexId>, k: u32) -> BkhsSlabProgram {
        assert!(k >= 1, "k-hop search requires k >= 1");
        let range = 0..sources.len();
        BkhsSlabProgram {
            index: SourceIndex::shared(sources),
            range,
            k,
        }
    }

    /// One batch of a job-wide [`SourceIndex`].
    pub fn batch(index: Arc<SourceIndex>, range: Range<usize>, k: u32) -> BkhsSlabProgram {
        assert!(k >= 1, "k-hop search requires k >= 1");
        assert!(range.end <= index.len(), "batch range exceeds source pool");
        BkhsSlabProgram { index, range, k }
    }

    pub fn k(&self) -> u32 {
        self.k
    }

    pub fn sources(&self) -> &[VertexId] {
        &self.index.sources()[self.range.clone()]
    }
}

impl SlabProgram for BkhsSlabProgram {
    type Message = ReachMsg;
    type Cell = u8;
    type Out = BkhsState;

    fn width(&self) -> usize {
        self.range.len()
    }

    fn empty_cell(&self) -> u8 {
        0
    }

    fn message_bytes(&self) -> u64 {
        12 // query id + hop tag
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        Some(self.sources())
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u8>, ctx: &mut Context<'_, ReachMsg>) {
        for q in self.index.batch_queries_at(v, &self.range) {
            *row.cell_mut(q as usize) = 1;
            ctx.send_each(ctx.neighbors(), ReachMsg { query: q }, 1);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u8>,
        inbox: &[Delivery<ReachMsg>],
        ctx: &mut Context<'_, ReachMsg>,
    ) {
        for d in inbox {
            let cell = row.cell_mut(d.msg.query as usize);
            if *cell == 0 {
                *cell = 1;
                ctx.send_each(ctx.neighbors(), ReachMsg { query: d.msg.query }, 1);
            }
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u8>) -> BkhsState {
        extract_reached(row)
    }

    /// §3: stop after k+1 rounds total (init + k forwarding rounds).
    fn max_rounds(&self) -> Option<usize> {
        Some(self.k as usize)
    }
}

/// Broadcast-interface BKHS on a dense state slab (identical semantics;
/// broadcast sends).
#[derive(Debug, Clone)]
pub struct BkhsBroadcastSlabProgram {
    inner: BkhsSlabProgram,
}

impl BkhsBroadcastSlabProgram {
    pub fn new(sources: Vec<VertexId>, k: u32) -> BkhsBroadcastSlabProgram {
        BkhsBroadcastSlabProgram {
            inner: BkhsSlabProgram::new(sources, k),
        }
    }

    /// One batch of a job-wide [`SourceIndex`].
    pub fn batch(index: Arc<SourceIndex>, range: Range<usize>, k: u32) -> BkhsBroadcastSlabProgram {
        BkhsBroadcastSlabProgram {
            inner: BkhsSlabProgram::batch(index, range, k),
        }
    }
}

impl SlabProgram for BkhsBroadcastSlabProgram {
    type Message = ReachMsg;
    type Cell = u8;
    type Out = BkhsState;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn empty_cell(&self) -> u8 {
        0
    }

    fn message_bytes(&self) -> u64 {
        8 // query only — receivers handle via the broadcast contract
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.inner.seeds()
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u8>, ctx: &mut Context<'_, ReachMsg>) {
        for q in self.inner.index.batch_queries_at(v, &self.inner.range) {
            *row.cell_mut(q as usize) = 1;
            ctx.broadcast(ReachMsg { query: q }, 1);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u8>,
        inbox: &[Delivery<ReachMsg>],
        ctx: &mut Context<'_, ReachMsg>,
    ) {
        for d in inbox {
            let cell = row.cell_mut(d.msg.query as usize);
            if *cell == 0 {
                *cell = 1;
                ctx.broadcast(ReachMsg { query: d.msg.query }, 1);
            }
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u8>) -> BkhsState {
        extract_reached(row)
    }

    fn max_rounds(&self) -> Option<usize> {
        self.inner.max_rounds()
    }
}

/// Forward every newly-reached chunk of the row: one
/// [`ReachLanesMsg`] per (dirty chunk, neighbor) whose multiplicity is
/// the number of fresh lanes, so mult-weighted traffic equals the
/// scalar program's one-unit-per-query sends.
fn send_reached_chunks(row: &mut SlabRowMut<'_, u8>, ctx: &mut Context<'_, ReachLanesMsg>) {
    row.drain_chunks(|chunk, mask, _cells| {
        let msg = ReachLanesMsg {
            chunk: chunk as u32,
            mask,
        };
        ctx.send_each(ctx.neighbors(), msg, mask.count_ones() as u64);
    });
}

/// Lane-batched point-to-point BKHS: eight queries advance per
/// envelope. Arrivals OR their mask into the row via
/// [`SlabRowMut::absorb_lanes`], which marks only *freshly* reached
/// lanes in the frontier; draining then forwards one message per dirty
/// chunk instead of one per query. Mult-weighted traffic, rounds and
/// final states are bit-identical to [`BkhsSlabProgram`] — pinned by
/// proptest.
#[derive(Debug, Clone)]
pub struct BkhsLaneSlabProgram {
    inner: BkhsSlabProgram,
}

impl BkhsLaneSlabProgram {
    pub fn new(sources: Vec<VertexId>, k: u32) -> BkhsLaneSlabProgram {
        BkhsLaneSlabProgram {
            inner: BkhsSlabProgram::new(sources, k),
        }
    }

    /// One batch of a job-wide [`SourceIndex`].
    pub fn batch(index: Arc<SourceIndex>, range: Range<usize>, k: u32) -> BkhsLaneSlabProgram {
        BkhsLaneSlabProgram {
            inner: BkhsSlabProgram::batch(index, range, k),
        }
    }
}

impl SlabProgram for BkhsLaneSlabProgram {
    type Message = ReachLanesMsg;
    type Cell = u8;
    type Out = BkhsState;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn empty_cell(&self) -> u8 {
        0
    }

    fn message_bytes(&self) -> u64 {
        12
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.inner.seeds()
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u8>, ctx: &mut Context<'_, ReachLanesMsg>) {
        let mut any = false;
        for q in self.inner.index.batch_queries_at(v, &self.inner.range) {
            *row.cell_mut(q as usize) = 1;
            row.mark(q as usize);
            any = true;
        }
        if any {
            send_reached_chunks(&mut row, ctx);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u8>,
        inbox: &[Delivery<ReachLanesMsg>],
        ctx: &mut Context<'_, ReachLanesMsg>,
    ) {
        for d in inbox {
            row.absorb_lanes(d.msg.chunk as usize * LANES, d.msg.mask);
        }
        send_reached_chunks(&mut row, ctx);
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u8>) -> BkhsState {
        extract_reached(row)
    }

    fn max_rounds(&self) -> Option<usize> {
        self.inner.max_rounds()
    }
}

/// Per-query k-hop neighborhood sizes, aggregated from final states.
#[derive(Debug, Clone)]
pub struct BkhsCounts {
    counts: std::collections::BTreeMap<QueryId, u64>,
}

impl BkhsCounts {
    pub fn from_states(states: &[BkhsState]) -> BkhsCounts {
        let mut counts = std::collections::BTreeMap::new();
        for st in states {
            for &q in &st.reached {
                *counts.entry(q).or_insert(0) += 1;
            }
        }
        BkhsCounts { counts }
    }

    /// Number of vertices within k hops of query `q`'s source
    /// (including the source itself).
    pub fn count(&self, q: QueryId) -> u64 {
        self.counts.get(&q).copied().unwrap_or(0)
    }

    /// Vertices reached by query `q`, reconstructed from states.
    pub fn members(states: &[BkhsState], q: QueryId) -> Vec<VertexId> {
        states
            .iter()
            .enumerate()
            .filter(|(_, st)| st.reached.contains(&q))
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_sources_kept_as_queries() {
        let p = BkhsSlabProgram::new(vec![4, 4, 2], 3);
        assert_eq!(p.sources(), &[4, 4, 2]);
        assert_eq!(p.k(), 3);
        assert_eq!(p.max_rounds(), Some(3));
        assert_eq!(p.index.queries_at(4), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_hops_rejected() {
        BkhsSlabProgram::new(vec![0], 0);
    }

    #[test]
    fn batch_programs_slice_a_shared_index() {
        let index = SourceIndex::shared(vec![4, 4, 2, 7]);
        let b = BkhsSlabProgram::batch(Arc::clone(&index), 2..4, 2);
        assert_eq!(b.sources(), &[2, 7]);
        assert_eq!(b.width(), 2);
        assert_eq!(SlabProgram::max_rounds(&b), Some(2));
    }

    #[test]
    fn extract_inverts_flag_rows() {
        let mut slab = mtvc_engine::StateSlab::new(1, 3, 0u8);
        *slab.row_mut(0).cell_mut(0) = 1;
        *slab.row_mut(0).cell_mut(2) = 1;
        let mut st = BkhsState::default();
        slab.for_each_written_row(|_, row| st = extract_reached(row));
        assert!(st.reached.contains(&0));
        assert!(!st.reached.contains(&1));
        assert!(st.reached.contains(&2));
    }

    #[test]
    fn counts_aggregate_states() {
        let mut states = vec![BkhsState::default(); 3];
        states[0].reached.insert(0);
        states[1].reached.insert(0);
        states[2].reached.insert(1);
        let c = BkhsCounts::from_states(&states);
        assert_eq!(c.count(0), 2);
        assert_eq!(c.count(1), 1);
        assert_eq!(c.count(9), 0);
        assert_eq!(BkhsCounts::members(&states, 0), vec![0, 1]);
    }
}
