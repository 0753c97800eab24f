//! Multi-Source Shortest Path distance queries (MSSP).
//!
//! §3 "Pregel (MSSP)": a message `(u, v, d)` announces a length-`d`
//! path from source `u` to `v`; receivers keep the minimum per source
//! and relax their out-edges. The workload is the number of source
//! queries.
//!
//! Queries are addressed by **query id** (index into the source list),
//! not by source vertex: unit tasks are independent, so two queries may
//! share a start vertex and still count (and cost) separately — which
//! also lets a scaled-down graph carry the paper's full query counts.
//!
//! The broadcast (mirror) variant follows §3 "Pregel-Mirror (MSSP)":
//! the message shrinks to `(u, d)` and is broadcast to every neighbor.
//! That form cannot carry per-edge weights, so it computes hop
//! distances (the paper's datasets are unweighted).
//!
//! [`MsspSlabProgram`] and [`MsspBroadcastSlabProgram`] keep distances
//! in a [`StateSlab`](mtvc_engine::StateSlab) row of `W` cells per
//! vertex, relaxed branchlessly and drained via the frontier bitset: no
//! hashing, no per-compute allocation. Property tests pin them to the
//! sequential references (Dijkstra, BFS).
//!
//! [`MsspLaneSlabProgram`] lane-batches the slab kernel: one
//! [`DistLanesMsg`] relaxes eight adjacent queries per envelope. BKHS
//! uses the same scheme (`ReachLanesMsg` in its module); BPPR has no
//! lane kernel. `mtvc-core`'s executor runs the lane kernel on batches
//! of at least `LANES` queries and the row kernel below;
//! [`Message::units`] keeps the two indistinguishable to the router's
//! traffic accounting.

use crate::sources::SourceIndex;
use mtvc_engine::wire::{read_varint, write_varint};
use mtvc_engine::{
    Context, Delivery, Message, PayloadCodec, SlabProgram, SlabRow, SlabRowMut, LANES,
};
use mtvc_graph::hash::FastMap;
use mtvc_graph::VertexId;
use std::ops::Range;
use std::sync::Arc;

/// Query id: index into the job's source list.
pub type QueryId = u32;

/// Point-to-point distance message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistMsg {
    pub query: QueryId,
    pub dist: u64,
}

impl Message for DistMsg {
    /// A min: the merged distance relaxes the row exactly as both do.
    const EXACT_MERGE: bool = true;

    fn combine_key(&self) -> Option<u64> {
        Some(self.query as u64)
    }
    fn merge(&mut self, other: &Self) {
        self.dist = self.dist.min(other.dist);
    }
    fn wire_query(&self) -> Option<u64> {
        Some(self.query as u64)
    }
}

impl PayloadCodec for DistMsg {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        write_varint(out, self.dist);
    }
    fn decode_payload(wire_query: Option<u64>, buf: &[u8], pos: &mut usize) -> Self {
        DistMsg {
            query: wire_query.expect("DistMsg always carries a query id") as QueryId,
            dist: read_varint(buf, pos),
        }
    }
}

/// Lane-batched distance message: one envelope relaxes a whole
/// LANES-aligned chunk of the receiver's distance row. `mask` flags
/// which lanes carry a live candidate; unset lanes hold `u64::MAX` and
/// never relax anything. Multiplicity at emission and [`Message::units`]
/// after any fold are `mask.count_ones()`, so wire and tuple accounting
/// match the scalar [`DistMsg`] traffic unit for unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistLanesMsg {
    /// Chunk index: lanes cover queries `[chunk*LANES, chunk*LANES+LANES)`.
    pub chunk: u32,
    /// Bit `l` set = lane `l` carries a candidate distance.
    pub mask: u8,
    pub dist: [u64; LANES],
}

impl Message for DistLanesMsg {
    /// A lane-wise min and a mask OR: exact, like [`DistMsg`].
    const EXACT_MERGE: bool = true;

    fn combine_key(&self) -> Option<u64> {
        Some(self.chunk as u64)
    }
    fn merge(&mut self, other: &Self) {
        // Elementwise min; dead lanes are MAX on both sides so the
        // branchless fold needs no mask test.
        self.mask |= other.mask;
        for (a, b) in self.dist.iter_mut().zip(other.dist.iter()) {
            *a = (*a).min(*b);
        }
    }
    fn wire_query(&self) -> Option<u64> {
        Some(self.chunk as u64)
    }
    fn units(&self) -> u64 {
        self.mask.count_ones() as u64 // live lanes
    }
}

impl PayloadCodec for DistLanesMsg {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.push(self.mask);
        for l in 0..LANES {
            if self.mask & (1 << l) != 0 {
                write_varint(out, self.dist[l]);
            }
        }
    }
    fn decode_payload(wire_query: Option<u64>, buf: &[u8], pos: &mut usize) -> Self {
        let mask = buf[*pos];
        *pos += 1;
        let mut dist = [u64::MAX; LANES];
        for (l, d) in dist.iter_mut().enumerate() {
            if mask & (1 << l) != 0 {
                *d = read_varint(buf, pos);
            }
        }
        DistLanesMsg {
            chunk: wire_query.expect("DistLanesMsg always carries its chunk") as u32,
            mask,
            dist,
        }
    }
}

/// Per-vertex distances, one entry per query that reached it. The
/// sparse output shape (also what slab runs extract into).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MsspState {
    pub dist: FastMap<QueryId, u64>,
}

// ---------------------------------------------------------------------
// Slab kernels
// ---------------------------------------------------------------------

/// Extract the sparse [`MsspState`] from a dense distance row —
/// untouched cells hold `u64::MAX`.
fn extract_dists(row: SlabRow<'_, u64>) -> MsspState {
    let mut state = MsspState::default();
    for (q, d) in row.written() {
        if d != u64::MAX {
            state.dist.insert(q as QueryId, d);
        }
    }
    state
}

/// Weighted point-to-point MSSP on a dense state slab: one `u64`
/// distance cell per `(vertex, query)`, branchless min-relax per
/// delivery, frontier-driven edge relaxation.
#[derive(Debug, Clone)]
pub struct MsspSlabProgram {
    index: Arc<SourceIndex>,
    range: Range<usize>,
}

impl MsspSlabProgram {
    /// `sources[q]` is the start vertex of query `q`. Duplicates are
    /// legal (independent unit tasks).
    pub fn new(sources: Vec<VertexId>) -> MsspSlabProgram {
        let range = 0..sources.len();
        MsspSlabProgram {
            index: SourceIndex::shared(sources),
            range,
        }
    }

    /// One batch of a job-wide [`SourceIndex`].
    pub fn batch(index: Arc<SourceIndex>, range: Range<usize>) -> MsspSlabProgram {
        assert!(range.end <= index.len(), "batch range exceeds source pool");
        MsspSlabProgram { index, range }
    }

    pub fn sources(&self) -> &[VertexId] {
        &self.index.sources()[self.range.clone()]
    }

    pub fn num_queries(&self) -> usize {
        self.range.len()
    }
}

impl SlabProgram for MsspSlabProgram {
    type Message = DistMsg;
    type Cell = u64;
    type Out = MsspState;

    fn width(&self) -> usize {
        self.range.len()
    }

    fn empty_cell(&self) -> u64 {
        u64::MAX
    }

    fn message_bytes(&self) -> u64 {
        20 // (source, target, dist) — three integers as in §3
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        Some(&self.index.sources()[self.range.clone()])
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, DistMsg>) {
        for q in self.index.batch_queries_at(v, &self.range) {
            row.set(q as usize, 0);
            for (t, w) in ctx.weighted_neighbors() {
                ctx.send(
                    t,
                    DistMsg {
                        query: q,
                        dist: w as u64,
                    },
                    1,
                );
            }
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        // Min-relax straight into the row — no scratch map, no
        // allocation; the frontier remembers which cells improved.
        for d in inbox {
            row.relax_min(d.msg.query as usize, d.msg.dist);
        }
        // Drain ascending by query id: a deterministic send order.
        row.drain(|q, dist| {
            let dist = *dist;
            for (t, w) in ctx.weighted_neighbors() {
                ctx.send(
                    t,
                    DistMsg {
                        query: q as QueryId,
                        dist: dist + w as u64,
                    },
                    1,
                );
            }
        });
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> MsspState {
        extract_dists(row)
    }
}

/// Relax out-edges for every improved chunk of `row`, one lane-batched
/// message per (chunk, edge). Shared by init and compute so both emit
/// the identical traffic shape.
fn send_improved_chunks(row: &mut SlabRowMut<'_, u64>, ctx: &mut Context<'_, DistLanesMsg>) {
    row.drain_chunks(|chunk, mask, cells| {
        let units = mask.count_ones() as u64;
        // Masked chunk snapshot, built once; dead lanes stay at MAX
        // and saturating_add keeps them there, so the per-edge loop
        // below is branchless and fixed-width (autovectorizes).
        let mut base = [u64::MAX; LANES];
        for (l, &c) in cells.iter().enumerate() {
            if mask & (1 << l) != 0 {
                base[l] = c;
            }
        }
        for (t, w) in ctx.weighted_neighbors() {
            let w = w as u64;
            let mut dist = base;
            for d in dist.iter_mut() {
                *d = d.saturating_add(w);
            }
            ctx.send(
                t,
                DistLanesMsg {
                    chunk: chunk as u32,
                    mask,
                    dist,
                },
                units,
            );
        }
    });
}

/// Weighted point-to-point MSSP with **lane-batched** messages and
/// chunk-vectorized relaxation: deliveries relax eight query lanes at
/// a time ([`SlabRowMut::relax_min_lanes`]) and the frontier drains by
/// chunk ([`StateSlab::drain_chunks`]), so one envelope per (chunk,
/// edge) replaces up to eight scalar [`DistMsg`]s. Payload units
/// (envelope multiplicity, and live lanes after a fold) equal the
/// scalar program's message and tuple counts, so everything the cost
/// model prices is bit-identical to [`MsspSlabProgram`]; final
/// distances and whole-run statistics are pinned equal by property
/// tests.
///
/// [`StateSlab::drain_chunks`]: mtvc_engine::StateSlab
#[derive(Debug, Clone)]
pub struct MsspLaneSlabProgram {
    inner: MsspSlabProgram,
}

impl MsspLaneSlabProgram {
    pub fn new(sources: Vec<VertexId>) -> MsspLaneSlabProgram {
        MsspLaneSlabProgram {
            inner: MsspSlabProgram::new(sources),
        }
    }

    /// One batch of a job-wide [`SourceIndex`].
    pub fn batch(index: Arc<SourceIndex>, range: Range<usize>) -> MsspLaneSlabProgram {
        MsspLaneSlabProgram {
            inner: MsspSlabProgram::batch(index, range),
        }
    }
}

impl SlabProgram for MsspLaneSlabProgram {
    type Message = DistLanesMsg;
    type Cell = u64;
    type Out = MsspState;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn empty_cell(&self) -> u64 {
        u64::MAX
    }

    fn message_bytes(&self) -> u64 {
        20 // per payload unit — same wire estimate as the scalar kernel
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.inner.seeds()
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, DistLanesMsg>) {
        let mut any = false;
        for q in self.inner.index.batch_queries_at(v, &self.inner.range) {
            // relax (not set) so the frontier records the lane and the
            // drain below emits it.
            row.relax_min(q as usize, 0);
            any = true;
        }
        if any {
            send_improved_chunks(&mut row, ctx);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<DistLanesMsg>],
        ctx: &mut Context<'_, DistLanesMsg>,
    ) {
        for d in inbox {
            row.relax_min_lanes(d.msg.chunk as usize * LANES, &d.msg.dist);
        }
        send_improved_chunks(&mut row, ctx);
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> MsspState {
        extract_dists(row)
    }
}

/// Broadcast-interface MSSP on a dense state slab (hop distances).
#[derive(Debug, Clone)]
pub struct MsspBroadcastSlabProgram {
    inner: MsspSlabProgram,
}

impl MsspBroadcastSlabProgram {
    pub fn new(sources: Vec<VertexId>) -> MsspBroadcastSlabProgram {
        MsspBroadcastSlabProgram {
            inner: MsspSlabProgram::new(sources),
        }
    }

    /// One batch of a job-wide [`SourceIndex`].
    pub fn batch(index: Arc<SourceIndex>, range: Range<usize>) -> MsspBroadcastSlabProgram {
        MsspBroadcastSlabProgram {
            inner: MsspSlabProgram::batch(index, range),
        }
    }
}

impl SlabProgram for MsspBroadcastSlabProgram {
    type Message = DistMsg;
    type Cell = u64;
    type Out = MsspState;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn empty_cell(&self) -> u64 {
        u64::MAX
    }

    fn message_bytes(&self) -> u64 {
        12 // (source, dist) — the slimmer broadcast message of §3
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.inner.seeds()
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, DistMsg>) {
        for q in self.inner.index.batch_queries_at(v, &self.inner.range) {
            row.set(q as usize, 0);
            ctx.broadcast(DistMsg { query: q, dist: 0 }, 1);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        for d in inbox {
            // The sender broadcast its own distance; one hop further.
            row.relax_min(d.msg.query as usize, d.msg.dist + 1);
        }
        row.drain(|q, dist| {
            ctx.broadcast(
                DistMsg {
                    query: q as QueryId,
                    dist: *dist,
                },
                1,
            );
        });
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> MsspState {
        extract_dists(row)
    }
}

/// Final distances reconstructed from per-vertex states.
#[derive(Debug, Clone)]
pub struct MsspDistances {
    states: Vec<MsspState>,
}

impl MsspDistances {
    pub fn new(states: Vec<MsspState>) -> MsspDistances {
        MsspDistances { states }
    }

    /// Distance of query `q` to `target` (`None` = unreachable).
    pub fn dist(&self, q: QueryId, target: VertexId) -> Option<u64> {
        self.states[target as usize].dist.get(&q).copied()
    }

    /// Total `(query, vertex)` pairs discovered: the count of reached
    /// cells, 16 residual bytes each, that `mtvc-core` folds from the
    /// slab without building these states.
    pub fn total_entries(&self) -> u64 {
        self.states.iter().map(|s| s.dist.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_msg_merges_to_min() {
        let mut a = DistMsg { query: 1, dist: 9 };
        a.merge(&DistMsg { query: 1, dist: 4 });
        assert_eq!(a.dist, 4);
        a.merge(&DistMsg { query: 1, dist: 7 });
        assert_eq!(a.dist, 4);
    }

    #[test]
    fn duplicate_sources_are_distinct_queries() {
        let p = MsspSlabProgram::new(vec![9, 3, 9]);
        assert_eq!(p.num_queries(), 3);
        assert_eq!(p.sources(), &[9, 3, 9]);
        // Vertex 9 starts queries 0 and 2.
        assert_eq!(p.index.queries_at(9), &[0, 2]);
    }

    #[test]
    fn batch_programs_slice_a_shared_index() {
        let index = SourceIndex::shared(vec![4, 7, 4, 2]);
        let s = MsspSlabProgram::batch(Arc::clone(&index), 1..3);
        assert_eq!(s.sources(), &[7, 4]);
        assert_eq!(s.num_queries(), 2);
        assert_eq!(s.width(), 2);
        let lanes = MsspLaneSlabProgram::batch(index, 1..3);
        assert_eq!(lanes.inner.sources(), &[7, 4]);
    }

    #[test]
    fn message_sizes_differ_between_variants() {
        let p2p = MsspSlabProgram::new(vec![0]);
        let bc = MsspBroadcastSlabProgram::new(vec![0]);
        assert!(bc.message_bytes() < p2p.message_bytes());
        assert_eq!(
            MsspLaneSlabProgram::new(vec![0]).message_bytes(),
            p2p.message_bytes()
        );
    }

    #[test]
    fn lane_msg_merge_is_masked_elementwise_min() {
        let mut a = DistLanesMsg {
            chunk: 3,
            mask: 0b0000_0101,
            dist: [
                7,
                u64::MAX,
                9,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
            ],
        };
        let b = DistLanesMsg {
            chunk: 3,
            mask: 0b0000_0110,
            dist: [
                u64::MAX,
                4,
                5,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
            ],
        };
        a.merge(&b);
        assert_eq!(a.mask, 0b0000_0111);
        assert_eq!(&a.dist[..3], &[7, 4, 5]);
        assert_eq!(a.units(), 3);
    }

    #[test]
    fn lane_msg_codec_roundtrips() {
        use mtvc_engine::wire::encode_bucket;
        use mtvc_engine::Envelope;
        let msg = DistLanesMsg {
            chunk: 9,
            mask: 0b1000_0010,
            dist: [
                u64::MAX,
                300,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                2,
            ],
        };
        // mask byte + varint(300)=2 + varint(2)=1
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        assert_eq!(payload.len(), 4);
        let envs = vec![Envelope::new(5, msg, 2)];
        let buf = encode_bucket(&envs, |v| v);
        let back = mtvc_engine::wire::decode_bucket::<DistLanesMsg>(&buf, |li| li as VertexId);
        assert_eq!(back, envs);
    }

    #[test]
    fn extract_skips_untouched_cells() {
        let mut slab = mtvc_engine::StateSlab::new(1, 4, u64::MAX);
        slab.row_mut(0).set(1, 5);
        slab.row_mut(0).set(3, 0);
        let mut st = MsspState::default();
        slab.for_each_written_row(|_, row| st = extract_dists(row));
        assert_eq!(st.dist.len(), 2);
        assert_eq!(st.dist.get(&1), Some(&5));
        assert_eq!(st.dist.get(&3), Some(&0));
    }
}
