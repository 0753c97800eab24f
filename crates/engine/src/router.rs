//! Message routing: outboxes → grouped inboxes, with sender-side
//! combining, broadcast expansion, mirroring-aware wire accounting, and
//! per-worker traffic statistics.
//!
//! Routing is a **shard-then-merge** pipeline:
//!
//! 1. **Shard** — each *source* worker buckets its emissions into one
//!    shard per destination worker. Envelopes with equal
//!    `(dest, combine_key)` are folded *here*, at the source, through a
//!    recycled slot map — before any "transmission" — so the shard
//!    columns the merge stage sees are already combined (sender-side
//!    combining, the Pregel+ technique). A round folds when the system
//!    profile enables combining, or on any profile when the payload's
//!    merge is exact ([`Message::EXACT_MERGE`]); the profile's flag
//!    alone decides what the fold is *charged*: a non-combining shard
//!    still counts every envelope it was sent. Each shard additionally
//!    keeps a histogram of destination local indices and counts its
//!    pair's wire messages and tuples as envelopes arrive, so its
//!    per-pair traffic is known the moment the stage ends. Shards of
//!    different sources are independent, so this stage parallelizes
//!    over source workers.
//! 2. **Merge** — each *destination* worker folds its column of shards
//!    (in source order) into a grouped [`Inbox`]: the per-shard
//!    histograms are summed into per-vertex offsets, and every bucketed
//!    [`Delivery`] is *moved* (never cloned) straight into its vertex's
//!    contiguous run of the inbox. Columns of
//!    different destinations are independent, so this stage
//!    parallelizes over destination workers.
//!
//! The grouped inbox hands `compute` a borrowed `&[Delivery<M>]` run
//! per vertex, which eliminates the per-round counting sort and the
//! per-delivery message clone the compute phase used to pay.
//! [`RoutingStats`] is a pure reduction over the per-pair flows, which
//! makes the parallel path *bit-identical* to the serial reference
//! [`route`] — same runs in the same order, same statistics —
//! regardless of thread scheduling. [`RouteGrid`] owns the shard
//! matrix, slot maps, and offset buffers and recycles all of them
//! across rounds, so a steady-state round performs zero allocations and
//! zero message clones between `send()` and `compute()`.
//!
//! Stage 1 happens *at emission time*, in one place: each worker's
//! [`ShardedOutbox`] sink ([`RouteGrid::begin_round`] →
//! [`RouteGrid::emit_sinks`] → [`RouteGrid::route_presharded`]). The
//! runner's compute phase writes straight into the sinks, so no flat
//! outbox is ever materialised. [`RouteGrid::route_round`] replays flat
//! [`Outbox`]es through the same sinks for harnesses and the property
//! tests, and the serial [`route`] stays the independent oracle they
//! are pinned against.

use crate::message::{Delivery, Envelope, Message};
use crate::mirror::MirrorIndex;
use crate::pool::{dispatch, WorkerPool};
use crate::program::{EmitSink, Outbox};
use mtvc_graph::hash::FastMap;
use mtvc_graph::partition::Partition;
use mtvc_graph::{Graph, VertexId};
use std::collections::hash_map::Entry;

/// Routing behaviour beyond the per-round `combine` flag. Every
/// profile routes the same way, so the policy carries nothing; the type
/// and [`RouteGrid::set_policy`] stay only because the benchmark's
/// round-loop replica installs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutePolicy;

/// Traffic measured while routing one round's messages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingStats {
    /// Wire messages produced ("messages sent within a round" — the
    /// paper's congestion numerator). Broadcasts count one message per
    /// receiving neighbor.
    pub sent_wire: u64,
    /// Payload units delivered as the profile prices them: after the
    /// fold on a combining round (what a combining system actually
    /// delivers and processes), one per sent envelope otherwise — a
    /// host-side fold of an exact payload changes nothing here. One
    /// unit per scalar envelope, [`Message::units`] per lane-batched
    /// one.
    pub delivered_tuples: u64,
    /// Per-worker wire messages delivered.
    pub in_wire: Vec<u64>,
    /// Per-worker tuples delivered.
    pub in_tuples: Vec<u64>,
    /// Per-worker bytes sent to other machines.
    pub net_out_bytes: Vec<u64>,
    /// Per-worker bytes received from other machines.
    pub net_in_bytes: Vec<u64>,
    /// Bytes that stayed machine-local.
    pub local_bytes: u64,
    /// Per-worker bytes of message buffers *produced* (local + remote;
    /// memory accounting — mirroring saves wire bytes, not buffers).
    pub out_buffer_bytes: Vec<u64>,
    /// Per-worker bytes of message buffers *received* (local + remote).
    pub in_buffer_bytes: Vec<u64>,
    /// Bytes materialised in routing buffers between `send()` and the
    /// merge: one `size_of::<Delivery<M>>()` per entry appended to a
    /// shard bucket (buckets drop the destination id, which the merge
    /// rebuilds from the local index), plus, when the round came in
    /// flat [`Outbox`]es ([`RouteGrid::route_round`], serial [`route`]),
    /// one `size_of::<Envelope<M>>()` per entry written into them. The
    /// runner emits straight into the shards, so its rounds write each
    /// surviving message once and each folded one never — this counter
    /// is what the copy-elimination claim is measured on. Exact
    /// payloads fold on every profile, so this is the one statistic a
    /// non-combining run of them sees shrink. Pure accounting; no other
    /// statistic depends on it.
    pub shard_copy_bytes: u64,
}

impl RoutingStats {
    fn new(workers: usize) -> Self {
        RoutingStats {
            sent_wire: 0,
            delivered_tuples: 0,
            in_wire: vec![0; workers],
            in_tuples: vec![0; workers],
            net_out_bytes: vec![0; workers],
            net_in_bytes: vec![0; workers],
            local_bytes: 0,
            out_buffer_bytes: vec![0; workers],
            in_buffer_bytes: vec![0; workers],
            shard_copy_bytes: 0,
        }
    }

    /// Zero every counter in place (capacity retained).
    fn reset(&mut self) {
        self.sent_wire = 0;
        self.delivered_tuples = 0;
        self.local_bytes = 0;
        self.shard_copy_bytes = 0;
        for v in [
            &mut self.in_wire,
            &mut self.in_tuples,
            &mut self.net_out_bytes,
            &mut self.net_in_bytes,
            &mut self.out_buffer_bytes,
            &mut self.in_buffer_bytes,
        ] {
            v.iter_mut().for_each(|x| *x = 0);
        }
    }

    /// Total wire messages delivered (= sent; nothing is dropped).
    pub fn delivered_wire(&self) -> u64 {
        self.in_wire.iter().sum()
    }
}

/// Vertex ↔ (worker, local index) addressing for one partition.
///
/// The shard stage uses `local_of` to histogram destinations; the merge
/// stage uses `vertex_at` to label the grouped runs. Built once per
/// partition (a [`Topology`](crate::Topology) owns one) and shared
/// read-only by every routing stage of every run over it.
#[derive(Debug, Clone)]
pub struct LocalIndex {
    /// vertex id → index within its owner's vertex list.
    index: Vec<u32>,
    /// worker → owned vertices, in local-index order.
    vertices: Vec<Vec<VertexId>>,
}

impl LocalIndex {
    /// Build the two-way mapping from a partition.
    pub fn build(part: &Partition) -> LocalIndex {
        let vertices = part.worker_vertices();
        let mut index = vec![0u32; part.num_vertices()];
        for list in &vertices {
            for (i, &v) in list.iter().enumerate() {
                index[v as usize] = i as u32;
            }
        }
        LocalIndex { index, vertices }
    }

    /// Index of `v` within its owning worker's vertex list.
    #[inline]
    pub fn local_of(&self, v: VertexId) -> u32 {
        self.index[v as usize]
    }

    /// The vertex at `(worker, local index)`.
    #[inline]
    pub fn vertex_at(&self, worker: usize, local: u32) -> VertexId {
        self.vertices[worker][local as usize]
    }

    /// Vertices owned by `worker`.
    pub fn count(&self, worker: usize) -> usize {
        self.vertices[worker].len()
    }

    /// Per-worker vertex lists, in local-index order.
    pub fn worker_vertices(&self) -> &[Vec<VertexId>] {
        &self.vertices
    }
}

/// One vertex's contiguous slice of [`Delivery`] slots within an
/// [`Inbox`]. The run starts where the previous run ended (offset 0 for
/// the first run); runs are stored in ascending local-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Destination vertex.
    pub dest: VertexId,
    /// Destination's local index within its worker.
    pub local: u32,
    /// Exclusive end offset into the delivery buffer.
    pub end: u32,
}

/// One worker's round inbox, already grouped for the compute phase:
/// deliveries are laid out in destination-local-index order (stable by
/// source worker, then send order within a source) and partitioned into
/// per-vertex [`Run`]s. The compute phase hands each vertex its run as
/// a borrowed slice — no sort, no clone, no per-round allocation.
#[derive(Debug, PartialEq)]
pub struct Inbox<M> {
    deliveries: Vec<Delivery<M>>,
    runs: Vec<Run>,
}

impl<M: Clone> Clone for Inbox<M> {
    fn clone(&self) -> Self {
        Inbox {
            deliveries: self.deliveries.clone(),
            runs: self.runs.clone(),
        }
    }

    /// Buffer-reusing clone: checkpoint snapshots and rollback call this
    /// every cadence round, so the snapshot buffers are recycled instead
    /// of reallocated — and grown, when they must grow, to exactly what
    /// `src` holds rather than to the next doubling.
    fn clone_from(&mut self, src: &Self) {
        self.deliveries.clear();
        self.deliveries.reserve_exact(src.deliveries.len());
        self.deliveries.extend(src.deliveries.iter().cloned());
        self.runs.clear();
        self.runs.reserve_exact(src.runs.len());
        self.runs.extend_from_slice(&src.runs);
    }
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox::new()
    }
}

impl<M> Inbox<M> {
    pub fn new() -> Inbox<M> {
        Inbox {
            deliveries: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// True when no messages were delivered (quiescence test).
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty()
    }

    /// Delivered envelopes in this inbox.
    pub fn len(&self) -> usize {
        self.deliveries.len()
    }

    /// The grouped delivery buffer.
    pub fn deliveries(&self) -> &[Delivery<M>] {
        &self.deliveries
    }

    /// The per-vertex runs, ascending by local index.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Iterate `(dest, local index, deliveries)` per active vertex.
    pub fn iter_runs(&self) -> impl Iterator<Item = (VertexId, u32, &[Delivery<M>])> {
        let mut start = 0usize;
        self.runs.iter().map(move |r| {
            let slice = &self.deliveries[start..r.end as usize];
            start = r.end as usize;
            (r.dest, r.local, slice)
        })
    }

    /// Reset for reuse across rounds; capacity is retained.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.runs.clear();
    }
}

/// Traffic of one (source worker → destination worker) pair for one
/// round; folding every pair's flow yields the round's
/// [`RoutingStats`].
#[derive(Debug, Clone, Copy, Default)]
struct PairFlow {
    buffer_bytes: u64,
    net_bytes: u64,
    local_bytes: u64,
    wire: u64,
    tuples: u64,
    /// Delivery bytes appended to this pair's bucket (the shard-stage
    /// half of [`RoutingStats::shard_copy_bytes`]).
    copy_bytes: u64,
}

/// Entries per [`Bucket`] block, as a power of two: a bucket position
/// `pos` lives in block `pos >> BLOCK_SHIFT` at `pos & BLOCK_MASK`.
const BLOCK_SHIFT: u32 = 10;
const BLOCK: usize = 1 << BLOCK_SHIFT;
const BLOCK_MASK: usize = BLOCK - 1;

/// A shard's bucket: the round's surviving deliveries, each with its
/// destination local index, in fixed blocks of [`BLOCK`] entries. The
/// first block grows like a `Vec` up to one block, so a shard carrying a
/// few messages stays small; every later block is allocated whole, so
/// growth never copies an entry and spare capacity stays under one
/// block. Draining keeps every block for the next round.
#[derive(Debug)]
struct Bucket<M> {
    /// Filled blocks, in append order, [`BLOCK`] entries each.
    full: Vec<Block<M>>,
    /// The block appends go to: entry `i` is at position
    /// `full.len() * BLOCK + i`.
    open: Block<M>,
    /// Drained blocks, reused before any new one is allocated.
    spare: Vec<Block<M>>,
}

/// One [`Bucket`] block: deliveries and, parallel to them, their
/// destination local indices — computed once at append time so the
/// merge scatter reads them sequentially instead of re-deriving each
/// with a random `LocalIndex` lookup.
#[derive(Debug)]
struct Block<M> {
    deliveries: Vec<Delivery<M>>,
    lis: Vec<u32>,
}

impl<M> Block<M> {
    fn with_capacity(cap: usize) -> Self {
        Block {
            deliveries: Vec::with_capacity(cap),
            lis: Vec::with_capacity(cap),
        }
    }
}

impl<M> Default for Bucket<M> {
    fn default() -> Self {
        Bucket {
            full: Vec::new(),
            open: Block::with_capacity(0),
            spare: Vec::new(),
        }
    }
}

impl<M> Bucket<M> {
    fn len(&self) -> usize {
        self.full.len() * BLOCK + self.open.deliveries.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn push(&mut self, li: u32, delivery: Delivery<M>) {
        if self.open.deliveries.len() == self.open.deliveries.capacity() {
            self.make_room();
        }
        self.open.deliveries.push(delivery);
        self.open.lis.push(li);
    }

    /// Room for one more entry when the open block is at capacity: a
    /// short open block (only a bucket's first is ever short) doubles,
    /// capped at one block; a full one is closed for a spare or a new
    /// block.
    #[cold]
    fn make_room(&mut self) {
        let at = self.open.deliveries.len();
        if at < BLOCK {
            let extra = (2 * at).clamp(4, BLOCK) - at;
            self.open.deliveries.reserve_exact(extra);
            self.open.lis.reserve_exact(extra);
        } else {
            let next = self
                .spare
                .pop()
                .unwrap_or_else(|| Block::with_capacity(BLOCK));
            self.full.push(std::mem::replace(&mut self.open, next));
        }
    }

    /// The delivery at bucket position `pos`.
    #[inline]
    fn get_mut(&mut self, pos: u32) -> &mut Delivery<M> {
        let (b, at) = (pos as usize >> BLOCK_SHIFT, pos as usize & BLOCK_MASK);
        match self.full.get_mut(b) {
            Some(block) => &mut block.deliveries[at],
            None => &mut self.open.deliveries[at],
        }
    }

    /// Hand every `(local index, delivery)` to `f` in append order,
    /// leaving the bucket empty with its blocks kept.
    #[inline]
    fn drain_with(&mut self, mut f: impl FnMut(u32, Delivery<M>)) {
        for block in self.full.iter_mut().chain([&mut self.open]) {
            for (d, li) in block.deliveries.drain(..).zip(block.lis.drain(..)) {
                f(li, d);
            }
        }
        self.spare.append(&mut self.full);
    }
}

/// Messages from one source worker bound for one destination worker:
/// the (already sender-combined) bucket of deliveries, a histogram
/// of destination local indices, the mirror-prepaid wire accounting,
/// and the pair's measured flow. A bucket entry is a [`Delivery`], not
/// an [`Envelope`]: the destination id is dead once the local index is
/// known, and the merge labels each run from the local index. All
/// buffers are recycled across rounds.
#[derive(Debug)]
pub(crate) struct Shard<M> {
    bucket: Bucket<M>,
    /// Entries per destination local index (len = destination
    /// worker's vertex count; all-zero outside the pipeline).
    hist: Vec<u32>,
    /// Local indices with `hist > 0`, in first-touch order — makes
    /// re-zeroing `hist` O(distinct destinations), not O(n).
    touched: Vec<u32>,
    /// Wire messages in the bucket (multiplicity sum; combining folds
    /// envelopes but preserves this total).
    wire: u64,
    /// Tuples the bucket delivers as the round prices them, counted as
    /// envelopes arrive: [`Message::units`] per append, plus the units
    /// a fold adds on a combining round or the folded envelope's own
    /// units on a non-combining one.
    tuples: u64,
    /// Delivery bytes appended to the bucket this round (one
    /// `size_of::<Delivery<M>>()` per surviving append; folds add
    /// nothing) — the shard half of
    /// [`RoutingStats::shard_copy_bytes`].
    copied: u64,
    /// Bytes already paid on the wire for this pair (mirrored
    /// broadcasts pay per mirror-worker, not per envelope).
    prepaid_net: u64,
    /// Wire messages whose network cost is prepaid (count NOT to be
    /// charged per-envelope).
    prepaid_wire: u64,
    /// Dense sender-combining table for small combine keys: slot
    /// `key * nloc + li` holds `epoch << 32 | bucket position` for
    /// that `(destination, key)` pair, valid when the epoch half
    /// equals `fold_round`. Turns the hash probe on the combining hot
    /// path into one multiply and an epoch compare (and packing both
    /// halves into one word keeps a probe to a single cache touch);
    /// keys whose row would push the table past
    /// [`DENSE_FOLD_SLOTS_MAX`] fall back to the sender's hash map.
    fold_slots: Vec<u64>,
    fold_round: u32,
    /// Destination worker's vertex count, refreshed each round (the
    /// dense table's row stride).
    nloc: usize,
    /// The pair's traffic, taken from the counters at the end of the
    /// shard stage.
    flow: PairFlow,
}

impl<M> Default for Shard<M> {
    fn default() -> Self {
        Shard {
            bucket: Bucket::default(),
            hist: Vec::new(),
            touched: Vec::new(),
            wire: 0,
            tuples: 0,
            copied: 0,
            prepaid_net: 0,
            prepaid_wire: 0,
            fold_slots: Vec::new(),
            fold_round: 0,
            nloc: 0,
            flow: PairFlow::default(),
        }
    }
}

/// Upper bound on a [`Shard`]'s dense combining table, in slots
/// (`rows * nloc`). At 8 bytes per slot this caps the table at 32 MiB
/// per shard; combine keys whose row starts beyond the cap use the
/// sender's hash map instead, so arbitrarily large or sparse key
/// domains stay correct — just not dense-accelerated.
const DENSE_FOLD_SLOTS_MAX: usize = 1 << 22;

/// Fresh [`Shard::fold_slots`] entry: epoch half 0 never matches a
/// live `fold_round` (rounds count from 1).
const FOLD_SLOT_EMPTY: u64 = 0;

/// Sender-side combining state for one source worker: maps
/// `(dest, combine_key)` to the envelope's position within the
/// destination shard's bucket, for keys past the dense fold table.
/// Recycled across rounds (cleared, never dropped), so steady-state
/// combining allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SenderSlots {
    map: FastMap<(VertexId, u64), u32>,
}

/// Whether a round folds equal `(dest, key)` envelopes at the sender:
/// on every combining round, and on every round for payloads whose
/// merge is exact. The one rule; `combine` itself then decides only
/// what the round is charged.
#[inline]
fn folds<M: Message>(combine: bool) -> bool {
    combine || M::EXACT_MERGE
}

/// Append a delivery for destination local index `li` to `shard`,
/// maintaining the wire and tuple counts and the local-index histogram.
#[inline]
fn append<M: Message>(shard: &mut Shard<M>, li: u32, msg: M, mult: u64) {
    shard.wire += mult;
    shard.tuples += msg.units();
    shard.copied += std::mem::size_of::<Delivery<M>>() as u64;
    let h = &mut shard.hist[li as usize];
    if *h == 0 {
        shard.touched.push(li);
    }
    *h += 1;
    shard.bucket.push(li, Delivery { msg, mult });
}

/// Probe the sender-combining structures for `(dest, key)`: the shard's
/// dense epoch-tagged table when the key's row fits under
/// [`DENSE_FOLD_SLOTS_MAX`], the sender's hash map otherwise. Returns
/// the bucket position of an equal-keyed delivery appended earlier this
/// round, or `None` after recording that the next appended delivery
/// (at `bucket.len()`) owns the slot.
#[inline]
fn fold_probe<M>(
    shard: &mut Shard<M>,
    map: &mut FastMap<(VertexId, u64), u32>,
    dest: VertexId,
    li: u32,
    key: u64,
) -> Option<u32> {
    let idx = (key as usize)
        .checked_mul(shard.nloc)
        .map(|row| row + li as usize);
    match idx {
        Some(idx) if idx < DENSE_FOLD_SLOTS_MAX => {
            if shard.fold_slots.len() <= idx {
                let end = (key as usize + 1) * shard.nloc;
                shard.fold_slots.resize(end, FOLD_SLOT_EMPTY);
            }
            let slot = shard.fold_slots[idx];
            if (slot >> 32) as u32 == shard.fold_round {
                Some(slot as u32)
            } else {
                shard.fold_slots[idx] = (shard.fold_round as u64) << 32 | shard.bucket.len() as u64;
                None
            }
        }
        _ => match map.entry((dest, key)) {
            Entry::Occupied(o) => Some(*o.get()),
            Entry::Vacant(vac) => {
                vac.insert(shard.bucket.len() as u32);
                None
            }
        },
    }
}

/// Merge `msg` into the delivery at bucket position `pos`. A combining
/// round counts the tuples the merge added; a non-combining one (an
/// exact payload folded for the host's sake) counts `msg` as if it had
/// been appended.
#[inline]
fn fold_into<M: Message>(shard: &mut Shard<M>, pos: u32, msg: &M, mult: u64, combine: bool) {
    let slot = shard.bucket.get_mut(pos);
    let before = slot.msg.units();
    slot.msg.merge(msg);
    slot.mult += mult;
    shard.wire += mult;
    shard.tuples = if combine {
        shard.tuples - before + slot.msg.units()
    } else {
        shard.tuples + msg.units()
    };
}

/// Route one point-to-point envelope into its shard, folding it into an
/// existing slot when the round [`folds`] and an equal `(dest, key)`
/// envelope was already sent this round.
#[inline]
fn push_send<M: Message>(
    env: Envelope<M>,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
    shards: &mut [Shard<M>],
    slots: &mut SenderSlots,
) {
    let dw = part.owner_of(env.dest) as usize;
    let li = locals.local_of(env.dest);
    if folds::<M>(combine) {
        if let Some(key) = env.msg.combine_key() {
            let shard = &mut shards[dw];
            if let Some(pos) = fold_probe(shard, &mut slots.map, env.dest, li, key) {
                fold_into(shard, pos, &env.msg, env.mult, combine);
                return;
            }
        }
    }
    append(&mut shards[dw], li, env.msg, env.mult);
}

/// Route one broadcast-expanded message. On a fold hit the clone is
/// skipped entirely — the borrowed payload merges into the slot.
#[inline]
#[allow(clippy::too_many_arguments)]
fn push_broadcast<M: Message>(
    dest: VertexId,
    msg: &M,
    mult: u64,
    dw: usize,
    locals: &LocalIndex,
    combine: bool,
    shards: &mut [Shard<M>],
    slots: &mut SenderSlots,
) {
    let li = locals.local_of(dest);
    if folds::<M>(combine) {
        if let Some(key) = msg.combine_key() {
            let shard = &mut shards[dw];
            if let Some(pos) = fold_probe(shard, &mut slots.map, dest, li, key) {
                fold_into(shard, pos, msg, mult, combine);
                return;
            }
        }
    }
    append(&mut shards[dw], li, msg.clone(), mult);
}

/// Measure one shard's pair traffic from the counters its appends and
/// folds kept — O(1), the bucket is never walked.
///
/// Tuples are payload units, not envelopes, so a folded lane envelope
/// counts once per live lane and lane-batched traffic is priced exactly
/// like the scalar messages it stands for. Mirrored-broadcast envelopes
/// must not ALSO pay per-envelope network bytes: the shard tracks how
/// many wire messages were prepaid, and the remainder of the bucket
/// pays normally. Envelopes from `sends` and unmirrored broadcasts are
/// never prepaid.
fn finish_shard<M>(src: usize, dst: usize, shard: &mut Shard<M>, combine: bool, msg_bytes: u64) {
    let prepaid_net = std::mem::take(&mut shard.prepaid_net);
    let prepaid_wire = std::mem::take(&mut shard.prepaid_wire);
    let wire = std::mem::take(&mut shard.wire);
    let tuples = std::mem::take(&mut shard.tuples);
    let copied = std::mem::take(&mut shard.copied);
    let mut flow = PairFlow::default();
    if !shard.bucket.is_empty() || prepaid_net != 0 {
        flow.copy_bytes = copied;
        // Bytes on the wire: combining systems transmit tuples,
        // non-combining systems transmit every wire message.
        let payload_units = if combine { tuples } else { wire };
        let buffer_bytes = payload_units * msg_bytes;
        flow.buffer_bytes = buffer_bytes;
        flow.wire = wire;
        flow.tuples = tuples;
        if dst != src {
            // Replace the prepaid portion: those wire messages crossed
            // as mirror transfers already counted.
            let prepaid_units = prepaid_wire.min(payload_units);
            flow.net_bytes = buffer_bytes.saturating_sub(prepaid_units * msg_bytes) + prepaid_net;
        } else {
            flow.local_bytes = buffer_bytes;
        }
    }
    shard.flow = flow;
}

/// Stage 2: fold one destination's shard column (in source order) into
/// its grouped [`Inbox`].
///
/// The per-shard histograms are summed into per-vertex offsets, every
/// envelope payload is moved into its vertex's delivery run, and the
/// runs are emitted in ascending local-index order — the exact grouping
/// the compute phase used to derive with a per-round counting sort.
fn merge_column<M: Message>(
    dst: usize,
    col: &mut [Shard<M>],
    locals: &LocalIndex,
    counts: &mut Vec<u32>,
    active: &mut Vec<u32>,
    inbox: &mut Inbox<M>,
    flows: &mut [PairFlow],
) {
    let nloc = locals.count(dst);
    if counts.len() < nloc {
        counts.resize(nloc, 0);
    }
    debug_assert!(inbox.is_empty(), "inboxes must arrive empty");
    debug_assert!(counts.iter().all(|&c| c == 0), "offset buffer not reset");
    active.clear();

    // Sum the shard histograms; `active` collects the distinct local
    // indices so nothing here is O(worker vertex count).
    let mut total = 0usize;
    for (src, shard) in col.iter_mut().enumerate() {
        flows[src] = std::mem::take(&mut shard.flow);
        total += shard.bucket.len();
        for &li in &shard.touched {
            if counts[li as usize] == 0 {
                active.push(li);
            }
            counts[li as usize] += shard.hist[li as usize];
        }
    }
    if total == 0 {
        return;
    }
    assert!(total <= u32::MAX as usize, "round inbox exceeds u32 range");

    // Prefix-sum in ascending local order: counts[li] becomes the write
    // cursor of li's run.
    active.sort_unstable();
    let mut running = 0u32;
    for &li in active.iter() {
        let c = counts[li as usize];
        counts[li as usize] = running;
        running += c;
    }
    debug_assert_eq!(running as usize, total);

    // Scatter: move each delivery straight into its run slot. Iterating
    // shards in source order keeps runs stable by (source, send order)
    // — the same order the counting sort used to produce. The inbox
    // grows in place to exactly `total`, not to the next doubling: it
    // holds the round's traffic, and its pages stay mapped for reuse.
    inbox.deliveries.reserve_exact(total);
    let spare = inbox.deliveries.spare_capacity_mut();
    for shard in col.iter_mut() {
        shard.bucket.drain_with(|li, delivery| {
            let slot = counts[li as usize] as usize;
            counts[li as usize] += 1;
            spare[slot].write(delivery);
        });
        // Restore the shard's all-zero histogram for the next round.
        for &li in &shard.touched {
            shard.hist[li as usize] = 0;
        }
        shard.touched.clear();
    }
    // SAFETY: the cursors partition 0..total into disjoint runs (run li
    // starts at its prefix sum and receives exactly hist-sum(li)
    // writes), so every slot in 0..total was written exactly once
    // above, and `reserve_exact(total)` guaranteed the spare capacity.
    unsafe { inbox.deliveries.set_len(total) };

    // After the scatter each cursor sits at its run's end offset; emit
    // the runs and restore the all-zero offset buffer.
    inbox.runs.reserve_exact(active.len());
    for &li in active.iter() {
        inbox.runs.push(Run {
            dest: locals.vertex_at(dst, li),
            local: li,
            end: counts[li as usize],
        });
        counts[li as usize] = 0;
    }
}

/// Fold one pair's flow into the round statistics.
fn apply_flow(stats: &mut RoutingStats, src: usize, dst: usize, flow: &PairFlow) {
    stats.out_buffer_bytes[src] += flow.buffer_bytes;
    stats.in_buffer_bytes[dst] += flow.buffer_bytes;
    stats.net_out_bytes[src] += flow.net_bytes;
    stats.net_in_bytes[dst] += flow.net_bytes;
    stats.local_bytes += flow.local_bytes;
    stats.in_wire[dst] += flow.wire;
    stats.in_tuples[dst] += flow.tuples;
    stats.delivered_tuples += flow.tuples;
    stats.shard_copy_bytes += flow.copy_bytes;
}

/// Route all outboxes into grouped per-worker inboxes — the serial
/// reference implementation of the sender-combining shard-then-merge
/// pipeline. [`RouteGrid`] is the buffer-recycling, pool-dispatching
/// equivalent the engine uses; both produce bit-identical inboxes and
/// statistics. This implementation is deliberately different machinery
/// (fresh per-call buffers, a plain `HashMap` for combining, a stable
/// comparison sort for grouping) so the property tests pin the grid
/// against genuinely independent code.
///
/// * `mirrors`: `Some` in broadcast (Pregel+(mirror)) mode — mirrored
///   vertices pay one wire message per remote mirror worker instead of
///   one per remote neighbor.
/// * `combine`: the profile's combiner — fold envelopes with equal
///   `(dest, combine_key)` at the source worker before "transmission",
///   the way sender-side Pregel combiners work, and charge the folded
///   traffic. Multiplicities sum; payloads merge in send order. Exact
///   payloads ([`Message::EXACT_MERGE`]) fold either way, but without
///   a combiner every sent envelope is still charged.
/// * `msg_bytes`: wire size of one message.
pub fn route<M: Message>(
    mut outboxes: Vec<Outbox<M>>,
    graph: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    mirrors: Option<&MirrorIndex>,
    combine: bool,
    msg_bytes: u64,
) -> (Vec<Inbox<M>>, RoutingStats) {
    use std::collections::HashMap;

    let workers = part.num_workers();
    let mut stats = RoutingStats::new(workers);
    // columns[dst][src]: combined envelope buckets in source order.
    let mut columns: Vec<Vec<Vec<Envelope<M>>>> =
        (0..workers).map(|_| Vec::with_capacity(workers)).collect();

    let env_bytes = std::mem::size_of::<Envelope<M>>() as u64;
    let delivery_bytes = std::mem::size_of::<Delivery<M>>() as u64;
    for (src, outbox) in outboxes.iter_mut().enumerate() {
        // Flat-outbox emit materialisation: one envelope write per
        // send/broadcast entry, independently of combining.
        stats.shard_copy_bytes += (outbox.sends.len() + outbox.broadcasts.len()) as u64 * env_bytes;
        let mut buckets: Vec<Vec<Envelope<M>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut prepaid_net = vec![0u64; workers];
        let mut prepaid_wire = vec![0u64; workers];
        // Tuples per destination as the profile charges them: every
        // deposit's units without a combiner, the folded buckets' units
        // (summed after the loop) with one.
        let mut sent_units = vec![0u64; workers];
        let mut slots: HashMap<(VertexId, u64), usize> = HashMap::new();

        let mut deposit = |buckets: &mut Vec<Vec<Envelope<M>>>,
                           slots: &mut HashMap<(VertexId, u64), usize>,
                           dest: VertexId,
                           msg: &M,
                           mult: u64| {
            let dw = part.owner_of(dest) as usize;
            sent_units[dw] += msg.units();
            if folds::<M>(combine) {
                if let Some(key) = msg.combine_key() {
                    if let Some(&pos) = slots.get(&(dest, key)) {
                        let slot = &mut buckets[dw][pos];
                        slot.msg.merge(msg);
                        slot.mult += mult;
                        return;
                    }
                    slots.insert((dest, key), buckets[dw].len());
                }
            }
            buckets[dw].push(Envelope::new(dest, msg.clone(), mult));
        };

        for env in outbox.sends.drain(..) {
            stats.sent_wire += env.mult;
            deposit(&mut buckets, &mut slots, env.dest, &env.msg, env.mult);
        }
        for (origin, msg, mult) in outbox.broadcasts.drain(..) {
            let degree = graph.degree(origin) as u64;
            stats.sent_wire += degree * mult;
            let fanout = mirrors.and_then(|m| m.fanout(origin));
            if let Some(mirror_workers) = fanout {
                for &mw in mirror_workers {
                    prepaid_net[mw as usize] += msg_bytes * mult;
                }
            }
            for &t in graph.neighbors(origin) {
                let dw = part.owner_of(t) as usize;
                if fanout.is_some() && dw != src {
                    prepaid_wire[dw] += mult;
                }
                deposit(&mut buckets, &mut slots, t, &msg, mult);
            }
        }

        for (dw, bucket) in buckets.into_iter().enumerate() {
            let mut flow = PairFlow::default();
            if !bucket.is_empty() || prepaid_net[dw] != 0 {
                let tuples = if combine {
                    bucket.iter().map(|e| e.msg.units()).sum()
                } else {
                    sent_units[dw]
                };
                // Shard-stage appends, one delivery each: merges never
                // append, so the bucket length is the appended count.
                flow.copy_bytes = bucket.len() as u64 * delivery_bytes;
                let wire: u64 = bucket.iter().map(|e| e.mult).sum();
                let payload_units = if combine { tuples } else { wire };
                let buffer_bytes = payload_units * msg_bytes;
                flow.buffer_bytes = buffer_bytes;
                flow.wire = wire;
                flow.tuples = tuples;
                if dw != src {
                    let prepaid_units = prepaid_wire[dw].min(payload_units);
                    flow.net_bytes =
                        buffer_bytes.saturating_sub(prepaid_units * msg_bytes) + prepaid_net[dw];
                } else {
                    flow.local_bytes = buffer_bytes;
                }
            }
            apply_flow(&mut stats, src, dw, &flow);
            columns[dw].push(bucket);
        }
    }

    // Grouped delivery: concatenate each column in source order and
    // stable-sort by local index (the grid derives the same order from
    // histograms instead).
    let inboxes = columns
        .into_iter()
        .map(|column| {
            let mut all: Vec<Envelope<M>> = column.into_iter().flatten().collect();
            all.sort_by_key(|e| locals.local_of(e.dest)); // stable
            let mut inbox = Inbox::new();
            for env in all {
                let li = locals.local_of(env.dest);
                if inbox.runs.last().map(|r| r.local) != Some(li) {
                    inbox.runs.push(Run {
                        dest: env.dest,
                        local: li,
                        end: inbox.deliveries.len() as u32,
                    });
                }
                inbox.deliveries.push(Delivery {
                    msg: env.msg,
                    mult: env.mult,
                });
                inbox.runs.last_mut().expect("run exists").end = inbox.deliveries.len() as u32;
            }
            inbox
        })
        .collect();
    (inboxes, stats)
}

/// Persistent state of the shard-then-merge pipeline: the
/// workers×workers shard matrix, per-pair flow cells, per-source
/// combining slot maps, and per-destination offset buffers. Owned for
/// the duration of one run and reused every round, so steady-state
/// routing allocates nothing.
pub struct RouteGrid<M> {
    workers: usize,
    /// Row-major shards, `rows[src][dst]` — the layout stage 1 writes.
    rows: Vec<Vec<Shard<M>>>,
    /// Column-major shards, `cols[dst][src]` — the layout stage 2
    /// reads. Shards shuttle between the two layouts via O(workers²)
    /// `Vec`-header moves per round; their heap buffers never move.
    cols: Vec<Vec<Shard<M>>>,
    /// Flow cells, `flows[dst * workers + src]`, written by stage 2 in
    /// disjoint per-destination chunks.
    flows: Vec<PairFlow>,
    /// Per-source wire messages produced, written by stage 1.
    sent: Vec<u64>,
    /// Per-source sender-combining slot maps.
    slots: Vec<SenderSlots>,
    /// Per-destination run-offset buffers (all-zero between rounds).
    counts: Vec<Vec<u32>>,
    /// Per-destination active-local-index scratch.
    active: Vec<Vec<u32>>,
    stats: RoutingStats,
    /// Whether the round [`Self::begin_round`] prepared combines: the
    /// sinks fold at emission exactly when it is set.
    combine: bool,
}

impl<M: Message> RouteGrid<M> {
    /// Build an empty grid for `workers` logical workers.
    pub fn new(workers: usize) -> RouteGrid<M> {
        assert!(workers >= 1);
        RouteGrid {
            workers,
            rows: (0..workers)
                .map(|_| (0..workers).map(|_| Shard::default()).collect())
                .collect(),
            cols: (0..workers)
                .map(|_| (0..workers).map(|_| Shard::default()).collect())
                .collect(),
            flows: vec![PairFlow::default(); workers * workers],
            sent: vec![0; workers],
            slots: (0..workers).map(|_| SenderSlots::default()).collect(),
            counts: (0..workers).map(|_| Vec::new()).collect(),
            active: (0..workers).map(|_| Vec::new()).collect(),
            stats: RoutingStats::new(workers),
            combine: false,
        }
    }

    /// Install a routing policy for subsequent rounds: a no-op, since
    /// [`RoutePolicy`] carries nothing. Kept because the benchmark's
    /// replica calls it.
    pub fn set_policy(&mut self, _policy: RoutePolicy) {}

    /// Route one round of flat traffic: replay each worker's `outboxes`
    /// entry (sends first, then broadcasts) into its
    /// [`ShardedOutbox`] sink and finish the round as the runner does
    /// ([`Self::begin_round`] → [`Self::emit_sinks`] →
    /// [`Self::route_presharded`]). `inboxes` must arrive empty
    /// (capacity is reused); the outboxes are drained in place and keep
    /// their capacity. The one difference from the runner's round is
    /// [`RoutingStats::shard_copy_bytes`], which also counts the flat
    /// outboxes' own writes, one `size_of::<Envelope<M>>()` per entry.
    /// With `pool: Some`, the replay fans out over source workers and
    /// the merge over destination workers; results are identical
    /// either way, and bit-identical to [`route`].
    #[allow(clippy::too_many_arguments)]
    pub fn route_round(
        &mut self,
        pool: Option<&WorkerPool>,
        outboxes: &mut [Outbox<M>],
        inboxes: &mut [Inbox<M>],
        graph: &Graph,
        part: &Partition,
        locals: &LocalIndex,
        mirrors: Option<&MirrorIndex>,
        combine: bool,
        msg_bytes: u64,
    ) -> &RoutingStats {
        assert_eq!(outboxes.len(), self.workers, "one outbox per worker");
        let entries: usize = (outboxes.iter())
            .map(|ob| ob.sends.len() + ob.broadcasts.len())
            .sum();
        self.begin_round(combine, locals);
        let sinks = self.emit_sinks(graph, part, locals, mirrors, msg_bytes);
        dispatch(
            pool,
            outboxes.iter_mut().zip(sinks),
            |_, (outbox, mut sink)| {
                for env in outbox.sends.drain(..) {
                    sink.emit(env);
                }
                for (origin, msg, mult) in outbox.broadcasts.drain(..) {
                    sink.emit_broadcast(origin, msg, mult);
                }
            },
        );
        self.route_presharded(pool, inboxes, locals, msg_bytes, combine);
        self.stats.shard_copy_bytes += (entries * std::mem::size_of::<Envelope<M>>()) as u64;
        &self.stats
    }

    /// Fold-at-send entry point, part 1 of 3: prepare the grid for a
    /// round whose envelopes will be emitted straight into the shard
    /// matrix (via [`Self::emit_sinks`]). Records the round's `combine`
    /// flag, refreshes every shard's destination vertex count and
    /// histogram size, and — when the round folds — advances the
    /// dense fold tables' epoch and clears the slot maps. Call once per
    /// round, before handing out sinks. The benchmark's round-loop
    /// replica drives all three parts, so their signatures stay as
    /// they are.
    pub fn begin_round(&mut self, combine: bool, locals: &LocalIndex) {
        self.combine = combine;
        let fold = folds::<M>(combine);
        for (row, slots) in self.rows.iter_mut().zip(self.slots.iter_mut()) {
            for (dw, shard) in row.iter_mut().enumerate() {
                debug_assert!(
                    shard.bucket.is_empty(),
                    "shard rows must be drained between rounds"
                );
                let nloc = locals.count(dw);
                if shard.hist.len() < nloc {
                    shard.hist.resize(nloc, 0);
                }
                shard.nloc = nloc;
                if fold {
                    shard.fold_round = shard.fold_round.wrapping_add(1);
                    if shard.fold_round == 0 {
                        // Epoch tag wrapped: stale tags from 2^32 rounds
                        // ago would alias the new epoch, so clear them
                        // once.
                        shard.fold_slots.fill(FOLD_SLOT_EMPTY);
                        shard.fold_round = 1;
                    }
                }
            }
            if fold {
                slots.map.clear();
            }
        }
        self.sent.iter_mut().for_each(|s| *s = 0);
    }

    /// Fold-at-send entry point, part 2 of 3: one [`ShardedOutbox`]
    /// emit sink per source worker, in worker order. Each sink borrows
    /// its worker's shard row, slot map, and wire counter disjointly,
    /// so the compute phase can drive all of them in parallel. Valid
    /// for one round, after [`Self::begin_round`].
    pub fn emit_sinks<'a>(
        &'a mut self,
        graph: &'a Graph,
        part: &'a Partition,
        locals: &'a LocalIndex,
        mirrors: Option<&'a MirrorIndex>,
        msg_bytes: u64,
    ) -> impl Iterator<Item = ShardedOutbox<'a, M>> + 'a {
        let combine = self.combine;
        self.rows
            .iter_mut()
            .zip(self.slots.iter_mut())
            .zip(self.sent.iter_mut())
            .enumerate()
            .map(move |(src, ((row, slots), sent))| ShardedOutbox {
                src,
                shards: row.as_mut_slice(),
                slots,
                sent,
                graph,
                part,
                locals,
                mirrors,
                combine,
                msg_bytes,
            })
    }

    /// Fold-at-send entry point, part 3 of 3: finish the round after
    /// the compute phase filled the shard matrix through its sinks.
    /// Takes every pair's flow from its shard's counters (the stage-1
    /// epilogue), transposes the shard matrix, merges each
    /// destination's column into its grouped inbox (stage 2), transposes
    /// back and folds the per-pair flows into the round's
    /// [`RoutingStats`]. The round combines as [`Self::begin_round`]
    /// said; `combine` must repeat that flag and stays in the signature
    /// because the benchmark calls it.
    pub fn route_presharded(
        &mut self,
        pool: Option<&WorkerPool>,
        inboxes: &mut [Inbox<M>],
        locals: &LocalIndex,
        msg_bytes: u64,
        combine: bool,
    ) -> &RoutingStats {
        let workers = self.workers;
        assert_eq!(inboxes.len(), workers, "one inbox per worker");
        debug_assert_eq!(combine, self.combine, "combine flag changed mid-round");
        let combine = self.combine;

        // ---- stage-1 epilogue + transpose: the shards counted their
        // traffic as it arrived, so each pair's flow is a few moves —
        // W² of them, cheaper inline than one more hand-off to the
        // pool — and each destination gets its shard column ----------
        for (src, row) in self.rows.iter_mut().enumerate() {
            for (dst, shard) in row.iter_mut().enumerate() {
                finish_shard(src, dst, shard, combine, msg_bytes);
                self.cols[dst][src] = std::mem::take(shard);
            }
        }

        // ---- stage 2: grouped merge, parallel over destinations ----
        let columns = self
            .cols
            .iter_mut()
            .zip(inboxes.iter_mut())
            .zip(self.flows.chunks_mut(workers))
            .zip(self.counts.iter_mut())
            .zip(self.active.iter_mut());
        dispatch(
            pool,
            columns,
            |dst, ((((col, inbox), flows), counts), active)| {
                merge_column(dst, col, locals, counts, active, inbox, flows);
            },
        );

        // ---- transpose back: return drained shards (and their
        // capacity) to the stage-1 layout for the next round ---------
        for (dst, col) in self.cols.iter_mut().enumerate() {
            for (src, shard) in col.iter_mut().enumerate() {
                self.rows[src][dst] = std::mem::take(shard);
            }
        }

        // ---- reduction: fold per-pair flows into round stats -------
        self.stats.reset();
        self.stats.sent_wire = self.sent.iter().sum();
        for src in 0..workers {
            for dst in 0..workers {
                let flow = self.flows[dst * workers + src];
                apply_flow(&mut self.stats, src, dst, &flow);
            }
        }
        // Conservation: nothing is dropped between emission and
        // delivery.
        debug_assert_eq!(
            self.stats.sent_wire,
            self.stats.delivered_wire(),
            "routing must deliver every wire message"
        );
        &self.stats
    }
}

/// Per-source emit sink of the fold-at-send path: `send()`/`broadcast()`
/// land here and are routed straight into the destination worker's
/// shard — probing the fold table at emission time — so folded
/// envelopes are never written anywhere and survivors are written
/// exactly once. Broadcasts expand here too, mirrored ones paying their
/// wire cost per mirror worker in advance. The runner's compute phase
/// and [`RouteGrid::route_round`]'s flat-outbox replay both emit
/// through it, so it is the one shard stage.
///
/// Obtained from [`RouteGrid::emit_sinks`] after
/// [`RouteGrid::begin_round`]; handed to the compute phase as its
/// [`EmitSink`].
pub struct ShardedOutbox<'a, M: Message> {
    src: usize,
    shards: &'a mut [Shard<M>],
    slots: &'a mut SenderSlots,
    sent: &'a mut u64,
    graph: &'a Graph,
    part: &'a Partition,
    locals: &'a LocalIndex,
    mirrors: Option<&'a MirrorIndex>,
    /// The round's combining flag.
    combine: bool,
    msg_bytes: u64,
}

impl<M: Message> EmitSink<M> for ShardedOutbox<'_, M> {
    #[inline]
    fn emit(&mut self, env: Envelope<M>) {
        *self.sent += env.mult;
        push_send(
            env,
            self.part,
            self.locals,
            self.combine,
            self.shards,
            self.slots,
        );
    }

    fn emit_broadcast(&mut self, origin: VertexId, msg: M, mult: u64) {
        let degree = self.graph.degree(origin) as u64;
        *self.sent += degree * mult;
        match self.mirrors.and_then(|m| m.fanout(origin)) {
            Some(mirror_workers) => {
                // One wire transfer per remote mirror worker replaces
                // the per-neighbor wire cost of all remote fan-outs.
                for &mw in mirror_workers {
                    self.shards[mw as usize].prepaid_net += self.msg_bytes * mult;
                }
                for &t in self.graph.neighbors(origin) {
                    let dw = self.part.owner_of(t) as usize;
                    if dw != self.src {
                        self.shards[dw].prepaid_wire += mult;
                    }
                    push_broadcast(
                        t,
                        &msg,
                        mult,
                        dw,
                        self.locals,
                        self.combine,
                        self.shards,
                        self.slots,
                    );
                }
            }
            // Unmirrored broadcast: ordinary per-neighbor sends.
            None => {
                for &t in self.graph.neighbors(origin) {
                    let dw = self.part.owner_of(t) as usize;
                    push_broadcast(
                        t,
                        &msg,
                        mult,
                        dw,
                        self.locals,
                        self.combine,
                        self.shards,
                        self.slots,
                    );
                }
            }
        }
    }
}

impl<M: Message> std::fmt::Debug for ShardedOutbox<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOutbox")
            .field("src", &self.src)
            .finish()
    }
}

impl<M> std::fmt::Debug for RouteGrid<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteGrid")
            .field("workers", &self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Outbox;
    use mtvc_graph::generators;
    use mtvc_graph::partition::{Partitioner, RangePartitioner};

    #[derive(Clone, Debug, PartialEq)]
    struct Src(u32);
    impl Message for Src {
        fn combine_key(&self) -> Option<u64> {
            Some(self.0 as u64)
        }
        fn merge(&mut self, _o: &Self) {}
    }

    fn two_worker_setup() -> (mtvc_graph::Graph, Partition, LocalIndex) {
        let g = generators::ring(8, true);
        let p = RangePartitioner.partition(&g, 2);
        let l = LocalIndex::build(&p);
        (g, p, l)
    }

    #[test]
    fn p2p_local_vs_network() {
        let (g, p, l) = two_worker_setup();
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.sends.push(Envelope::new(1, Src(0), 1)); // 0 -> w0 local
        ob0.sends.push(Envelope::new(5, Src(0), 2)); // 0 -> w1 remote
        let ob1: Outbox<Src> = Outbox::new();
        let (inboxes, stats) = route(vec![ob0, ob1], &g, &p, &l, None, false, 16);
        assert_eq!(stats.sent_wire, 3);
        assert_eq!(stats.local_bytes, 16);
        assert_eq!(stats.net_out_bytes, vec![32, 0]);
        assert_eq!(stats.net_in_bytes, vec![0, 32]);
        assert_eq!(inboxes[0].len(), 1);
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(stats.in_wire, vec![1, 2]);
    }

    #[test]
    fn combining_merges_same_dest_and_key() {
        let (g, p, l) = two_worker_setup();
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.sends.push(Envelope::new(5, Src(7), 2));
        ob0.sends.push(Envelope::new(5, Src(7), 3));
        ob0.sends.push(Envelope::new(5, Src(8), 1)); // different key
        let (inboxes, stats) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, true, 16);
        assert_eq!(stats.sent_wire, 6);
        assert_eq!(stats.delivered_tuples, 2);
        assert_eq!(stats.in_wire[1], 6);
        assert_eq!(stats.in_tuples[1], 2);
        // Combined transmission: 2 tuples * 16 bytes.
        assert_eq!(stats.net_in_bytes[1], 32);
        let mults: Vec<u64> = inboxes[1].deliveries().iter().map(|d| d.mult).collect();
        assert_eq!(mults.iter().sum::<u64>(), 6);
        // Sender combining keeps first-send order: Src(7) then Src(8).
        assert_eq!(inboxes[1].deliveries()[0].mult, 5);
        assert_eq!(inboxes[1].deliveries()[1].mult, 1);
    }

    /// A folded lane envelope is `popcount(mask)` tuples and tuple
    /// bytes, a scalar message one — on the serial oracle and the grid
    /// alike.
    #[test]
    fn folded_lane_envelope_counts_its_live_lanes() {
        #[derive(Clone, Debug, PartialEq)]
        struct Lanes {
            chunk: u32,
            mask: u8,
        }
        impl Message for Lanes {
            fn combine_key(&self) -> Option<u64> {
                Some(self.chunk as u64)
            }
            fn merge(&mut self, o: &Self) {
                self.mask |= o.mask;
            }
            fn units(&self) -> u64 {
                self.mask.count_ones() as u64
            }
        }
        let lanes = |chunk, mask: u8| Lanes { chunk, mask };
        let (g, p, l) = two_worker_setup();
        let make_outboxes = || {
            let mut ob0: Outbox<Lanes> = Outbox::new();
            // Same (dest, chunk): folds to mask 0b0111 = 3 units.
            ob0.sends.push(Envelope::new(5, lanes(0, 0b0011), 2));
            ob0.sends.push(Envelope::new(5, lanes(0, 0b0110), 2));
            ob0.sends.push(Envelope::new(5, lanes(1, 0b0001), 1)); // other chunk
            ob0.sends.push(Envelope::new(1, lanes(0, 0b1111), 4)); // local
            vec![ob0, Outbox::new()]
        };
        for combine in [false, true] {
            let (inboxes, stats) = route(make_outboxes(), &g, &p, &l, None, combine, 16);
            assert_eq!(stats.sent_wire, 9);
            assert_eq!(stats.in_wire, vec![4, 5]);
            // Unfolded envelopes are their multiplicity in units; the
            // fold dedups the lane both envelopes carried.
            let remote = if combine { 3 + 1 } else { 2 + 2 + 1 };
            assert_eq!(stats.in_tuples, vec![4, remote], "combine={combine}");
            assert_eq!(stats.delivered_tuples, 4 + remote);
            assert_eq!(stats.net_in_bytes[1], remote * 16);
            assert_eq!(stats.local_bytes, 4 * 16);
            assert_eq!(inboxes[1].len(), if combine { 2 } else { 3 }, "envelopes");

            let mut grid: RouteGrid<Lanes> = RouteGrid::new(2);
            let mut outboxes = make_outboxes();
            let mut grid_in: Vec<Inbox<Lanes>> = (0..2).map(|_| Inbox::new()).collect();
            let grid_stats = grid.route_round(
                None,
                &mut outboxes,
                &mut grid_in,
                &g,
                &p,
                &l,
                None,
                combine,
                16,
            );
            assert_eq!(grid_stats, &stats, "combine={combine}");
            assert_eq!(grid_in, inboxes, "combine={combine}");
        }

        // A scalar message still contributes exactly one tuple.
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.sends.push(Envelope::new(5, Src(7), 5));
        let (_, stats) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, true, 16);
        assert_eq!(stats.delivered_tuples, 1);
        assert_eq!(stats.net_in_bytes[1], 16);
    }

    /// An exact payload folds on a non-combining round — one delivery
    /// per `(dest, key)` per source — yet is charged every envelope it
    /// was sent: its statistics are its plain twin's but for the bucket
    /// appends the folds saved. Serial oracle and grid alike.
    #[test]
    fn exact_payload_folds_but_is_charged_unfolded() {
        #[derive(Clone, Debug, PartialEq)]
        struct Min<const EXACT: bool> {
            key: u32,
            val: u64,
        }
        impl<const EXACT: bool> Message for Min<EXACT> {
            const EXACT_MERGE: bool = EXACT;
            fn combine_key(&self) -> Option<u64> {
                Some(self.key as u64)
            }
            fn merge(&mut self, o: &Self) {
                self.val = self.val.min(o.val);
            }
        }
        fn outboxes<const EXACT: bool>() -> Vec<Outbox<Min<EXACT>>> {
            let min = |key, val| Min::<EXACT> { key, val };
            let mut ob0 = Outbox::new();
            ob0.sends.push(Envelope::new(5, min(7, 9), 2));
            ob0.sends.push(Envelope::new(5, min(7, 4), 3)); // folds
            ob0.sends.push(Envelope::new(5, min(8, 1), 1)); // other key
            ob0.sends.push(Envelope::new(1, min(7, 6), 1)); // local
            ob0.sends.push(Envelope::new(1, min(7, 2), 1)); // folds
            let mut ob1 = Outbox::new();
            ob1.sends.push(Envelope::new(5, min(7, 3), 1)); // other source
            vec![ob0, ob1]
        }
        let (g, p, l) = two_worker_setup();
        let (plain_in, plain) = route(outboxes::<false>(), &g, &p, &l, None, false, 16);
        let (exact_in, exact) = route(outboxes::<true>(), &g, &p, &l, None, false, 16);
        assert_eq!((plain_in[0].len(), plain_in[1].len()), (2, 4));
        let folded: Vec<(u32, u64, u64)> = exact_in
            .iter()
            .flat_map(|i| i.deliveries())
            .map(|d| (d.msg.key, d.msg.val, d.mult))
            .collect();
        assert_eq!(folded, vec![(7, 2, 2), (7, 4, 5), (8, 1, 1), (7, 3, 1)]);

        let saved = 2 * std::mem::size_of::<Delivery<Min<true>>>() as u64;
        assert_eq!(exact.shard_copy_bytes + saved, plain.shard_copy_bytes);
        let scrub = |s: &RoutingStats| RoutingStats {
            shard_copy_bytes: 0,
            ..s.clone()
        };
        assert_eq!(scrub(&exact), scrub(&plain));
        assert_eq!(exact.delivered_tuples, 6, "every sent envelope");

        let mut grid: RouteGrid<Min<true>> = RouteGrid::new(2);
        let mut inboxes: Vec<Inbox<Min<true>>> = (0..2).map(|_| Inbox::new()).collect();
        let mut obs = outboxes::<true>();
        let stats = grid.route_round(None, &mut obs, &mut inboxes, &g, &p, &l, None, false, 16);
        assert_eq!(stats, &exact);
        assert_eq!(inboxes, exact_in);
    }

    #[test]
    fn fold_table_cap_falls_back_to_hash_map() {
        #[derive(Clone, Debug, PartialEq)]
        struct Key64(u64);
        impl Message for Key64 {
            fn combine_key(&self) -> Option<u64> {
                Some(self.0)
            }
            fn merge(&mut self, _o: &Self) {}
        }
        let (g, p, l) = two_worker_setup();
        // Row start past the dense cap, and a key whose row offset
        // overflows `usize` outright: both must combine via the
        // sender's hash-map fallback, interleaved with a dense key.
        let past_cap = DENSE_FOLD_SLOTS_MAX as u64 + 3;
        let mut ob0: Outbox<Key64> = Outbox::new();
        ob0.sends.push(Envelope::new(5, Key64(past_cap), 2));
        ob0.sends.push(Envelope::new(5, Key64(7), 1)); // dense row
        ob0.sends.push(Envelope::new(5, Key64(past_cap), 3));
        ob0.sends.push(Envelope::new(5, Key64(u64::MAX), 1));
        ob0.sends.push(Envelope::new(5, Key64(u64::MAX), 4));
        ob0.sends.push(Envelope::new(5, Key64(7), 2));
        let (inboxes, stats) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, true, 16);
        assert_eq!(stats.sent_wire, 13);
        assert_eq!(stats.delivered_tuples, 3, "three distinct keys");
        // First-send order with per-key mult sums, dense and fallback
        // keys folding independently.
        let folded: Vec<(u64, u64)> = inboxes[1]
            .deliveries()
            .iter()
            .map(|d| (d.msg.0, d.mult))
            .collect();
        assert_eq!(folded, vec![(past_cap, 5), (7, 3), (u64::MAX, 5)]);
    }

    #[test]
    fn without_combining_bytes_charge_every_wire_message() {
        let (g, p, l) = two_worker_setup();
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.sends.push(Envelope::new(5, Src(7), 5));
        let (_, stats) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, false, 16);
        assert_eq!(stats.net_in_bytes[1], 80);
    }

    #[test]
    fn unmirrored_broadcast_expands_per_neighbor() {
        let (g, p, l) = two_worker_setup();
        let mut ob0: Outbox<Src> = Outbox::new();
        // Vertex 0's neighbors on the ring: 1 (w0) and 7 (w1).
        ob0.broadcasts.push((0, Src(0), 1));
        let (inboxes, stats) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, false, 16);
        assert_eq!(stats.sent_wire, 2);
        assert_eq!(inboxes[0].len(), 1);
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(stats.net_out_bytes[0], 16);
    }

    #[test]
    fn mirrored_broadcast_saves_network_bytes() {
        // Star: hub 0 with 16 leaves, 4 workers. Hub degree 16.
        let g = generators::star(17);
        let p = RangePartitioner.partition(&g, 4);
        let l = LocalIndex::build(&p);
        let idx = MirrorIndex::build(&g, &p, 4);
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.broadcasts.push((0, Src(0), 1));
        let mut obs = vec![ob0];
        obs.extend((1..4).map(|_| Outbox::new()));
        let (inboxes, stats) = route(obs, &g, &p, &l, Some(&idx), false, 16);
        // All 16 leaves receive a message.
        let delivered: usize = inboxes.iter().map(|i| i.len()).sum();
        assert_eq!(delivered, 16);
        assert_eq!(stats.sent_wire, 16);
        // Network bytes: one transfer per remote mirror worker (3),
        // not one per remote neighbor (~12).
        let total_net: u64 = stats.net_out_bytes.iter().sum();
        assert_eq!(total_net, 3 * 16);
    }

    #[test]
    fn mirrored_and_plain_traffic_coexist() {
        let g = generators::star(17);
        let p = RangePartitioner.partition(&g, 4);
        let l = LocalIndex::build(&p);
        let idx = MirrorIndex::build(&g, &p, 4);
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.broadcasts.push((0, Src(0), 1));
        ob0.sends.push(Envelope::new(16, Src(9), 1)); // plain remote send
        let mut obs = vec![ob0];
        obs.extend((1..4).map(|_| Outbox::new()));
        let (_, stats) = route(obs, &g, &p, &l, Some(&idx), false, 16);
        // 3 mirror transfers + 1 plain remote send.
        let total_net: u64 = stats.net_out_bytes.iter().sum();
        assert_eq!(total_net, 4 * 16);
        assert_eq!(stats.sent_wire, 17);
    }

    #[test]
    fn combining_preserves_uncombinable() {
        #[derive(Clone, Debug, PartialEq)]
        struct NoKey;
        impl Message for NoKey {
            fn combine_key(&self) -> Option<u64> {
                None
            }
            fn merge(&mut self, _o: &Self) {}
        }
        let (g, p, l) = two_worker_setup();
        let mut ob0: Outbox<NoKey> = Outbox::new();
        ob0.sends.push(Envelope::new(1, NoKey, 1));
        ob0.sends.push(Envelope::new(1, NoKey, 1));
        ob0.sends.push(Envelope::new(1, NoKey, 1));
        let (inboxes, stats) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, true, 16);
        assert_eq!(stats.delivered_tuples, 3);
        assert_eq!(inboxes[0].len(), 3);
    }

    #[test]
    fn combining_max_key_does_not_merge_with_unkeyed() {
        // Messages whose combine key is Some(u64::MAX) must all merge
        // even when unkeyed envelopes arrive between them, and the
        // unkeyed ones must stay distinct.
        #[derive(Clone, Debug, PartialEq)]
        struct MaybeKey(Option<u64>);
        impl Message for MaybeKey {
            fn combine_key(&self) -> Option<u64> {
                self.0
            }
            fn merge(&mut self, _o: &Self) {}
        }
        let (g, p, l) = two_worker_setup();
        let mut ob0: Outbox<MaybeKey> = Outbox::new();
        for msg in [
            MaybeKey(Some(u64::MAX)),
            MaybeKey(None),
            MaybeKey(Some(u64::MAX)),
            MaybeKey(None),
            MaybeKey(Some(u64::MAX)),
        ] {
            ob0.sends.push(Envelope::new(1, msg, 1));
        }
        let (inboxes, _) = route(vec![ob0, Outbox::new()], &g, &p, &l, None, true, 16);
        // 1 merged MAX-keyed delivery (mult 3) + 2 unkeyed kept verbatim.
        assert_eq!(inboxes[0].len(), 3);
        let max_keyed: Vec<&Delivery<MaybeKey>> = inboxes[0]
            .deliveries()
            .iter()
            .filter(|d| d.msg.0.is_some())
            .collect();
        assert_eq!(max_keyed.len(), 1);
        assert_eq!(max_keyed[0].mult, 3);
    }

    #[test]
    fn deterministic_routing_order() {
        let (g, p, l) = two_worker_setup();
        let make = || {
            let mut ob0: Outbox<Src> = Outbox::new();
            ob0.sends.push(Envelope::new(5, Src(1), 1));
            ob0.sends.push(Envelope::new(6, Src(2), 1));
            let mut ob1: Outbox<Src> = Outbox::new();
            ob1.sends.push(Envelope::new(5, Src(3), 1));
            route(vec![ob0, ob1], &g, &p, &l, None, false, 8)
        };
        let (a, _) = make();
        let (b, _) = make();
        assert_eq!(a, b);
    }

    #[test]
    fn runs_are_grouped_and_ascending() {
        let (g, p, l) = two_worker_setup();
        // Worker 1 owns vertices 4..8; interleave traffic to 5 and 7.
        let mut ob0: Outbox<Src> = Outbox::new();
        ob0.sends.push(Envelope::new(7, Src(1), 1));
        ob0.sends.push(Envelope::new(5, Src(2), 1));
        ob0.sends.push(Envelope::new(7, Src(3), 1));
        let mut ob1: Outbox<Src> = Outbox::new();
        ob1.sends.push(Envelope::new(5, Src(4), 1));
        let (inboxes, _) = route(vec![ob0, ob1], &g, &p, &l, None, false, 8);
        let runs: Vec<(VertexId, u32, Vec<u32>)> = inboxes[1]
            .iter_runs()
            .map(|(dest, li, ds)| (dest, li, ds.iter().map(|d| d.msg.0).collect()))
            .collect();
        // Ascending local index; within a run, source order then send
        // order: vertex 5 hears Src(2) from w0 before Src(4) from w1.
        assert_eq!(runs, vec![(5, 1, vec![2, 4]), (7, 3, vec![1, 3])]);
    }

    #[test]
    fn grid_matches_serial_route_with_and_without_pool() {
        let g = generators::star(17);
        let p = RangePartitioner.partition(&g, 4);
        let l = LocalIndex::build(&p);
        let idx = MirrorIndex::build(&g, &p, 4);
        let make_outboxes = || {
            let mut ob0: Outbox<Src> = Outbox::new();
            ob0.broadcasts.push((0, Src(0), 1));
            ob0.sends.push(Envelope::new(16, Src(9), 2));
            ob0.sends.push(Envelope::new(16, Src(9), 3));
            let mut obs = vec![ob0];
            obs.extend((1..4).map(|_| Outbox::new()));
            obs
        };
        for combine in [false, true] {
            let (want_in, want_stats) = route(make_outboxes(), &g, &p, &l, Some(&idx), combine, 16);
            for pooled in [false, true] {
                let pool = pooled.then(|| WorkerPool::new(4));
                let mut grid: RouteGrid<Src> = RouteGrid::new(4);
                let mut outboxes = make_outboxes();
                let mut inboxes: Vec<Inbox<Src>> = (0..4).map(|_| Inbox::new()).collect();
                let stats = grid.route_round(
                    pool.as_ref(),
                    &mut outboxes,
                    &mut inboxes,
                    &g,
                    &p,
                    &l,
                    Some(&idx),
                    combine,
                    16,
                );
                assert_eq!(stats, &want_stats, "combine={combine} pooled={pooled}");
                assert_eq!(inboxes, want_in, "combine={combine} pooled={pooled}");
            }
        }
    }

    #[test]
    fn inbox_clone_from_grows_to_exactly_the_source() {
        // Past a doubling of the short destination's capacity.
        const N: usize = 1_025;
        let mut src: Inbox<Src> = Inbox::new();
        src.deliveries.extend((0..N as u32).map(|i| Delivery {
            msg: Src(i),
            mult: 1,
        }));
        src.runs.push(Run {
            dest: 0,
            local: 0,
            end: N as u32,
        });
        let short = Inbox {
            deliveries: Vec::with_capacity(600),
            runs: Vec::new(),
        };
        for (case, mut dst) in [("empty", Inbox::new()), ("short", short)] {
            dst.clone_from(&src);
            assert_eq!(dst, src, "{case}");
            assert_eq!(dst.deliveries.capacity(), N, "{case}");
        }
    }

    #[test]
    fn bucket_blocks_hold_under_one_spare_block() {
        let mut bucket: Bucket<Src> = Bucket::default();
        let fill = |bucket: &mut Bucket<Src>, range: std::ops::Range<u32>| {
            for i in range {
                bucket.push(
                    i,
                    Delivery {
                        msg: Src(i),
                        mult: 1,
                    },
                );
            }
        };
        fill(&mut bucket, 0..3);
        let cap = bucket.open.deliveries.capacity();
        assert_eq!(cap, 4, "a short bucket stays small");

        let n = 2 * BLOCK as u32 + 3;
        fill(&mut bucket, 3..n);
        assert_eq!(bucket.len(), n as usize);
        // One position in a closed block, one in the open block.
        bucket.get_mut(BLOCK as u32 + 1).mult = 7;
        bucket.get_mut(n - 1).mult = 9;
        let closed: usize = bucket.full.iter().map(|b| b.deliveries.capacity()).sum();
        let cap = closed + bucket.open.deliveries.capacity();
        assert_eq!(cap, 3 * BLOCK, "first block capped, later blocks whole");

        let mut seen = Vec::new();
        bucket.drain_with(|li, d| seen.push((li, d.msg.0, d.mult)));
        let mult = |i| match i {
            i if i == BLOCK as u32 + 1 => 7,
            i if i == n - 1 => 9,
            _ => 1,
        };
        let want: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, i, mult(i))).collect();
        assert_eq!(seen, want, "append order across blocks");
        assert!(bucket.is_empty());
        assert_eq!(
            bucket.spare.len(),
            2,
            "closed blocks kept for the next round"
        );

        // The next round refills the kept blocks without allocating one.
        fill(&mut bucket, 0..n);
        assert!(bucket.spare.is_empty());
        assert_eq!(bucket.len(), n as usize);
    }

    #[test]
    fn grid_reuses_buffers_across_rounds() {
        let (g, p, l) = two_worker_setup();
        let mut grid: RouteGrid<Src> = RouteGrid::new(2);
        let mut inboxes: Vec<Inbox<Src>> = (0..2).map(|_| Inbox::new()).collect();
        for round in 0..3 {
            let mut obs: Vec<Outbox<Src>> = vec![Outbox::new(), Outbox::new()];
            for d in 0..8u32 {
                obs[0].sends.push(Envelope::new(d, Src(d), 1));
            }
            let stats = grid.route_round(None, &mut obs, &mut inboxes, &g, &p, &l, None, false, 8);
            assert_eq!(stats.sent_wire, 8, "round {round}");
            assert!(obs.iter().all(|o| o.sends.is_empty()), "outboxes drained");
            let delivered: usize = inboxes.iter().map(|i| i.len()).sum();
            assert_eq!(delivered, 8);
            inboxes.iter_mut().for_each(|i| i.clear());
        }
    }
}
