//! Batch Personalized PageRank (BPPR).
//!
//! §2.3: "The Batch Personalized PageRanks computes PPR(s) for each node
//! s ∈ V… each PPR is approximated by running α-decay random walks";
//! the workload is the number `W` of walks per source.
//!
//! Two algorithms, mirroring §3:
//!
//! * **Monte-Carlo** ([`BpprSlabProgram`]) — the Pregel point-to-point
//!   method. Each round is one walk step; a message carries the walk's
//!   source id. Walks are moved in **aggregated form**: an envelope
//!   with multiplicity `c` stands for `c` individual walks, the stop
//!   events are `Binomial(c, α)` and the survivors spread over the
//!   neighbors with a uniform multinomial — exactly the distribution of
//!   `c` independent walks, while the cost accounting still charges `c`
//!   wire messages.
//! * **Forward-push** ([`BpprPushSlabProgram`]) — the Pregel-Mirror
//!   broadcast variant: the "generalized random walk" (fractional
//!   forward-push) of §3, where a vertex broadcasts one common message
//!   per source and the walk mass is split evenly among neighbors.
//!   Deterministic and unbiased.
//!
//! The slab kernels store per-source state in a dense row indexed by
//! **source slot** (see [`SourceSet::slot_of`]): stop counters for the
//! Monte-Carlo walk, `(mass, residue)` cells for the push. The push is
//! *in place* — incoming mass accumulates into the residue cell and the
//! frontier bitset marks which slots to settle, so a round touches only
//! the sources that actually received mass. Walks draw the context
//! RNG in inbox order, so no sequential reference reproduces them bit
//! for bit; property tests check per-source conservation and the
//! estimates against exact PPR instead.

use mtvc_engine::{Context, Delivery, Message, SlabProgram, SlabRow, SlabRowMut};
use mtvc_graph::hash::FastMap;
use mtvc_graph::VertexId;

/// Which vertices start walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSet {
    /// Every vertex is a PPR source (the paper's default BPPR).
    AllVertices,
    /// An explicit source subset (§4.9 "Alternative Workload Settings").
    Subset(Vec<VertexId>),
}

impl SourceSet {
    /// Normalize: subsets are sorted and deduplicated.
    pub fn subset(mut sources: Vec<VertexId>) -> SourceSet {
        sources.sort_unstable();
        sources.dedup();
        SourceSet::Subset(sources)
    }

    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            SourceSet::AllVertices => true,
            SourceSet::Subset(s) => s.binary_search(&v).is_ok(),
        }
    }

    /// Number of sources given the graph's vertex count.
    pub fn len(&self, num_vertices: usize) -> usize {
        match self {
            SourceSet::AllVertices => num_vertices,
            SourceSet::Subset(s) => s.len(),
        }
    }

    pub fn is_empty(&self, num_vertices: usize) -> bool {
        self.len(num_vertices) == 0
    }

    /// Dense slab slot of source `v`: its rank in the sorted source
    /// list (`v` itself for [`SourceSet::AllVertices`]). `None` when
    /// `v` is not a source. Slot order equals source-id order, so slab
    /// drains settle sources in ascending id order.
    pub fn slot_of(&self, v: VertexId) -> Option<usize> {
        match self {
            SourceSet::AllVertices => Some(v as usize),
            SourceSet::Subset(s) => s.binary_search(&v).ok(),
        }
    }

    /// Inverse of [`SourceSet::slot_of`].
    pub fn source_at(&self, slot: usize) -> VertexId {
        match self {
            SourceSet::AllVertices => slot as VertexId,
            SourceSet::Subset(s) => s[slot],
        }
    }

    /// The sources as a slab program's round-0 seed list: the subset,
    /// or `None` (every vertex) for [`SourceSet::AllVertices`].
    fn seeds(&self) -> Option<&[VertexId]> {
        match self {
            SourceSet::AllVertices => None,
            SourceSet::Subset(s) => Some(s),
        }
    }
}

/// Wire message of the Monte-Carlo walk: the walk's source. The
/// envelope multiplicity is the number of walks taking the same hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkMsg {
    pub source: VertexId,
}

impl Message for WalkMsg {
    // Not `EXACT_MERGE`: a merged count draws its walks' steps from one
    // RNG stream where two deliveries would draw from it twice.
    fn combine_key(&self) -> Option<u64> {
        Some(self.source as u64)
    }
    fn merge(&mut self, _other: &Self) {}
}

/// Per-vertex BPPR state: how many walks of each source stopped here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BpprState {
    pub stops: FastMap<VertexId, u64>,
}

/// Monte-Carlo BPPR on a dense state slab: one `u64` stop counter per
/// `(vertex, source-slot)`.
#[derive(Debug, Clone)]
pub struct BpprSlabProgram {
    /// Walks per source in this batch (the paper's workload unit).
    pub walks_per_node: u64,
    /// Decay probability α (walk stops with probability α per step).
    pub alpha: f64,
    /// Walk sources.
    pub sources: SourceSet,
    num_vertices: usize,
}

impl BpprSlabProgram {
    /// `num_vertices` sizes the slab row for [`SourceSet::AllVertices`].
    pub fn new(walks_per_node: u64, alpha: f64, num_vertices: usize) -> BpprSlabProgram {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        BpprSlabProgram {
            walks_per_node,
            alpha,
            sources: SourceSet::AllVertices,
            num_vertices,
        }
    }

    pub fn with_sources(mut self, sources: SourceSet) -> Self {
        self.sources = sources;
        self
    }

    /// Step `count` walks of `source` standing at the context vertex:
    /// stop some, spread the rest.
    fn step_walks(
        &self,
        source: VertexId,
        count: u64,
        row: &mut SlabRowMut<'_, u64>,
        ctx: &mut Context<'_, WalkMsg>,
    ) {
        if count == 0 {
            return;
        }
        let degree = ctx.degree();
        let stopped = if degree == 0 {
            count // dangling vertices absorb their walks
        } else {
            crate::sampling::binomial(ctx.rng(), count, self.alpha)
        };
        if stopped > 0 {
            let slot = self.sources.slot_of(source).expect("walk from non-source");
            *row.cell_mut(slot) += stopped;
        }
        let moving = count - stopped;
        if moving == 0 {
            return;
        }
        ctx.send_uniform_spread(WalkMsg { source }, moving);
    }
}

impl SlabProgram for BpprSlabProgram {
    type Message = WalkMsg;
    type Cell = u64;
    type Out = BpprState;

    fn width(&self) -> usize {
        self.sources.len(self.num_vertices)
    }

    fn empty_cell(&self) -> u64 {
        0
    }

    fn message_bytes(&self) -> u64 {
        16 // source id + walk bookkeeping (a constant number of ints)
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.sources.seeds()
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, WalkMsg>) {
        if self.sources.contains(v) {
            self.step_walks(v, self.walks_per_node, &mut row, ctx);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<WalkMsg>],
        ctx: &mut Context<'_, WalkMsg>,
    ) {
        for d in inbox {
            self.step_walks(d.msg.source, d.mult, &mut row, ctx);
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> BpprState {
        let mut state = BpprState::default();
        for (slot, count) in row.written() {
            if count > 0 {
                state.stops.insert(self.sources.source_at(slot), count);
            }
        }
        state
    }
}

/// Accumulated BPPR output across one or more batches.
#[derive(Debug, Clone, Default)]
pub struct BpprEstimates {
    /// stops[v][s] = walks from source s that stopped at v.
    stops: Vec<FastMap<VertexId, u64>>,
    /// Total walks per source accumulated so far.
    walks_per_source: u64,
}

impl BpprEstimates {
    pub fn new(num_vertices: usize) -> BpprEstimates {
        BpprEstimates {
            stops: vec![FastMap::default(); num_vertices],
            walks_per_source: 0,
        }
    }

    /// Fold one batch's final states in (aggregation across batches —
    /// the residual-memory-relevant intermediate results of §4.5).
    pub fn absorb(&mut self, states: Vec<BpprState>, walks_per_source: u64) {
        assert_eq!(states.len(), self.stops.len());
        for (v, st) in states.into_iter().enumerate() {
            for (s, c) in st.stops {
                *self.stops[v].entry(s).or_insert(0) += c;
            }
        }
        self.walks_per_source += walks_per_source;
    }

    /// Estimated PPR of `target` personalised to `source`.
    pub fn ppr(&self, source: VertexId, target: VertexId) -> f64 {
        if self.walks_per_source == 0 {
            return 0.0;
        }
        let hits = self.stops[target as usize]
            .get(&source)
            .copied()
            .unwrap_or(0);
        hits as f64 / self.walks_per_source as f64
    }

    /// Total stopped walks across all vertices and sources.
    pub fn total_stopped(&self) -> u64 {
        self.stops.iter().map(|m| m.values().sum::<u64>()).sum()
    }

    /// Memory footprint of the accumulated intermediate results — the
    /// residual-memory contribution this batch output adds (§4.5, §5).
    pub fn residual_bytes(&self) -> u64 {
        self.stops.iter().map(|m| 48 + m.len() as u64 * 16).sum()
    }

    pub fn walks_per_source(&self) -> u64 {
        self.walks_per_source
    }
}

// ---------------------------------------------------------------------
// Forward-push (Pregel-Mirror) variant
// ---------------------------------------------------------------------

/// Broadcast message of the fractional walk: per-neighbor walk mass of
/// one source ("the number of random walks received at that particular
/// neighbor is (1−α)·r/d" — §3).
#[derive(Debug, Clone, PartialEq)]
pub struct PushMsg {
    pub source: VertexId,
    pub amount: f64,
}

impl Message for PushMsg {
    // Not `EXACT_MERGE`: a merged amount reorders the float sum.
    fn combine_key(&self) -> Option<u64> {
        Some(self.source as u64)
    }
    fn merge(&mut self, other: &Self) {
        self.amount += other.amount;
    }
}

/// Per-vertex push state: fractional walk mass stopped here per source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PushState {
    pub mass: FastMap<VertexId, f64>,
}

/// Dense push cell: absorbed walk `mass` plus the `residue` delivered
/// this round and not yet settled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PushCell {
    pub mass: f64,
    pub residue: f64,
}

/// Fractional-walk BPPR for the broadcast (mirror) interface on a
/// dense state slab: `(mass, residue)` per `(vertex, source-slot)`.
/// Incoming mass accumulates **in place** into the residue cell (inbox
/// order) and the frontier bitset marks the slot; settling drains
/// marked slots in ascending slot order, so the per-source residue is
/// pushed once per round, in a deterministic order.
#[derive(Debug, Clone)]
pub struct BpprPushSlabProgram {
    pub walks_per_node: u64,
    pub alpha: f64,
    /// Residues below this many walk units stop propagating and are
    /// absorbed locally; bounds both rounds and total error.
    pub epsilon: f64,
    pub sources: SourceSet,
    num_vertices: usize,
}

impl BpprPushSlabProgram {
    /// `num_vertices` sizes the slab row for [`SourceSet::AllVertices`].
    pub fn new(walks_per_node: u64, alpha: f64, num_vertices: usize) -> BpprPushSlabProgram {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        BpprPushSlabProgram {
            walks_per_node,
            alpha,
            epsilon: 0.25,
            sources: SourceSet::AllVertices,
            num_vertices,
        }
    }

    pub fn with_sources(mut self, sources: SourceSet) -> Self {
        self.sources = sources;
        self
    }

    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0);
        self.epsilon = epsilon;
        self
    }

    /// Settle `residue` units of `source` into `cell`: absorb the
    /// stopped fraction, broadcast the survivors.
    fn settle(
        &self,
        source: VertexId,
        residue: f64,
        cell: &mut PushCell,
        ctx: &mut Context<'_, PushMsg>,
    ) {
        if residue <= 0.0 {
            return;
        }
        let degree = ctx.degree();
        if degree == 0 {
            cell.mass += residue;
            return;
        }
        let stopped = self.alpha * residue;
        cell.mass += stopped;
        let forward = residue - stopped;
        if forward < self.epsilon {
            // Too small to keep pushing; absorb to conserve mass.
            cell.mass += forward;
        } else {
            ctx.broadcast(
                PushMsg {
                    source,
                    amount: forward / degree as f64,
                },
                1,
            );
        }
    }
}

impl SlabProgram for BpprPushSlabProgram {
    type Message = PushMsg;
    type Cell = PushCell;
    type Out = PushState;

    fn width(&self) -> usize {
        self.sources.len(self.num_vertices)
    }

    fn empty_cell(&self) -> PushCell {
        PushCell::default()
    }

    fn message_bytes(&self) -> u64 {
        20 // source id + f64 amount + receiver handling tag
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.sources.seeds()
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, PushCell>, ctx: &mut Context<'_, PushMsg>) {
        if self.sources.contains(v) {
            let slot = self.sources.slot_of(v).expect("source without slot");
            self.settle(v, self.walks_per_node as f64, row.cell_mut(slot), ctx);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, PushCell>,
        inbox: &[Delivery<PushMsg>],
        ctx: &mut Context<'_, PushMsg>,
    ) {
        // Accumulate in place, inbox order. `amount` is the total
        // delivered mass: combiner merges add amounts, so multiplicity
        // must NOT scale it again.
        for d in inbox {
            let slot = self.sources.slot_of(d.msg.source).expect("non-source push");
            row.cell_mut(slot).residue += d.msg.amount;
            row.mark(slot);
        }
        // Settle marked slots ascending — slot order == source order.
        row.drain(|slot, cell| {
            let residue = std::mem::replace(&mut cell.residue, 0.0);
            self.settle(self.sources.source_at(slot), residue, cell, ctx);
        });
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, PushCell>) -> PushState {
        let mut state = PushState::default();
        for (slot, cell) in row.written() {
            if cell.mass != 0.0 {
                state.mass.insert(self.sources.source_at(slot), cell.mass);
            }
        }
        state
    }
}

/// Accumulated push-BPPR output.
#[derive(Debug, Clone, Default)]
pub struct PushEstimates {
    mass: Vec<FastMap<VertexId, f64>>,
    walks_per_source: f64,
}

impl PushEstimates {
    pub fn new(num_vertices: usize) -> PushEstimates {
        PushEstimates {
            mass: vec![FastMap::default(); num_vertices],
            walks_per_source: 0.0,
        }
    }

    pub fn absorb(&mut self, states: Vec<PushState>, walks_per_source: u64) {
        assert_eq!(states.len(), self.mass.len());
        for (v, st) in states.into_iter().enumerate() {
            for (s, m) in st.mass {
                *self.mass[v].entry(s).or_insert(0.0) += m;
            }
        }
        self.walks_per_source += walks_per_source as f64;
    }

    pub fn ppr(&self, source: VertexId, target: VertexId) -> f64 {
        if self.walks_per_source == 0.0 {
            return 0.0;
        }
        self.mass[target as usize]
            .get(&source)
            .copied()
            .unwrap_or(0.0)
            / self.walks_per_source
    }

    /// Total walk mass absorbed (conservation check).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().map(|m| m.values().sum::<f64>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_set_semantics() {
        let all = SourceSet::AllVertices;
        assert!(all.contains(7));
        assert_eq!(all.len(100), 100);
        let sub = SourceSet::subset(vec![5, 2, 5, 9]);
        assert!(sub.contains(2) && sub.contains(5) && sub.contains(9));
        assert!(!sub.contains(3));
        assert_eq!(sub.len(100), 3);
    }

    #[test]
    fn slots_rank_sources() {
        let all = SourceSet::AllVertices;
        assert_eq!(all.slot_of(7), Some(7));
        assert_eq!(all.source_at(7), 7);
        let sub = SourceSet::subset(vec![9, 2, 5]);
        assert_eq!(sub.slot_of(2), Some(0));
        assert_eq!(sub.slot_of(5), Some(1));
        assert_eq!(sub.slot_of(9), Some(2));
        assert_eq!(sub.slot_of(3), None);
        assert_eq!(sub.source_at(1), 5);
    }

    #[test]
    fn walk_msg_combines_by_source() {
        let m = WalkMsg { source: 4 };
        assert_eq!(m.combine_key(), Some(4));
    }

    #[test]
    fn push_msg_merges_amounts() {
        let mut a = PushMsg {
            source: 1,
            amount: 0.5,
        };
        a.merge(&PushMsg {
            source: 1,
            amount: 0.25,
        });
        assert_eq!(a.amount, 0.75);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_must_be_fractional() {
        BpprSlabProgram::new(10, 1.0, 4);
    }

    #[test]
    fn slab_width_follows_source_set() {
        let all = BpprSlabProgram::new(8, 0.2, 50);
        assert_eq!(all.width(), 50);
        let sub = BpprPushSlabProgram::new(8, 0.2, 50).with_sources(SourceSet::subset(vec![3, 7]));
        assert_eq!(sub.width(), 2);
    }

    #[test]
    fn slab_extract_maps_slots_to_sources() {
        let p = BpprSlabProgram::new(8, 0.2, 4).with_sources(SourceSet::subset(vec![9, 2]));
        let mut slab = mtvc_engine::StateSlab::new(1, 2, 0u64);
        *slab.row_mut(0).cell_mut(0) = 3;
        let mut st = BpprState::default();
        slab.for_each_written_row(|_, row| st = p.extract(0, row));
        assert_eq!(st.stops.get(&2), Some(&3), "slot 0 = source 2");
        assert_eq!(st.stops.get(&9), None, "zero counts are skipped");
    }

    #[test]
    fn estimates_fold_batches() {
        let mut est = BpprEstimates::new(3);
        let mut s1 = vec![BpprState::default(); 3];
        s1[2].stops.insert(0, 7);
        est.absorb(s1, 10);
        let mut s2 = vec![BpprState::default(); 3];
        s2[2].stops.insert(0, 3);
        est.absorb(s2, 10);
        assert_eq!(est.walks_per_source(), 20);
        assert_eq!(est.ppr(0, 2), 0.5);
        assert_eq!(est.total_stopped(), 10);
        assert!(est.residual_bytes() > 0);
    }
}
