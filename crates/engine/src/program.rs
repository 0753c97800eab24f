//! What a vertex program sees and what the round loop drives
//! (`compute(v)` in the paper's §2.1): the per-activation [`Context`],
//! the [`EmitSink`]s its sends land in, and the worker-granular
//! [`ProgramCore`] contract. Programs themselves implement
//! [`SlabProgram`](crate::slab::SlabProgram).

use crate::message::{Delivery, Envelope, Message};
use mtvc_graph::csr::EdgeWeights;
use mtvc_graph::{Graph, VertexId};
use rand::rngs::SmallRng;

/// Adjacency of the current vertex served from a decoded out-of-core
/// chunk instead of the resident [`Graph`]. When a paged run hands this
/// to [`Context`], every neighbor the program observes really came
/// through the backing store's encode/decode path — a codec bug breaks
/// results, not just counters.
#[derive(Debug, Clone, Copy)]
pub struct PagedNeighbors<'a> {
    /// Out-neighbors of the current vertex, decoded from its partition.
    pub neighbors: &'a [VertexId],
    /// Parallel edge weights; `None` on unweighted graphs.
    pub weights: Option<&'a [u32]>,
}

/// Where a [`Context`] delivers emissions. The runner's sink is the
/// router's [`ShardedOutbox`](crate::router::ShardedOutbox), which
/// routes each emission into its destination shard at emit time and
/// runs the sender-side combiner's fold probe there, so folded
/// envelopes are never materialised (fold-at-send). The flat [`Outbox`]
/// only queues emissions, for harnesses driving programs directly and
/// for the routing oracles, which replay it through the same shard
/// sinks ([`RouteGrid::route_round`](crate::RouteGrid::route_round)) or
/// through independent code ([`route`](crate::router::route)). Programs
/// are oblivious: they call [`Context::send`]/[`Context::broadcast`]
/// either way.
///
/// The methods are raw — multiplicity-0 and degree-0 filtering happens
/// in [`Context`], so both sinks observe the exact same emission
/// sequence.
pub trait EmitSink<M> {
    /// Accept one point-to-point envelope.
    fn emit(&mut self, env: Envelope<M>);

    /// Accept one broadcast (origin, payload, per-neighbor
    /// multiplicity); the origin's degree is known non-zero.
    fn emit_broadcast(&mut self, origin: VertexId, msg: M, mult: u64);
}

/// Flat per-worker send buffer, reusable across compute calls *and*
/// across rounds: [`RouteGrid::route_round`](crate::RouteGrid::route_round)
/// drains `sends`/`broadcasts` in place into the grid's
/// [`ShardedOutbox`](crate::router::ShardedOutbox) sinks, so the
/// vectors keep their capacity. The runner does not use one (see
/// [`EmitSink`]).
///
/// Public so benches and property tests can drive
/// [`route`](crate::router::route) / [`RouteGrid`](crate::RouteGrid)
/// with synthetic traffic; programs never see an `Outbox`
/// directly — they go through [`Context`].
#[derive(Debug, Default, Clone)]
pub struct Outbox<M> {
    /// Point-to-point envelopes.
    pub sends: Vec<Envelope<M>>,
    /// Broadcast payloads: (origin vertex, payload, per-neighbor
    /// multiplicity).
    pub broadcasts: Vec<(VertexId, M, u64)>,
}

impl<M> Outbox<M> {
    pub fn new() -> Self {
        Outbox {
            sends: Vec::new(),
            broadcasts: Vec::new(),
        }
    }

    /// Reset for reuse across rounds; capacity is retained.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.broadcasts.clear();
    }
}

impl<M> EmitSink<M> for Outbox<M> {
    #[inline]
    fn emit(&mut self, env: Envelope<M>) {
        self.sends.push(env);
    }

    #[inline]
    fn emit_broadcast(&mut self, origin: VertexId, msg: M, mult: u64) {
        self.broadcasts.push((origin, msg, mult));
    }
}

/// Execution context handed to `compute`. Borrow-scoped to one vertex
/// activation: sends are attributed to [`Context::vertex`].
///
/// Emissions flow to an [`EmitSink`] — in a run, the worker's
/// pre-sharded [`ShardedOutbox`](crate::router::ShardedOutbox). The
/// dynamic dispatch is one perfectly-predicted indirect call per
/// emission (the sink never changes within a round).
pub struct Context<'a, M: Message> {
    vertex: VertexId,
    round: usize,
    graph: &'a Graph,
    paged: Option<PagedNeighbors<'a>>,
    rng: &'a mut SmallRng,
    sink: &'a mut dyn EmitSink<M>,
}

impl<'a, M: Message> Context<'a, M> {
    /// Build a context for one vertex activation. Public so benches and
    /// harnesses can drive programs directly; the engine's round loop
    /// constructs one per `init`/`compute` call. A plain
    /// `&mut Outbox<M>` coerces to the sink parameter.
    pub fn new(
        vertex: VertexId,
        round: usize,
        graph: &'a Graph,
        rng: &'a mut SmallRng,
        sink: &'a mut dyn EmitSink<M>,
    ) -> Self {
        Context {
            vertex,
            round,
            graph,
            paged: None,
            rng,
            sink,
        }
    }

    /// Build a context whose adjacency comes from a decoded out-of-core
    /// chunk. The graph reference stays for global metadata
    /// ([`Context::num_vertices`]); neighbor and weight access is
    /// served from `paged` exclusively.
    pub fn new_paged(
        vertex: VertexId,
        round: usize,
        graph: &'a Graph,
        paged: PagedNeighbors<'a>,
        rng: &'a mut SmallRng,
        sink: &'a mut dyn EmitSink<M>,
    ) -> Self {
        Context {
            vertex,
            round,
            graph,
            paged: Some(paged),
            rng,
            sink,
        }
    }

    /// The vertex currently executing.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Current round (0 = initialization round).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Out-neighbors of the current vertex.
    pub fn neighbors(&self) -> &'a [VertexId] {
        match self.paged {
            Some(p) => p.neighbors,
            None => self.graph.neighbors(self.vertex),
        }
    }

    /// Out-degree of the current vertex.
    pub fn degree(&self) -> usize {
        self.neighbors().len()
    }

    /// `(neighbor, weight)` pairs for the current vertex.
    pub fn weighted_neighbors(&self) -> impl Iterator<Item = (VertexId, u32)> + 'a {
        let (targets, weights) = match self.paged {
            Some(p) => (
                p.neighbors,
                match p.weights {
                    Some(w) => EdgeWeights::Explicit(w),
                    None => EdgeWeights::Unit(p.neighbors.len()),
                },
            ),
            None => (
                self.graph.neighbors(self.vertex),
                self.graph.edge_weights(self.vertex),
            ),
        };
        targets
            .iter()
            .enumerate()
            .map(move |(i, &t)| (t, weights.get(i)))
    }

    /// Deterministic per-(vertex, round) random generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Send `msg` to `dest`, representing `mult` wire messages.
    /// `mult = 0` is a silent no-op so callers don't need to branch on
    /// empty aggregates.
    pub fn send(&mut self, dest: VertexId, msg: M, mult: u64) {
        if mult == 0 {
            return;
        }
        self.sink.emit(Envelope::new(dest, msg, mult));
    }

    /// Broadcast `msg` to every out-neighbor (the only interface
    /// Pregel+(mirror) supports — §3 "Pregel-Mirror"). `mult` is the
    /// per-neighbor wire multiplicity, usually 1.
    pub fn broadcast(&mut self, msg: M, mult: u64) {
        if mult == 0 || self.degree() == 0 {
            return;
        }
        self.sink.emit_broadcast(self.vertex, msg, mult);
    }

    /// Send `count` copies of `msg`, each to an independently uniform
    /// random neighbor — the aggregated random-walk hop. Equivalent to
    /// `count` individual `send`s but allocation-free and `O(min(count,
    /// degree))` via multinomial sampling.
    pub fn send_uniform_spread(&mut self, msg: M, count: u64) {
        let neighbors = self.neighbors();
        if count == 0 || neighbors.is_empty() {
            return;
        }
        let sink = &mut *self.sink;
        crate::sampling::multinomial_uniform(self.rng, count, neighbors.len(), |bin, c| {
            sink.emit(Envelope::new(neighbors[bin], msg.clone(), c));
        });
    }
}

/// The worker-granular execution contract the round loop runs: one
/// `Store` per worker holding every local vertex's state, addressed by
/// local index. Its one implementation is
/// [`PerSlab`](crate::slab::PerSlab) (`Store = StateSlab<Cell>`), which
/// adapts a [`SlabProgram`](crate::slab::SlabProgram). It stays a trait
/// because the canonical benchmark drives programs through it, outside
/// the runner.
pub trait ProgramCore: Sync {
    /// Wire message payload.
    type Message: Message;
    /// One worker's state container. `Clone` must recycle via
    /// `clone_from` (checkpointing relies on it), and it owns its data
    /// (`'static`) because checkpoint copies outlive the run.
    type Store: Clone + Send + 'static;

    fn message_bytes(&self) -> u64;

    fn max_rounds(&self) -> Option<usize> {
        None
    }

    /// The vertices whose round-0 [`ProgramCore::init_vertex`] can do
    /// anything; `None` means every vertex. The round loop visits only
    /// these at round 0 (`init_vertex` anywhere else is a no-op), while
    /// still counting every vertex active.
    fn seeds(&self) -> Option<&[VertexId]> {
        None
    }

    /// Build (or recycle) the store for a worker owning `vertices`,
    /// listed in local-index order.
    fn make_store(&self, vertices: &[VertexId]) -> Self::Store;

    /// Round 0 activation of vertex `v` at local index `li`.
    fn init_vertex(
        &self,
        v: VertexId,
        li: u32,
        store: &mut Self::Store,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Rounds ≥ 1: fold `v`'s delivered messages into the store.
    fn compute_vertex(
        &self,
        v: VertexId,
        li: u32,
        store: &mut Self::Store,
        inbox: &[Delivery<Self::Message>],
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Hand the run's stores back after the run, e.g. to a
    /// recycler pool. Default: drop them.
    fn recycle(&self, stores: Vec<Self::Store>) {
        drop(stores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_graph::generators;
    use rand::SeedableRng;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl Message for Ping {
        fn combine_key(&self) -> Option<u64> {
            Some(self.0 as u64)
        }
        fn merge(&mut self, _o: &Self) {}
    }

    #[test]
    fn context_collects_sends_and_broadcasts() {
        let g = generators::ring(4, true);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut outbox = Outbox::new();
        let mut ctx = Context::new(2, 5, &g, &mut rng, &mut outbox);
        assert_eq!(ctx.vertex(), 2);
        assert_eq!(ctx.round(), 5);
        assert_eq!(ctx.degree(), 2);
        ctx.send(0, Ping(9), 3);
        ctx.send(1, Ping(8), 0); // no-op
        ctx.broadcast(Ping(7), 1);
        assert_eq!(outbox.sends.len(), 1);
        assert_eq!(outbox.sends[0].mult, 3);
        assert_eq!(outbox.broadcasts.len(), 1);
        assert_eq!(outbox.broadcasts[0].0, 2);
    }

    #[test]
    fn broadcast_from_isolated_vertex_is_noop() {
        let g = Graph::empty(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut outbox: Outbox<Ping> = Outbox::new();
        let mut ctx = Context::new(0, 0, &g, &mut rng, &mut outbox);
        ctx.broadcast(Ping(1), 1);
        assert!(outbox.broadcasts.is_empty());
    }

    #[test]
    fn outbox_clear_resets_everything() {
        let g = generators::ring(3, true);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut outbox = Outbox::new();
        {
            let mut ctx = Context::new(0, 0, &g, &mut rng, &mut outbox);
            ctx.send(1, Ping(1), 1);
            ctx.broadcast(Ping(2), 1);
        }
        outbox.clear();
        assert!(outbox.sends.is_empty());
        assert!(outbox.broadcasts.is_empty());
    }
}
