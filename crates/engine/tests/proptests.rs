//! Property-based tests for the engine: message conservation, sampler
//! distribution laws, and scheduling-independence of results.

use mtvc_cluster::{ChaosMix, ClusterSpec, FaultPlan};
use mtvc_engine::sampling::{binomial, multinomial_uniform};
use mtvc_engine::{
    route, wire, Context, Delivery, EmitSink, EngineConfig, Envelope, Inbox, LocalIndex, Message,
    MirrorIndex, OocConfig, Outbox, PagingConfig, PayloadCodec, RouteGrid, RoutingStats, Runner,
    SlabProgram, SlabRecycler, SlabRow, SlabRowMut, StateSlab, SystemProfile, WorkerPool, LANES,
};
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, reference, VertexId};
use mtvc_metrics::{Bytes, SimTime};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binomial_stays_in_range(n in 0u64..200_000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = binomial(&mut rng, n, p);
        prop_assert!(x <= n);
    }

    #[test]
    fn multinomial_conserves_count(n in 0u64..50_000, k in 1usize..500, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut total = 0u64;
        multinomial_uniform(&mut rng, n, k, |bin, c| {
            assert!(bin < k);
            total += c;
        });
        prop_assert_eq!(total, n);
    }

    #[test]
    fn binomial_mean_is_np(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let trials = 3000;
        let (n, p) = (30u64, 0.25);
        let sum: u64 = (0..trials).map(|_| binomial(&mut rng, n, p)).sum();
        let mean = sum as f64 / trials as f64;
        // 4-sigma band: sd of the mean = sqrt(np(1-p)/trials) ≈ 0.043
        prop_assert!((mean - 7.5).abs() < 0.2, "mean {mean}");
    }
}

/// Token-passing program: every vertex sends 3 tokens to each neighbor
/// for `rounds` rounds; receivers count them in their one cell. Used to
/// check message conservation through the router.
struct TokenFlood {
    rounds: usize,
}

#[derive(Clone, Debug)]
struct Token;
impl Message for Token {
    fn combine_key(&self) -> Option<u64> {
        Some(0)
    }
    fn merge(&mut self, _o: &Self) {}
}

#[derive(Clone, Default)]
struct Received(u64);

impl SlabProgram for TokenFlood {
    type Message = Token;
    type Cell = u64;
    type Out = Received;

    fn width(&self) -> usize {
        1
    }

    fn empty_cell(&self) -> u64 {
        0
    }

    fn message_bytes(&self) -> u64 {
        8
    }

    fn init(&self, _v: VertexId, _row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Token>) {
        for &t in ctx.neighbors() {
            ctx.send(t, Token, 3);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Token>],
        ctx: &mut Context<'_, Token>,
    ) {
        for d in inbox {
            *row.cell_mut(0) += d.mult;
        }
        if ctx.round() < self.rounds {
            for &t in ctx.neighbors() {
                ctx.send(t, Token, 3);
            }
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> Received {
        Received(row.written().map(|(_, count)| count).sum())
    }

    fn max_rounds(&self) -> Option<usize> {
        Some(self.rounds + 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn messages_are_conserved_through_routing(
        n in 8usize..120,
        workers in 1usize..9,
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n * 2, seed);
        let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
        cfg.cutoff = SimTime::secs(1e12);
        cfg.seed = seed;
        let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
        let result = runner.run_slab(&TokenFlood { rounds });
        prop_assert!(result.outcome.is_completed());
        // Sending rounds are 0..rounds, each emitting 3 tokens per
        // directed edge; every one is delivered within the horizon.
        let expected = 3 * g.num_edges() as u64 * rounds as u64;
        prop_assert_eq!(result.stats.total_messages_sent, expected);
        let received: u64 = result.states.iter().map(|s| s.0).sum();
        prop_assert_eq!(received, expected);
    }

    #[test]
    fn partitioning_does_not_change_task_results(
        n in 10usize..80,
        seed in any::<u64>(),
        workers_a in 1usize..8,
        workers_b in 1usize..8,
    ) {
        // MSSP is deterministic: results must be identical regardless
        // of how vertices are partitioned (scheduling independence).
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |workers: usize| {
            let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
            cfg.cutoff = SimTime::secs(1e12);
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let a = run(workers_a);
        let b = run(workers_b);
        prop_assert!(a.outcome.is_completed() && b.outcome.is_completed());
        for v in 0..n {
            prop_assert_eq!(&a.states[v].dist, &b.states[v].dist, "vertex {}", v);
        }
    }
}

/// Payload for the routing-equivalence property: an optional combine
/// key (including the adversarial `u64::MAX`) plus a value merged by
/// summing, so combining order mistakes change observable state.
#[derive(Clone, Debug, PartialEq)]
struct Keyed {
    key: Option<u64>,
    val: u64,
}
impl Message for Keyed {
    fn combine_key(&self) -> Option<u64> {
        self.key
    }
    fn merge(&mut self, o: &Self) {
        self.val += o.val;
    }
    fn wire_query(&self) -> Option<u64> {
        self.key
    }
}
impl PayloadCodec for Keyed {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        wire::write_varint(out, self.val);
    }
    fn decode_payload(wire_query: Option<u64>, buf: &[u8], pos: &mut usize) -> Self {
        Keyed {
            key: wire_query,
            val: wire::read_varint(buf, pos),
        }
    }
}

/// Exact-merge twin of [`Keyed`]: the same key, merged by min, so a
/// receiver handed the fold reads the same minimum per key — and the
/// router folds it even on a non-combining round.
#[derive(Clone, Debug, PartialEq)]
struct MinKeyed {
    key: Option<u64>,
    val: u64,
}
impl Message for MinKeyed {
    const EXACT_MERGE: bool = true;
    fn combine_key(&self) -> Option<u64> {
        self.key
    }
    fn merge(&mut self, o: &Self) {
        self.val = self.val.min(o.val);
    }
}

/// `outboxes` with every payload swapped for its [`MinKeyed`] twin.
fn as_exact(outboxes: &[Outbox<Keyed>]) -> Vec<Outbox<MinKeyed>> {
    let twin = |m: &Keyed| MinKeyed {
        key: m.key,
        val: m.val,
    };
    outboxes
        .iter()
        .map(|ob| {
            let mut out = Outbox::new();
            out.sends.extend(
                ob.sends
                    .iter()
                    .map(|e| Envelope::new(e.dest, twin(&e.msg), e.mult)),
            );
            out.broadcasts.extend(
                ob.broadcasts
                    .iter()
                    .map(|(o, m, mult)| (*o, twin(m), *mult)),
            );
            out
        })
        .collect()
}

/// Per run of `inbox`: the vertex, its wire messages, and the minimum
/// value per combine key — what a min-merging receiver ends with.
fn min_per_key<M: Message>(
    inbox: &Inbox<M>,
    val: impl Fn(&M) -> u64,
) -> Vec<(VertexId, u64, std::collections::BTreeMap<Option<u64>, u64>)> {
    inbox
        .iter_runs()
        .map(|(dest, _, ds)| {
            let mut mins = std::collections::BTreeMap::new();
            for d in ds {
                let v = val(&d.msg);
                mins.entry(d.msg.combine_key())
                    .and_modify(|m: &mut u64| *m = (*m).min(v))
                    .or_insert(v);
            }
            (dest, ds.iter().map(|d| d.mult).sum(), mins)
        })
        .collect()
}

/// Build one synthetic outbox per worker from the RNG: point-to-point
/// sends with mixed keys plus broadcasts from vertices the worker owns.
fn synthetic_outboxes(
    g: &mtvc_graph::Graph,
    part: &mtvc_graph::partition::Partition,
    seed: u64,
    sends_per_worker: usize,
    broadcasts_per_worker: usize,
) -> Vec<Outbox<Keyed>> {
    use rand::Rng;
    let n = g.num_vertices() as u64;
    let workers = part.num_workers();
    let owned = part.worker_vertices();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..workers)
        .map(|w| {
            let mut ob = Outbox::new();
            for _ in 0..sends_per_worker {
                let dest = (rng.gen::<u64>() % n) as VertexId;
                let key = match rng.gen::<u64>() % 5 {
                    0 => None,
                    1 => Some(u64::MAX),
                    k => Some(k % 3),
                };
                let val = rng.gen::<u64>() % 100;
                let mult = 1 + rng.gen::<u64>() % 4;
                ob.sends.push(Envelope::new(dest, Keyed { key, val }, mult));
            }
            for _ in 0..broadcasts_per_worker {
                if owned[w].is_empty() {
                    break;
                }
                let origin = owned[w][rng.gen::<u64>() as usize % owned[w].len()];
                let key = (rng.gen::<u64>() % 2 == 0).then(|| rng.gen::<u64>() % 3);
                let val = rng.gen::<u64>() % 100;
                ob.broadcasts.push((origin, Keyed { key, val }, 1));
            }
            ob
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: the pooled grid (the runner's fold-at-send
    /// `ShardedOutbox` sinks, replayed from flat outboxes by
    /// `route_round`, then the histogram-scatter merge) produces grouped
    /// inboxes and statistics **identical** to the serial reference
    /// `route` (stable comparison sort + plain-HashMap combining),
    /// across random graphs, worker counts, combining, and mirroring.
    #[test]
    fn parallel_route_equals_serial_route(
        n in 8usize..150,
        workers in 1usize..9,
        combine in any::<bool>(),
        mirrored in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n * 3, seed);
        let part = HashPartitioner { salt: seed }.partition(&g, workers);
        let locals = LocalIndex::build(&part);
        let mirrors = mirrored.then(|| MirrorIndex::build(&g, &part, 4));
        let outboxes = synthetic_outboxes(&g, &part, seed ^ 0xD1CE, 40, 6);
        let msg_bytes = 16;

        // Total wire messages entering the router, counted from the raw
        // traffic — conservation baseline for the accounting checks.
        let raw_wire: u64 = outboxes.iter().map(|ob| {
            ob.sends.iter().map(|e| e.mult).sum::<u64>()
                + ob.broadcasts.iter()
                    .map(|(o, _, m)| g.degree(*o) as u64 * m)
                    .sum::<u64>()
        }).sum();

        let (serial_inboxes, serial_stats) = route(
            outboxes.clone(), &g, &part, &locals, mirrors.as_ref(), combine, msg_bytes,
        );

        // Wire accounting must be invariant under combining: combiners
        // fold tuples, never wire messages.
        prop_assert_eq!(serial_stats.sent_wire, raw_wire);
        prop_assert_eq!(serial_stats.delivered_wire(), raw_wire);
        let tuples: u64 = serial_inboxes.iter().map(|i| i.len() as u64).sum();
        prop_assert_eq!(serial_stats.delivered_tuples, tuples);
        let delivered_mult: u64 = serial_inboxes
            .iter()
            .flat_map(|i| i.deliveries())
            .map(|d| d.mult)
            .sum();
        prop_assert_eq!(delivered_mult, raw_wire);

        // Grouped-delivery invariants: runs ascend by local index, end
        // offsets are strictly monotone and partition the buffer, and
        // every delivery sits inside the run of its own vertex.
        for (w, inbox) in serial_inboxes.iter().enumerate() {
            let mut prev_local = None;
            let mut start = 0usize;
            for run in inbox.runs() {
                prop_assert!(prev_local.is_none_or(|p| run.local > p));
                prev_local = Some(run.local);
                prop_assert!((run.end as usize) > start, "empty run");
                prop_assert_eq!(part.owner_of(run.dest) as usize, w);
                prop_assert_eq!(locals.local_of(run.dest), run.local);
                prop_assert_eq!(locals.vertex_at(w, run.local), run.dest);
                start = run.end as usize;
            }
            prop_assert_eq!(start, inbox.len(), "runs must cover the buffer");
        }

        // Pooled grid, run twice over the same traffic to also exercise
        // buffer reuse across rounds.
        let pool = WorkerPool::new(workers.min(4));
        let mut grid: RouteGrid<Keyed> = RouteGrid::new(workers);
        let mut grid_inboxes: Vec<Inbox<Keyed>> =
            (0..workers).map(|_| Inbox::new()).collect();
        for _ in 0..2 {
            let mut working = outboxes.clone();
            grid_inboxes.iter_mut().for_each(|i| i.clear());
            let stats = grid.route_round(
                Some(&pool),
                &mut working,
                &mut grid_inboxes,
                &g,
                &part,
                &locals,
                mirrors.as_ref(),
                combine,
                msg_bytes,
            );
            prop_assert_eq!(stats, &serial_stats);
            prop_assert!(working.iter().all(|ob| ob.sends.is_empty()
                && ob.broadcasts.is_empty()));
        }
        prop_assert_eq!(&grid_inboxes, &serial_inboxes);
    }

    /// Pins `route_round`'s replay adapter against driving the sinks by
    /// hand (`begin_round` → `emit_sinks` → `route_presharded`), as the
    /// runner does: identical inboxes and statistics, except that
    /// `shard_copy_bytes` of the flat round also counts the outboxes'
    /// own writes, one envelope per send/broadcast entry. The hand
    /// driven grid runs two rounds, so buffer reuse is covered too.
    #[test]
    fn presharded_route_equals_two_stage_route(
        n in 8usize..150,
        workers in 1usize..9,
        combine in any::<bool>(),
        mirrored in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n * 3, seed);
        let part = HashPartitioner { salt: seed }.partition(&g, workers);
        let locals = LocalIndex::build(&part);
        let mirrors = mirrored.then(|| MirrorIndex::build(&g, &part, 4));
        let outboxes = synthetic_outboxes(&g, &part, seed ^ 0xF01D, 40, 6);
        let msg_bytes = 16;
        let pool = WorkerPool::new(workers.min(4));

        // Baseline: the two-stage grid over a flat outbox.
        let mut flat_grid: RouteGrid<Keyed> = RouteGrid::new(workers);
        let mut flat_inboxes: Vec<Inbox<Keyed>> =
            (0..workers).map(|_| Inbox::new()).collect();
        let mut working = outboxes.clone();
        let flat_stats = flat_grid.route_round(
            Some(&pool),
            &mut working,
            &mut flat_inboxes,
            &g,
            &part,
            &locals,
            mirrors.as_ref(),
            combine,
            msg_bytes,
        ).clone();

        // Pre-sharded: feed the identical traffic straight into the
        // per-destination shards, twice to exercise buffer reuse.
        let mut grid: RouteGrid<Keyed> = RouteGrid::new(workers);
        let mut inboxes: Vec<Inbox<Keyed>> =
            (0..workers).map(|_| Inbox::new()).collect();
        for _ in 0..2 {
            inboxes.iter_mut().for_each(|i| i.clear());
            grid.begin_round(combine, &locals);
            for (sink, ob) in grid
                .emit_sinks(&g, &part, &locals, mirrors.as_ref(), msg_bytes)
                .zip(outboxes.iter())
            {
                let mut sink = sink;
                for env in &ob.sends {
                    sink.emit(env.clone());
                }
                for (origin, msg, mult) in &ob.broadcasts {
                    sink.emit_broadcast(*origin, msg.clone(), *mult);
                }
            }
            let stats = grid.route_presharded(
                Some(&pool), &mut inboxes, &locals, msg_bytes, combine,
            );

            // Folding at send must never copy more than the flat
            // path, and saves exactly the emit-materialisation pass
            // (one envelope write per send/broadcast entry).
            let env_bytes = std::mem::size_of::<Envelope<Keyed>>() as u64;
            let emit_copies: u64 = outboxes.iter().map(|ob| {
                (ob.sends.len() + ob.broadcasts.len()) as u64 * env_bytes
            }).sum();
            prop_assert_eq!(stats.shard_copy_bytes + emit_copies, flat_stats.shard_copy_bytes);

            let mut scrubbed = stats.clone();
            scrubbed.shard_copy_bytes = flat_stats.shard_copy_bytes;
            prop_assert_eq!(&scrubbed, &flat_stats);
        }
        prop_assert_eq!(&inboxes, &flat_inboxes);
    }

    /// Exact payloads fold on a non-combining round on every routing
    /// path, and are charged as if they had not: the serial `route`,
    /// the two-stage grid and the pre-sharded sinks deliver the same
    /// folded inboxes — the runs, wire messages and per-key minimum of
    /// the unfolded plain twin, in no more entries — with every
    /// statistic but `shard_copy_bytes` equal to the twin's.
    #[test]
    fn exact_payload_folds_without_a_combiner_on_every_path(
        n in 8usize..150,
        workers in 1usize..9,
        mirrored in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n * 3, seed);
        let part = HashPartitioner { salt: seed }.partition(&g, workers);
        let locals = LocalIndex::build(&part);
        let mirrors = mirrored.then(|| MirrorIndex::build(&g, &part, 4));
        let plain = synthetic_outboxes(&g, &part, seed ^ 0xE8AC, 40, 6);
        let exact = as_exact(&plain);
        let msg_bytes = 16;
        let (plain_in, plain_stats) = route(
            plain, &g, &part, &locals, mirrors.as_ref(), false, msg_bytes,
        );
        let (want_in, want_stats) = route(
            exact.clone(), &g, &part, &locals, mirrors.as_ref(), false, msg_bytes,
        );

        let scrub = |stats: &RoutingStats| RoutingStats {
            shard_copy_bytes: 0,
            ..stats.clone()
        };
        prop_assert_eq!(scrub(&want_stats), scrub(&plain_stats));
        prop_assert!(want_stats.shard_copy_bytes <= plain_stats.shard_copy_bytes);
        for (folded, unfolded) in want_in.iter().zip(&plain_in) {
            prop_assert!(folded.len() <= unfolded.len());
            prop_assert_eq!(
                min_per_key(folded, |m| m.val),
                min_per_key(unfolded, |m| m.val)
            );
        }

        let pool = WorkerPool::new(workers.min(4));
        let mut grid: RouteGrid<MinKeyed> = RouteGrid::new(workers);
        let mut inboxes: Vec<Inbox<MinKeyed>> = (0..workers).map(|_| Inbox::new()).collect();
        let mut working = exact.clone();
        let stats = grid.route_round(
            Some(&pool),
            &mut working,
            &mut inboxes,
            &g,
            &part,
            &locals,
            mirrors.as_ref(),
            false,
            msg_bytes,
        );
        prop_assert_eq!(stats, &want_stats);
        prop_assert_eq!(&inboxes, &want_in);

        // Pre-sharded, twice over the same grid to exercise reuse.
        let env_bytes = std::mem::size_of::<Envelope<MinKeyed>>() as u64;
        let emit_copies: u64 = exact
            .iter()
            .map(|ob| (ob.sends.len() + ob.broadcasts.len()) as u64 * env_bytes)
            .sum();
        for _ in 0..2 {
            inboxes.iter_mut().for_each(|i| i.clear());
            grid.begin_round(false, &locals);
            for (mut sink, ob) in grid
                .emit_sinks(&g, &part, &locals, mirrors.as_ref(), msg_bytes)
                .zip(exact.iter())
            {
                for env in &ob.sends {
                    sink.emit(env.clone());
                }
                for (origin, msg, mult) in &ob.broadcasts {
                    sink.emit_broadcast(*origin, msg.clone(), *mult);
                }
            }
            let stats = grid.route_presharded(Some(&pool), &mut inboxes, &locals, msg_bytes, false);
            prop_assert_eq!(stats.shard_copy_bytes + emit_copies, want_stats.shard_copy_bytes);
            prop_assert_eq!(scrub(stats), scrub(&want_stats));
            prop_assert_eq!(&inboxes, &want_in);
        }
    }

    /// The compact codec is lossless: for any envelope bucket, decoding
    /// restores it in the canonical (local-index-sorted, stable) order
    /// with every field intact.
    #[test]
    fn codec_roundtrip_and_measure_parity(
        len in 0usize..60,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let envs: Vec<Envelope<Keyed>> = (0..len)
            .map(|_| {
                let dest = (rng.gen::<u64>() % 32) as VertexId;
                let key = match rng.gen::<u64>() % 5 {
                    0 => None,
                    1 => Some(u64::MAX),
                    k => Some(k % 3),
                };
                // Shifted values hit every varint length class.
                let val = rng.gen::<u64>() >> (rng.gen::<u64>() % 64);
                let mult = 1 + rng.gen::<u64>() % 4;
                Envelope::new(dest, Keyed { key, val }, mult)
            })
            .collect();
        let li_of = |v: VertexId| v;

        let buf = wire::encode_bucket(&envs, li_of);

        let decoded: Vec<Envelope<Keyed>> = wire::decode_bucket(&buf, |li| li);
        let mut order: Vec<usize> = (0..envs.len()).collect();
        order.sort_by_key(|&i| envs[i].dest);
        prop_assert_eq!(decoded.len(), envs.len());
        for (d, &i) in decoded.iter().zip(&order) {
            prop_assert_eq!(d.dest, envs[i].dest);
            prop_assert_eq!(d.mult, envs[i].mult);
            prop_assert_eq!(&d.msg, &envs[i].msg);
        }
    }

    /// Lane-chunked slab kernels are bit-identical to the scalar
    /// operations they batch: `relax_min_lanes` against per-lane
    /// `relax_min`, then `drain_chunks` against `drain`, across batch
    /// widths on and off the [`LANES`] boundary.
    #[test]
    fn lane_relax_and_drain_match_scalar_oracle(
        width_sel in 0usize..4,
        rows in 1usize..12,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        // On and off the LANES boundary, plus a multi-word frontier.
        let width = [1usize, 7, 8, 64][width_sel];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut lane: StateSlab<u64> = StateSlab::new(rows, width, u64::MAX);
        let mut scalar: StateSlab<u64> = StateSlab::new(rows, width, u64::MAX);
        let chunks = width.div_ceil(LANES);

        for _ in 0..200 {
            let li = rng.gen::<u32>() % rows as u32;
            let chunk = rng.gen::<u64>() as usize % chunks;
            let mut cand = [u64::MAX; LANES];
            for c in cand.iter_mut() {
                if rng.gen::<u64>() % 3 != 0 {
                    *c = rng.gen::<u64>() % 1000;
                }
            }
            lane.row_mut(li).relax_min_lanes(chunk * LANES, &cand);
            let mut row = scalar.row_mut(li);
            for (l, &c) in cand.iter().enumerate() {
                let q = chunk * LANES + l;
                if q < width {
                    row.relax_min(q, c);
                }
            }
        }
        for li in 0..rows as u32 {
            let (lane, scalar) = (lane.row_mut(li), scalar.row_mut(li));
            for q in 0..width {
                prop_assert_eq!(lane.get(q), scalar.get(q));
            }
        }

        // Same dirty sets, visited in the same ascending order, and
        // both drains leave the frontier clear.
        for li in 0..rows as u32 {
            let mut via_chunks: Vec<(usize, u64)> = Vec::new();
            lane.row_mut(li).drain_chunks(|chunk, mask, cells| {
                for (l, &cell) in cells.iter().enumerate() {
                    if mask & (1 << l) != 0 {
                        via_chunks.push((chunk * LANES + l, cell));
                    }
                }
            });
            let mut via_scalar: Vec<(usize, u64)> = Vec::new();
            scalar.row_mut(li).drain(|q, cell| via_scalar.push((q, *cell)));
            prop_assert_eq!(&via_chunks, &via_scalar, "row {}", li);

            let mut leftover = 0usize;
            lane.row_mut(li).drain(|_, _| leftover += 1);
            scalar.row_mut(li).drain(|_, _| leftover += 1);
            prop_assert_eq!(leftover, 0, "drain must clear the frontier");
        }
    }
}

#[derive(Clone, Debug)]
struct Dist {
    q: u32,
    d: u64,
}
impl Message for Dist {
    fn combine_key(&self) -> Option<u64> {
        Some(self.q as u64)
    }
    fn merge(&mut self, o: &Self) {
        self.d = self.d.min(o.d);
    }
}

#[derive(Clone, Default, Debug, PartialEq)]
struct DistMap {
    dist: std::collections::BTreeMap<u32, u64>,
}

/// A minimal MSSP, so this crate's tests do not depend on `mtvc-tasks`
/// (which depends on this crate): one `u64` hop-distance cell per
/// (vertex, query), branchless min-relax, frontier-driven drain.
struct MiniSlabMssp {
    sources: Vec<VertexId>,
}

impl SlabProgram for MiniSlabMssp {
    type Message = Dist;
    type Cell = u64;
    type Out = DistMap;

    fn width(&self) -> usize {
        self.sources.len()
    }

    fn empty_cell(&self) -> u64 {
        u64::MAX
    }

    fn message_bytes(&self) -> u64 {
        16
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Dist>) {
        for (q, &s) in self.sources.iter().enumerate() {
            if s == v {
                row.set(q, 0);
                for &t in ctx.neighbors() {
                    ctx.send(t, Dist { q: q as u32, d: 1 }, 1);
                }
            }
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Dist>],
        ctx: &mut Context<'_, Dist>,
    ) {
        for d in inbox {
            row.relax_min(d.msg.q as usize, d.msg.d);
        }
        row.drain(|q, d| {
            let d = *d;
            for &t in ctx.neighbors() {
                ctx.send(
                    t,
                    Dist {
                        q: q as u32,
                        d: d + 1,
                    },
                    1,
                );
            }
        });
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        Some(&self.sources)
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> DistMap {
        let mut out = DistMap::default();
        for (q, d) in row.written() {
            if d != u64::MAX {
                out.dist.insert(q as u32, d);
            }
        }
        out
    }
}

/// Token counting on a slab whose empty sentinel is `0`
/// ([`MiniSlabMssp`]'s is `u64::MAX`): lane `q`'s source floods a token
/// and every vertex counts the tokens it receives per lane, forwarding
/// on the first. A cell left over from a distance slab would read as
/// "already counted" and overflow the add.
struct MiniSlabCount {
    sources: Vec<VertexId>,
}

impl SlabProgram for MiniSlabCount {
    type Message = Dist;
    type Cell = u64;
    type Out = DistMap;

    fn width(&self) -> usize {
        self.sources.len()
    }

    fn empty_cell(&self) -> u64 {
        0
    }

    fn message_bytes(&self) -> u64 {
        16
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        Some(&self.sources)
    }

    fn init(&self, v: VertexId, _row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Dist>) {
        for (q, &s) in self.sources.iter().enumerate() {
            if s == v {
                for &t in ctx.neighbors() {
                    ctx.send(t, Dist { q: q as u32, d: 0 }, 1);
                }
            }
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Dist>],
        ctx: &mut Context<'_, Dist>,
    ) {
        for d in inbox {
            let cell = row.cell_mut(d.msg.q as usize);
            let first = *cell == 0;
            *cell += d.mult;
            if first {
                for &t in ctx.neighbors() {
                    ctx.send(t, Dist { q: d.msg.q, d: 0 }, 1);
                }
            }
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> DistMap {
        DistMap {
            dist: row
                .written()
                .filter(|&(_, count)| count != 0)
                .map(|(q, count)| (q as u32, count))
                .collect(),
        }
    }
}

/// Extraction contract: a row no mutator touched is never shown to
/// `extract`; its output is the default.
#[test]
fn mini_slab_unwritten_rows_extract_to_default() {
    let sources = vec![0, 3, 3];
    let mssp = MiniSlabMssp {
        sources: sources.clone(),
    };
    assert_eq!(mssp.extract(0, SlabRow::unwritten()), DistMap::default());
    let count = MiniSlabCount { sources };
    assert_eq!(count.extract(0, SlabRow::unwritten()), DistMap::default());
}

/// An adjacency several times the page-cache budget still runs to
/// completion: the cache is really used (peak > 0) yet never exceeds
/// its budget, and the pager streams more bytes than the adjacency
/// holds — evicted partitions were loaded again, so the graph truly
/// did not fit.
#[test]
fn over_budget_paged_run_restreams_and_stays_within_budget() {
    const BUDGET: u64 = 2048;
    let workers = 2;
    let g = generators::power_law(600, 3000, 2.3, 11);
    assert!(g.adjacency_bytes() >= 4 * workers as u64 * BUDGET);
    let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
    cfg.profile.out_of_core = Some(OocConfig {
        message_budget: Bytes::mib(64),
        paging: PagingConfig {
            budget: Bytes::new(BUDGET),
            partition_bytes: Bytes::new(BUDGET / 8),
        },
    });
    let run = Runner::new(&g, &HashPartitioner::default(), cfg).run_slab(&TokenFlood { rounds: 3 });
    assert!(run.outcome.is_completed(), "{:?}", run.outcome);
    let peak = run.stats.peak_paged_resident_bytes.get();
    assert!(peak > 0, "ledger never observed a resident partition");
    assert!(
        peak <= BUDGET,
        "cache peak {peak} B over the {BUDGET} B budget"
    );
    assert!(
        run.stats.total_loaded_bytes.get() > g.adjacency_bytes(),
        "loaded {} B of a {} B adjacency: nothing was re-streamed",
        run.stats.total_loaded_bytes.get(),
        g.adjacency_bytes()
    );
}

/// Run `prog` under `cfg` on fresh slabs and on slabs drawn from
/// `recycler`: same outcome, statistics and per-vertex outputs.
/// Returns the outcome.
fn assert_recycled_equals_fresh<P>(
    g: &mtvc_graph::Graph,
    part: &HashPartitioner,
    cfg: EngineConfig,
    prog: &P,
    recycler: &SlabRecycler<u64>,
) -> Result<mtvc_metrics::RunOutcome, TestCaseError>
where
    P: SlabProgram<Cell = u64, Out = DistMap>,
{
    let fresh = Runner::new(g, part, cfg.clone()).run_slab(prog);
    let recycled = Runner::new(g, part, cfg).run_slab_recycled(prog, recycler);
    prop_assert_eq!(&fresh.outcome, &recycled.outcome);
    prop_assert_eq!(&fresh.stats, &recycled.stats);
    prop_assert_eq!(&fresh.states, &recycled.states);
    Ok(fresh.outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The slab MSSP computes every query's hop distances — Dijkstra on
    /// the unit-weight graph — across random graphs, batch widths and
    /// combining on/off. (`runner::tests::pooled_run_equals_serial_run`
    /// pins the pooled rounds to the inline ones.)
    #[test]
    fn slab_run_matches_dijkstra(
        n in 16usize..120,
        workers in 1usize..6,
        width in 1usize..9,
        combine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources: Vec<VertexId> =
            (0..width).map(|q| ((q * 7 + 3) % n) as VertexId).collect();
        let mut cfg = EngineConfig::new(
            ClusterSpec::galaxy(workers),
            SystemProfile::base("t"),
        );
        cfg.cutoff = SimTime::secs(1e12);
        cfg.profile.combiner = combine;

        let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
        let slab = runner.run_slab(&MiniSlabMssp { sources: sources.clone() });

        prop_assert!(slab.outcome.is_completed());
        for (q, &s) in sources.iter().enumerate() {
            let want = reference::dijkstra(&g, s);
            for (v, &d) in want.iter().enumerate() {
                let got = slab.states[v].dist.get(&(q as u32)).copied();
                let expect = (d != u64::MAX).then_some(d);
                prop_assert_eq!(got, expect, "q={} s={} v={}", q, s, v);
            }
        }
        // The slab's dense bytes are charged every round.
        prop_assert!(slab.stats.peak_state_bytes.get() > 0);
    }

    /// Slab runs are recyclable: a *sequence* of different batches
    /// through one shared `SlabRecycler` re-shapes the pooled slabs in
    /// place and every one of them equals a run on fresh slabs. The
    /// sequence walks the ways a retired slab could carry stale cells
    /// into the next batch now that slabs are cleaned by written word
    /// rather than re-stamped whole: widths shrinking and growing
    /// (1 → 64 → 7 → 1), the sentinel changing (`u64::MAX` distances,
    /// then `0` counters, on the same pool), a run aborted by Overflow
    /// with its round's writes in place, and a rollback from a
    /// checkpoint.
    #[test]
    fn recycled_slab_run_equals_fresh_run(
        n in 16usize..80,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = |width: usize| -> Vec<VertexId> {
            (0..width).map(|q| ((q * 5 + 1) % n) as VertexId).collect()
        };
        let base = || {
            let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("t"));
            cfg.cutoff = SimTime::secs(1e12);
            cfg
        };
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        let part = HashPartitioner { salt: seed };

        // Distances: every width of the walk, recycled ≡ fresh.
        for width in [1, 64, 7, 1] {
            let prog = MiniSlabMssp { sources: sources(width) };
            assert_recycled_equals_fresh(&g, &part, base(), &prog, &recycler)?;
            prop_assert_eq!(recycler.pooled(), workers, "all slabs returned");
        }
        // Counters: same pool, sentinel 0 — then distances again.
        let counters = MiniSlabCount { sources: sources(5) };
        assert_recycled_equals_fresh(&g, &part, base(), &counters, &recycler)?;
        let after = MiniSlabMssp { sources: sources(7) };
        assert_recycled_equals_fresh(&g, &part, base(), &after, &recycler)?;

        // A run OOM-killed at the round whose memory demand is the
        // run's largest: its slabs retire with that round's writes.
        let wide = MiniSlabMssp { sources: sources(64) };
        let clean = Runner::new(&g, &part, base()).run_slab(&wide);
        let peak = clean.stats.per_round.iter().map(|r| r.peak_machine_memory.get()).max().unwrap();
        let mut tight = base().with_faults(FaultPlan::none().with_hard_oom());
        tight.cluster.machine.memory = Bytes::new(peak - 1);
        let killed = assert_recycled_equals_fresh(&g, &part, tight, &wide, &recycler)?;
        prop_assert!(killed.is_overflow(), "{:?}", killed);
        assert_recycled_equals_fresh(&g, &part, base(), &after, &recycler)?;

        // Rollback from a checkpoint.
        let plan = FaultPlan::none().with_crash(2, 0).with_delivery_failure(3, 0);
        let full = base().with_checkpoint_every(2).with_faults(plan);
        let rolled = Runner::new(&g, &part, full.clone()).run_slab_recycled(&wide, &recycler);
        prop_assert!(rolled.stats.faults.replayed_rounds > 0, "the plan must force a rollback");
        assert_recycled_equals_fresh(&g, &part, full, &wide, &recycler)?;
        assert_recycled_equals_fresh(&g, &part, base(), &counters, &recycler)?;
        assert_recycled_equals_fresh(&g, &part, base(), &after, &recycler)?;
        assert_recycled_equals_fresh(&g, &part, base(), &counters, &recycler)?;
        prop_assert_eq!(recycler.pooled(), workers, "pool is stable");
    }

    /// Chaos regression for slab state: superstep checkpoints snapshot
    /// whole slabs, rollback restores them via the buffer-reusing
    /// `clone_from`, and a crashed-and-replayed slab run is
    /// indistinguishable from a fault-free one.
    #[test]
    fn chaos_slab_run_equals_fault_free_run(
        n in 16usize..100,
        workers in 2usize..6,
        checkpoint_every in 1usize..6,
        crashes in 0usize..3,
        losses in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.checkpoint_every = checkpoint_every;
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::random(
            seed ^ 0x51AB,
            workers,
            8,
            crashes,
            losses,
        )));
        prop_assert!(clean.outcome.is_completed());
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        let scrub = |stats: &mtvc_metrics::RunStats| {
            let mut s = stats.clone();
            s.faults = Default::default();
            s
        };
        prop_assert_eq!(scrub(&clean.stats), scrub(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }
}

fn scrub_faults(stats: &mtvc_metrics::RunStats) -> mtvc_metrics::RunStats {
    let mut s = stats.clone();
    s.faults = Default::default();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PR 9 tentpole property: a run under the full fault taxonomy —
    /// crashes, delivery failures, stragglers, network partitions, and
    /// payload corruption, several of which may land on the same round
    /// — recovers task outputs bit-identical to the fault-free run.
    /// Every cost of recovering — replay, stalls, slow rounds,
    /// retransmissions — lives in `stats.faults` and nowhere else.
    #[test]
    fn chaos_under_load_recovers_bit_identical(
        n in 16usize..100,
        workers in 2usize..6,
        checkpoint_every in 1usize..6,
        crashes in 0usize..2,
        losses in 0usize..2,
        stragglers in 0usize..3,
        partitions in 0usize..2,
        corruptions in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.checkpoint_every = checkpoint_every;
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let mix = ChaosMix { crashes, losses, stragglers, partitions, corruptions };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::chaos(seed ^ 0xC405, workers, 8, mix)));
        prop_assert!(clean.outcome.is_completed());
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        prop_assert_eq!(scrub_faults(&clean.stats), scrub_faults(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }

    /// Chaos × out-of-core cell: under the real paging path (partition
    /// cache with a budget small enough to force eviction, message
    /// budget small enough to spill), rollback-and-replay after
    /// crashes/losses/stragglers/partitions/corruption must restore
    /// the pager's cache state and reload evicted partitions so the
    /// run stays bit-identical to the fault-free paged run — outcomes,
    /// per-vertex states, and every non-fault statistic including the
    /// measured spill/load counters.
    #[test]
    fn chaos_paged_run_equals_fault_free_paged_run(
        n in 16usize..100,
        workers in 2usize..6,
        checkpoint_every in 1usize..6,
        crashes in 0usize..2,
        losses in 0usize..2,
        stragglers in 0usize..3,
        partitions in 0usize..2,
        corruptions in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.checkpoint_every = checkpoint_every;
            cfg.faults = faults;
            cfg.profile.out_of_core = Some(OocConfig {
                message_budget: Bytes::new(512),
                paging: PagingConfig {
                    budget: Bytes::new(1024),
                    partition_bytes: Bytes::new(256),
                },
            });
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let mix = ChaosMix { crashes, losses, stragglers, partitions, corruptions };
        let clean = run(None);
        let chaos = run(Some(FaultPlan::chaos(seed ^ 0x00C0, workers, 8, mix)));
        prop_assert!(clean.outcome.is_completed());
        prop_assert!(
            clean.stats.total_partition_loads > 0,
            "paging path must engage"
        );
        prop_assert_eq!(&clean.outcome, &chaos.outcome);
        prop_assert_eq!(scrub_faults(&clean.stats), scrub_faults(&chaos.stats));
        for v in 0..n {
            prop_assert_eq!(&clean.states[v].dist, &chaos.states[v].dist, "vertex {}", v);
        }
    }

    /// Checkpoint-cadence edges: `0` (the documented alias for "every
    /// round"), `1`, and a cadence far beyond the run length must all
    /// recover bit-identically — and `0` must behave exactly like `1`.
    #[test]
    fn checkpoint_cadence_edges_recover(
        n in 16usize..80,
        workers in 2usize..5,
        crashes in 1usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = vec![0 as VertexId, (n / 2) as VertexId];
        let run = |every: usize, faults: Option<FaultPlan>| {
            let mut cfg = EngineConfig::new(
                ClusterSpec::galaxy(workers),
                SystemProfile::base("t"),
            );
            cfg.cutoff = SimTime::secs(1e12);
            cfg.checkpoint_every = every;
            cfg.faults = faults;
            let runner = Runner::new(&g, &HashPartitioner { salt: seed }, cfg);
            runner.run_slab(&MiniSlabMssp { sources: sources.clone() })
        };
        let clean = run(8, None);
        let plan = FaultPlan::random(seed ^ 0xCADE, workers, 6, crashes, 0);
        let zero = run(0, Some(plan.clone()));
        let one = run(1, Some(plan.clone()));
        let huge = run(usize::MAX, Some(plan));
        prop_assert_eq!(&zero.stats, &one.stats, "0 must alias 1");
        for r in [&zero, &one, &huge] {
            prop_assert_eq!(&clean.outcome, &r.outcome);
            prop_assert_eq!(scrub_faults(&clean.stats), scrub_faults(&r.stats));
            for v in 0..n {
                prop_assert_eq!(&clean.states[v].dist, &r.states[v].dist, "vertex {}", v);
            }
        }
        // Beyond-run cadence keeps exactly the round-0 snapshot.
        prop_assert_eq!(huge.stats.faults.checkpoints, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wire-integrity fuzz: framing a bucket round-trips losslessly; a
    /// random bit flip anywhere in the frame is always detected as a
    /// typed error (never a panic, never a silent wrong decode); and
    /// the checked bucket decoder is total on corrupted bodies.
    #[test]
    fn frames_detect_every_random_bit_flip(
        len in 0usize..40,
        flip in any::<u64>(),
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let envs: Vec<Envelope<Keyed>> = (0..len)
            .map(|_| {
                let dest = (rng.gen::<u64>() % 32) as VertexId;
                let key = match rng.gen::<u64>() % 5 {
                    0 => None,
                    1 => Some(u64::MAX),
                    k => Some(k % 3),
                };
                let val = rng.gen::<u64>() >> (rng.gen::<u64>() % 64);
                let mult = 1 + rng.gen::<u64>() % 4;
                Envelope::new(dest, Keyed { key, val }, mult)
            })
            .collect();
        let li_of = |v: VertexId| v;

        let frame = wire::encode_frame(&envs, li_of);
        let decoded = wire::decode_frame::<Keyed>(&frame, |li| li);
        prop_assert!(decoded.is_ok(), "intact frame must decode");
        prop_assert_eq!(decoded.unwrap().len(), envs.len());

        let mut bad = frame.clone();
        let bit = (flip as usize) % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            wire::decode_frame::<Keyed>(&bad, |li| li).is_err(),
            "bit {} flip must be detected", bit
        );

        // The checked (unframed) decoder may accept or reject a
        // corrupted body — but it must never panic.
        let mut body = wire::encode_bucket(&envs, li_of);
        if !body.is_empty() {
            let bit = (flip as usize) % (body.len() * 8);
            body[bit / 8] ^= 1 << (bit % 8);
            let _ = wire::try_decode_bucket::<Keyed>(&body, |li| li);
        }
    }

    /// `try_decode_bucket` is total on arbitrary byte soup: any input
    /// yields `Ok` or a typed `WireError`, never a panic.
    #[test]
    fn try_decode_is_total_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = wire::try_decode_bucket::<Keyed>(&bytes, |li| li);
    }
}
