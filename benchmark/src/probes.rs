//! Stand-alone timings of single layers, run once per traced run on the
//! workload's own graph. Each isolates one public function that the
//! workloads exercise only as a small part of something larger.

use crate::inputs;
use mtvc_cluster::{CostModel, RoundDemand};
use mtvc_core::{select_sources, Task};
use mtvc_engine::wire::{decode_frame, encode_frame};
use mtvc_engine::{
    vertex_rng, Context, Envelope, Inbox, LocalIndex, Outbox, PerSlab, ProgramCore, RouteGrid,
};
use mtvc_graph::ooc::{decode_chunk_into, encode_chunk, DecodedChunk};
use mtvc_graph::partition::Partition;
use mtvc_graph::Graph;
use mtvc_loadgen::Trace;
use mtvc_metrics::{Bytes, Histogram, RoundStats};
use mtvc_serve::{AdmissionController, DrrQueue, QueuePolicy, QueuedRequest, RequestId};
use mtvc_systems::SystemKind;
use mtvc_tasks::mssp::DistMsg;
use mtvc_tasks::MsspSlabProgram;
use mtvc_tune::{fit_exponential, train, OnlineMemoryModel};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per call of `f`, timed over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

pub struct OocProbe {
    pub decode_mb_per_s: f64,
    pub encoded_ratio: f64,
}

/// `graph::ooc`: encode each worker's adjacency as one chunk, then time
/// `decode_chunk_into` over all of them.
pub fn ooc(graph: &Graph, partition: &Partition) -> OocProbe {
    let lists = partition.worker_vertices();
    let encoded: Vec<Vec<u8>> = lists
        .iter()
        .map(|list| {
            let mut buf = Vec::new();
            encode_chunk(graph, list, &mut buf);
            buf
        })
        .collect();
    let mut chunk = DecodedChunk::default();
    let mut decoded_bytes = 0u64;
    for buf in &encoded {
        decode_chunk_into(buf, 0, &mut chunk);
        decoded_bytes += chunk.resident_bytes();
    }
    let secs = per_call(5, || {
        for buf in &encoded {
            decode_chunk_into(black_box(buf), 0, &mut chunk);
            black_box(chunk.len());
        }
    });
    let encoded_bytes: usize = encoded.iter().map(Vec::len).sum();
    OocProbe {
        decode_mb_per_s: decoded_bytes as f64 / 1e6 / secs,
        encoded_ratio: encoded_bytes as f64 / decoded_bytes as f64,
    }
}

pub struct WireProbe {
    pub encode_mb_per_s: f64,
    pub decode_mb_per_s: f64,
}

/// Queries in the MSSP batch whose traffic the wire probe captures.
const WIRE_PROBE_WIDTH: u64 = 8;

/// `engine::wire`: run an MSSP batch on the flat-outbox path, keep the
/// largest worker-0 → worker-1 bucket any round produced, and time
/// `encode_frame` / `decode_frame` on it.
pub fn wire(graph: &Graph, partition: &Partition, seed: u64) -> WireProbe {
    let locals = LocalIndex::build(partition);
    let workers = partition.num_workers();
    let sources = select_sources(graph, WIRE_PROBE_WIDTH, seed);
    let program = MsspSlabProgram::new(sources);
    let core = PerSlab::new(&program);
    let msg_bytes = core.message_bytes();
    let mut stores: Vec<_> = locals
        .worker_vertices()
        .iter()
        .map(|list| core.make_store(list))
        .collect();
    let mut outboxes: Vec<Outbox<DistMsg>> = (0..workers).map(|_| Outbox::new()).collect();
    let mut inboxes: Vec<Inbox<DistMsg>> = (0..workers).map(|_| Inbox::new()).collect();
    let mut grid: RouteGrid<DistMsg> = RouteGrid::new(workers);
    let mut bucket: Vec<Envelope<DistMsg>> = Vec::new();
    let to = 1 % workers;
    for round in 0.. {
        if round > 0 && inboxes.iter().all(|i| i.is_empty()) {
            break;
        }
        for (w, vertices) in locals.worker_vertices().iter().enumerate() {
            let outbox = &mut outboxes[w];
            outbox.clear();
            if round == 0 {
                for (li, &v) in vertices.iter().enumerate() {
                    let mut rng = vertex_rng(seed, round, v);
                    let mut ctx = Context::new(v, round, graph, &mut rng, outbox);
                    core.init_vertex(v, li as u32, &mut stores[w], &mut ctx);
                }
            } else {
                let inbox = &mut inboxes[w];
                let mut start = 0usize;
                for run in inbox.runs() {
                    let msgs = &inbox.deliveries()[start..run.end as usize];
                    start = run.end as usize;
                    let mut rng = vertex_rng(seed, round, run.dest);
                    let mut ctx = Context::new(run.dest, round, graph, &mut rng, outbox);
                    core.compute_vertex(run.dest, run.local, &mut stores[w], msgs, &mut ctx);
                }
                inbox.clear();
            }
        }
        let crossing = outboxes[0]
            .sends
            .iter()
            .filter(|e| partition.owner_of(e.dest) as usize == to)
            .count();
        if crossing > bucket.len() {
            bucket = outboxes[0]
                .sends
                .iter()
                .filter(|e| partition.owner_of(e.dest) as usize == to)
                .cloned()
                .collect();
        }
        grid.route_round(
            None,
            &mut outboxes,
            &mut inboxes,
            graph,
            partition,
            &locals,
            None,
            false,
            msg_bytes,
        );
    }
    let li_of = |v| locals.local_of(v);
    let vertex_of = |li: u32| locals.worker_vertices()[to][li as usize];
    let frame = encode_frame(&bucket, li_of);
    let reps = (2_000_000 / bucket.len().max(1)).clamp(3, 200);
    let encode_s = per_call(reps, || {
        black_box(encode_frame(black_box(&bucket), li_of));
    });
    let decode_s = per_call(reps, || {
        black_box(decode_frame::<DistMsg>(black_box(&frame), vertex_of).expect("clean frame"));
    });
    WireProbe {
        encode_mb_per_s: frame.len() as f64 / 1e6 / encode_s,
        decode_mb_per_s: frame.len() as f64 / 1e6 / decode_s,
    }
}

/// `cluster::CostModel::charge` on the demand of the busiest round of a
/// run (rebuilt from its `RoundStats`; the runner's own `RoundDemand`
/// is private). Nanoseconds per call.
pub fn charge_ns(peak_round: &RoundStats, workers: usize) -> f64 {
    let cluster = inputs::cluster();
    let mut demand = RoundDemand::zeros(workers, true);
    let share = |total: u64| total / workers as u64;
    for w in 0..workers {
        demand.compute_ops[w] = share(peak_round.messages_delivered) as f64;
        demand.net_out[w] = Bytes::new(share(peak_round.network_bytes.get()));
        demand.net_in[w] = Bytes::new(share(peak_round.network_bytes.get()));
        demand.memory[w] = peak_round.peak_machine_memory;
    }
    let model = CostModel::default();
    per_call(20_000, || {
        black_box(model.charge(&cluster.machine, black_box(&demand)).ok());
    }) * 1e9
}

pub struct TuneProbe {
    pub train_s: f64,
    pub fit_us: f64,
    pub model: OnlineMemoryModel,
}

/// `tune`: the training probes and the curve fit `TaskService::start`
/// runs for one shape, on the serving graph.
pub fn tune(small: &Graph, seed: u64) -> TuneProbe {
    let cluster = inputs::cluster();
    let t = Instant::now();
    let data = train(
        small,
        Task::mssp(256),
        SystemKind::PregelPlus,
        &cluster,
        seed,
    );
    let train_s = t.elapsed().as_secs_f64();
    let fit_s = per_call(20, || {
        black_box(fit_exponential(&data.workloads, &data.peak_memory, seed).ok());
    });
    TuneProbe {
        train_s,
        fit_us: fit_s * 1e6,
        model: OnlineMemoryModel::fit(&data, seed).expect("training data fits the memory curve"),
    }
}

pub struct QueueProbe {
    pub submit_ns: f64,
    pub take_batch_us: f64,
}

/// `serve::queue`: fill a stand-alone `DrrQueue` from `trace`, then
/// empty it with `take_batch`, as the batch former does.
pub fn queue(trace: &Trace) -> QueueProbe {
    const CAPACITY: usize = 512;
    const BATCH_UNITS: u64 = 32;
    let mut submit_s = 0.0;
    let mut submits = 0usize;
    let mut take_s = 0.0;
    let mut takes = 0usize;
    for chunk in trace.events.chunks(CAPACITY).take(8) {
        let queue = DrrQueue::new(CAPACITY, 16).with_policy(QueuePolicy::slo_aware());
        let now = Instant::now();
        let requests: Vec<QueuedRequest> = chunk
            .iter()
            .enumerate()
            .map(|(i, e)| QueuedRequest {
                id: RequestId(i as u64),
                // No deadline: the probe times dispatch, not expiry.
                request: mtvc_serve::TaskRequest::new(e.tenant, e.task).with_class(e.class),
                submitted: now,
                attempts: 0,
            })
            .collect();
        let t = Instant::now();
        for r in requests {
            // A full class reservation refuses a few; that is the path
            // being timed too.
            submits += 1;
            black_box(queue.try_submit(r).is_ok());
        }
        submit_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        while !queue.is_empty() {
            for shape in [Task::mssp(1), Task::bppr(1), Task::bkhs(1)] {
                takes += 1;
                black_box(queue.take_batch(&shape, BATCH_UNITS, now).taken.len());
            }
        }
        take_s += t.elapsed().as_secs_f64();
    }
    QueueProbe {
        submit_ns: submit_s / submits.max(1) as f64 * 1e9,
        take_batch_us: take_s / takes.max(1) as f64 * 1e6,
    }
}

/// `serve::admission`: reserve headroom for a batch and release it.
/// Nanoseconds per reserve + abort pair.
pub fn admission_reserve_ns(model: OnlineMemoryModel) -> f64 {
    let shape = Task::mssp(1);
    let mut admission = AdmissionController::new(&inputs::cluster(), 0.85, 4);
    admission.register(shape, model);
    per_call(20_000, || {
        let (id, residual) = admission.reserve(&shape, 16).expect("shape is registered");
        black_box(residual);
        admission.abort(id);
    }) * 1e9
}

/// `metrics::Histogram::record`, nanoseconds per call.
pub fn histogram_record_ns() -> f64 {
    let mut h = Histogram::new();
    let mut x = 0x9E37_79B9u64;
    let secs = per_call(200_000, || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        h.record(black_box(x >> 44));
    });
    black_box(h.count());
    secs * 1e9
}
