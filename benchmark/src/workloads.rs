//! The six workloads: how each is measured and how its metrics are
//! derived. Why each workload exists is recorded in `catalog.rs`
//! (printed into `BENCHMARK.json`) and in `README.md`.

use crate::alloc;
use crate::inputs::{self, Scale};
use crate::jobs::{Cell, CellRun, JobInputs, JobKind, OnGraph, Pass, Pools, Variant};
use crate::probes;
use crate::report::Outcome;
use crate::serving::{self, Fate, Offered, ServeInputs, ServeKind, ServeRun};
use crate::stats::{median, quantile_sorted, quartiles, sorted, tail_sorted};
use crate::trace::Tracer;
use crate::RunOpts;
use mtvc_core::Task;
use mtvc_graph::Graph;
use mtvc_metrics::RoundStats;
use mtvc_serve::SloClass;
use mtvc_systems::SystemKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job set-ups timed per run; `setup_s` is their median. A set-up takes
/// some 20 ms, so many are cheap.
const JOB_SETUP_REPS: usize = 15;
/// Serving set-ups timed per run (each trains three memory models).
const SERVE_SETUP_REPS: usize = 5;
/// Fewest timed passes of a job workload, however short the window.
const MIN_PASSES: usize = 3;
/// Share of late submissions above which a replay describes the load
/// generator (or a starved host), not the service. The replay thread
/// shares two cores with the former and the worker, so a few wake-ups
/// per thousand come late; on a shared host a whole minute can go by
/// with one core missing and a third of them late. Such a replay is
/// measured again, up to `MAX_REPLAYS` in all; the last one stands,
/// late or not (latency is timed from the due instant, so lateness is
/// counted, never hidden), and `loadgen.late_frac` reports it.
const MAX_LATE_FRAC: f64 = 0.05;
const MAX_REPLAYS: usize = 3;
/// Width of the slices a serving run is cut into, by due time.
const WINDOW: Duration = Duration::from_secs(1);

pub fn run(name: &str, opts: &RunOpts) -> Option<Outcome> {
    Some(match name {
        "job-wide" => job_workload("job-wide", JobKind::Wide, opts),
        "job-narrow" => job_workload("job-narrow", JobKind::Narrow, opts),
        "job-paged" => job_workload("job-paged", JobKind::Paged, opts),
        "job-recovery" => job_workload("job-recovery", JobKind::Recovery, opts),
        "serve-steady" => serve_workload("serve-steady", ServeKind::Steady, opts),
        "serve-overload" => serve_workload("serve-overload", ServeKind::Overload, opts),
        _ => return None,
    })
}

/// Where a traced run writes its spans.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("{workload}.trace.jsonl"))
}

fn write_trace(out: &mut Outcome, tracer: &Tracer) {
    let path = trace_path(out.workload);
    if let Err(e) = tracer.write_jsonl(&path) {
        out.violations
            .push(format!("cannot write {}: {e}", path.display()));
    }
}

/// The host is a small shared machine whose slow-downs come and go over
/// seconds and only ever add time. The lower quartile of repeated
/// timings therefore estimates what the program costs; the median
/// mostly tracks the host.
fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).map_or_else(|| median(values), |q| q[0])
}

fn upper_quartile(values: &[f64]) -> f64 {
    quartiles(values).map_or_else(|| median(values), |q| q[2])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ------------------------------------------------------------- jobs

fn walls(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_s).collect()
}

/// Run passes of `variant` until the window closes (a pass is started
/// only if one of typical length still fits), at least `MIN_PASSES`.
fn timed_passes(inputs: &JobInputs, variant: Variant, seconds: f64) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    let window = Instant::now();
    while passes.len() < MIN_PASSES
        || window.elapsed().as_secs_f64() + median(&walls(&passes)) <= seconds
    {
        passes.push(inputs.pass(variant));
    }
    passes
}

/// Checks every pass of a job workload must meet; fills `attempted` and
/// `failed`.
fn check_passes(out: &mut Outcome, inputs: &JobInputs, reference: &Pass, passes: &[Pass]) {
    let want = reference.fingerprint();
    for (i, p) in passes.iter().enumerate() {
        out.check(p.fingerprint() == want, || {
            format!("pass {i} differs from the first pass in rounds, messages or simulated time")
        });
        for (c, r) in inputs.cells.iter().zip(&p.cells) {
            out.attempted += r.batches;
            out.failed += r.batches - r.completed;
            out.check(r.workload == c.task.workload(), || {
                format!(
                    "pass {i} {}: batch workloads sum to {}, the task has {}",
                    c.layer,
                    r.workload,
                    c.task.workload()
                )
            });
        }
    }
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} batches did not complete"));
}

/// Validity of the two workloads that have a twin: `job-paged` must
/// really re-load and equal its resident twin; `job-recovery` must
/// really replay and equal its fault-free twin outside `faults`.
fn check_against_twin(out: &mut Outcome, inputs: &JobInputs, pass: &Pass) {
    if !matches!(inputs.kind, JobKind::Paged | JobKind::Recovery) {
        return;
    }
    let twin = inputs.pass(Variant::Reference);
    for ((c, got), want) in inputs.cells.iter().zip(&pass.cells).zip(&twin.cells) {
        let (g, w) = (&got.stats, &want.stats);
        let same_counts = g.rounds == w.rounds
            && g.total_messages_sent == w.total_messages_sent
            && g.total_messages_delivered == w.total_messages_delivered;
        out.check(same_counts, || {
            format!("{}: rounds or messages differ from the twin run", c.layer)
        });
        if inputs.kind == JobKind::Recovery {
            let same_rest = g.total_network_bytes == w.total_network_bytes
                && g.total_time.as_secs().to_bits() == w.total_time.as_secs().to_bits()
                && g.peak_memory == w.peak_memory;
            out.check(same_rest, || {
                format!(
                    "{}: statistics outside `faults` differ from the clean run",
                    c.layer
                )
            });
            out.check(g.faults.replayed_rounds > 0, || {
                format!("{}: no round was replayed", c.layer)
            });
        }
    }
    if inputs.kind == JobKind::Paged {
        let loaded: u64 = pass
            .cells
            .iter()
            .map(|r| r.stats.total_loaded_bytes.get())
            .sum();
        out.check(loaded >= 4 * inputs.adjacency_bytes, || {
            format!(
                "pager loaded {loaded} bytes, under 4x the adjacency ({} bytes): no re-load",
                inputs.adjacency_bytes
            )
        });
    }
}

fn job_workload(name: &'static str, kind: JobKind, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new(name, opts.seed, opts.traced);

    // ---- set-up, several times; the last one is used -------------
    let mut setup_s = Vec::with_capacity(JOB_SETUP_REPS);
    let mut generate_s = Vec::with_capacity(JOB_SETUP_REPS);
    let mut partition_s = Vec::with_capacity(JOB_SETUP_REPS);
    let mut inputs = None;
    for _ in 0..JOB_SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let built = JobInputs::build(kind, opts.scale, opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(built.generate_s);
        partition_s.push(built.partition_s);
        inputs = Some(built);
    }
    let inputs = inputs.expect("JOB_SETUP_REPS >= 1");

    // ---- correctness, untimed ------------------------------------
    out.violations.extend(inputs.verify());

    // ---- measured section ----------------------------------------
    alloc::reset_peak();
    let cold = inputs.pass(Variant::Workload);
    check_against_twin(&mut out, &inputs, &cold);

    if !opts.traced {
        let passes = timed_passes(&inputs, Variant::Workload, opts.seconds);
        let peak = alloc::peak_bytes();
        check_passes(&mut out, &inputs, &cold, &passes);
        let walls = walls(&passes);
        let typical = lower_quartile(&walls);
        let n = passes.len() as u64;
        out.set("setup_s", median(&setup_s), JOB_SETUP_REPS as u64);
        out.set("latency_ms", typical * 1e3, n);
        out.set(
            "goodput_tasks_per_s",
            inputs.unit_tasks() as f64 / typical,
            n,
        );
        out.set("peak_alloc_mb", alloc::mib(peak), 0);
        return out;
    }

    // ---- traced run ----------------------------------------------
    // Untraced and traced passes alternate, so both sample the same
    // stretches of host noise.
    let pools = Pools::default();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Tracer)> = Vec::new();
    let window = Instant::now();
    while traced.len() < 2
        || window.elapsed().as_secs_f64() + 2.0 * median(&walls(&untraced)) <= opts.seconds
    {
        untraced.push(inputs.pass(Variant::Workload));
        let mut tracer = Tracer::new(name);
        let pass = inputs.traced_pass(&mut tracer, &pools);
        traced.push((pass, tracer));
    }
    check_passes(&mut out, &inputs, &cold, &untraced);
    for (i, (p, _)) in traced.iter().enumerate() {
        out.check(p.fingerprint() == cold.fingerprint(), || {
            format!("traced replica {i} differs from run_job in rounds, messages or simulated time")
        });
    }

    out.set(
        "graph.generate_s",
        median(&generate_s),
        JOB_SETUP_REPS as u64,
    );
    out.set(
        "graph.partition_s",
        median(&partition_s),
        JOB_SETUP_REPS as u64,
    );
    out.set("core.cold_pass_s", cold.wall_s, 1);

    let traced_walls: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
    let overhead = lower_quartile(&traced_walls) / lower_quartile(&walls(&untraced)) - 1.0;
    out.set("trace.overhead_frac", overhead, traced.len() as u64);

    // The traced pass closest to the typical one speaks for the layers.
    let typical = lower_quartile(&traced_walls);
    let (pass, mut tracer) = traced
        .into_iter()
        .min_by(|a, b| {
            let d = |p: &Pass| (p.wall_s - typical).abs();
            d(&a.0)
                .partial_cmp(&d(&b.0))
                .expect("wall times are finite")
        })
        .expect("at least two traced passes");
    let peak_round = replica_layers(&mut out, &inputs, &pass, &mut tracer, &pools);
    if kind == JobKind::Recovery {
        let three = |variant| {
            let passes: Vec<Pass> = (0..3).map(|_| inputs.pass(variant)).collect();
            lower_quartile(&walls(&passes))
        };
        let (on, off) = (three(Variant::CheckpointsOnly), three(Variant::Reference));
        out.set("engine.checkpoint_overhead_frac", on / off - 1.0, 3);
    }
    let small = inputs::graph(opts.scale.small(), opts.seed);
    let probe_trace = serving::probe_trace(opts.seed);
    layer_probes(&mut out, &inputs, &small, &probe_trace, peak_round.as_ref());
    write_trace(&mut out, &tracer);
    out
}

/// Per-layer metrics of a traced replica pass plus the staged round
/// loop: `engine.*`, `tasks.*`, `cluster.sim_time_s`, `core.*`,
/// `trace.attributed_frac`. Returns the round of the pass that sent
/// the most messages.
fn replica_layers(
    out: &mut Outcome,
    inputs: &JobInputs,
    pass: &Pass,
    tracer: &mut Tracer,
    pools: &Pools,
) -> Option<RoundStats> {
    let run_slab_s = tracer.total_secs("engine.run_slab");
    let runner_new_s = tracer.total_secs("engine.runner_new");
    let totals = tracer.totals();
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let unattributed_s = (self_ns("pass") + self_ns("job") + self_ns("batch")) * 1e-9;
    out.set(
        "trace.attributed_frac",
        1.0 - unattributed_s / pass.wall_s,
        1,
    );
    out.set("core.run_job_self_s", unattributed_s, 1);

    let sum = |f: &dyn Fn(&CellRun) -> u64| pass.cells.iter().map(f).sum::<u64>() as f64;
    let rounds = sum(&|r| r.stats.rounds as u64);
    let sent = sum(&|r| r.stats.total_messages_sent);
    let delivered = sum(&|r| r.stats.total_messages_delivered);
    out.set("engine.run_slab_s", run_slab_s, 1);
    out.set("engine.runner_new_s", runner_new_s, 1);
    out.set("engine.rounds", rounds, 0);
    out.set("engine.round_us", run_slab_s / rounds * 1e6, rounds as u64);
    out.set("engine.msgs_sent", sent, 0);
    out.set("engine.msgs_delivered", delivered, 0);
    out.set("engine.combine_ratio", delivered / sent, 0);
    out.set("engine.msgs_per_s", sent / run_slab_s, 1);
    out.set(
        "engine.network_bytes",
        sum(&|r| r.stats.total_network_bytes.get()),
        0,
    );
    out.set(
        "engine.shard_copy_bytes",
        sum(&|r| r.stats.total_shard_copy_bytes.get()),
        0,
    );
    out.set(
        "engine.encoded_wire_bytes",
        sum(&|r| r.stats.total_encoded_wire_bytes.get()),
        0,
    );
    let loaded = sum(&|r| r.stats.total_loaded_bytes.get());
    out.set("engine.paging.loaded_bytes", loaded, 0);
    out.set(
        "engine.paging.partition_loads",
        sum(&|r| r.stats.total_partition_loads),
        0,
    );
    out.set(
        "engine.paging.partitions_skipped",
        sum(&|r| r.stats.total_partitions_skipped),
        0,
    );
    out.set(
        "engine.paging.peak_resident_bytes",
        pass.cells
            .iter()
            .map(|r| r.stats.peak_paged_resident_bytes.get())
            .max()
            .unwrap_or(0) as f64,
        0,
    );
    if inputs.adjacency_bytes > 0 {
        out.set(
            "engine.paging.load_amplification",
            loaded / inputs.adjacency_bytes as f64,
            0,
        );
    }
    out.set(
        "engine.checkpoint.full_bytes",
        sum(&|r| r.stats.faults.checkpoint_full_bytes.get()),
        0,
    );
    out.set(
        "engine.checkpoint.delta_bytes",
        sum(&|r| r.stats.faults.checkpoint_delta_bytes.get()),
        0,
    );
    out.set(
        "engine.replayed_rounds",
        sum(&|r| r.stats.faults.replayed_rounds),
        0,
    );
    out.set(
        "engine.retransmitted_buckets",
        sum(&|r| r.stats.faults.retransmitted_buckets),
        0,
    );
    out.set(
        "cluster.sim_time_s",
        pass.cells.iter().map(|r| r.sim_s).sum(),
        0,
    );
    out.set("core.batches", sum(&|r| r.batches), 0);
    for (c, r) in inputs.cells.iter().zip(&pass.cells) {
        out.set(&format!("tasks.{}.wall_s", c.layer), r.wall_s, 1);
        out.set(
            &format!("tasks.{}.msgs_per_s", c.layer),
            r.stats.total_messages_sent as f64 / r.wall_s,
            1,
        );
    }

    // Staged round loop: compute and routing timed apart.
    let mut compute_s = 0.0;
    let mut route_s = 0.0;
    let mut round_alloc = Vec::new();
    for (ci, (c, r)) in inputs.cells.iter().zip(&pass.cells).enumerate() {
        let staged = inputs.staged_cell(ci, tracer, pools);
        let same = staged.rounds == r.stats.rounds
            && staged.sent_wire == r.stats.total_messages_sent
            && staged.delivered == r.stats.total_messages_delivered;
        out.check(same, || {
            format!(
                "{}: staged round loop ran {} rounds / {} sent / {} delivered, \
                 the Runner {} / {} / {}",
                c.layer,
                staged.rounds,
                staged.sent_wire,
                staged.delivered,
                r.stats.rounds,
                r.stats.total_messages_sent,
                r.stats.total_messages_delivered
            )
        });
        compute_s += staged.compute_s;
        route_s += staged.route_s;
        round_alloc.extend(staged.steady_round_alloc);
    }
    out.set("engine.compute_s", compute_s, 1);
    out.set("engine.route_s", route_s, 1);
    // The two sides are timed minutes of host noise apart; where the
    // runner adds next to nothing the difference can dip below zero.
    out.set(
        "engine.runner_self_s",
        (run_slab_s - compute_s - route_s).max(0.0),
        1,
    );
    out.set(
        "engine.alloc_bytes_per_round",
        median(&round_alloc),
        round_alloc.len() as u64,
    );

    pass.cells
        .iter()
        .flat_map(|r| r.stats.per_round.iter())
        .max_by_key(|r| r.messages_sent)
        .cloned()
}

/// Stand-alone layer timings, taken on every traced run.
fn layer_probes(
    out: &mut Outcome,
    inputs: &JobInputs,
    small: &Graph,
    trace: &mtvc_loadgen::Trace,
    peak_round: Option<&RoundStats>,
) {
    let c = &inputs.cells[0];
    let (graph, partition) = (inputs.graph(c), inputs.partition(0));
    let ooc = probes::ooc(graph, partition);
    out.set("graph.ooc.decode_mb_per_s", ooc.decode_mb_per_s, 5);
    out.set("graph.ooc.encoded_ratio", ooc.encoded_ratio, 0);
    let wire = probes::wire(graph, partition, inputs.seed);
    out.set("engine.wire.encode_mb_per_s", wire.encode_mb_per_s, 1);
    out.set("engine.wire.decode_mb_per_s", wire.decode_mb_per_s, 1);
    if let Some(round) = peak_round {
        out.set(
            "cluster.charge_ns",
            probes::charge_ns(round, partition.num_workers()),
            20_000,
        );
    }
    let tune = probes::tune(small, inputs.seed);
    out.set("tune.train_s", tune.train_s, 1);
    out.set("tune.fit_us", tune.fit_us, 20);
    out.set(
        "serve.admission.reserve_ns",
        probes::admission_reserve_ns(tune.model),
        20_000,
    );
    let queue = probes::queue(trace);
    out.set("serve.queue.submit_ns", queue.submit_ns, trace.len() as u64);
    out.set("serve.queue.take_batch_us", queue.take_batch_us, 1);
    let t = Instant::now();
    let regenerated = serving::probe_trace(inputs.seed);
    let secs = t.elapsed().as_secs_f64();
    out.check(regenerated.fingerprint() == trace.fingerprint(), || {
        "the same seed generated two different traces".to_string()
    });
    out.set(
        "loadgen.generate_events_per_s",
        regenerated.len() as f64 / secs,
        regenerated.len() as u64,
    );
    out.set(
        "metrics.histogram_record_ns",
        probes::histogram_record_ns(),
        200_000,
    );
}

// ---------------------------------------------------------- serving

/// Batch width of the representative batches whose layers a traced
/// serving run reports: near the mean width the service forms at each
/// load (2.7 at 200 req/s, about 20 at 1 000 req/s under the cap).
fn representative_width(kind: ServeKind) -> u64 {
    match kind {
        ServeKind::Steady => 3,
        ServeKind::Overload => 20,
    }
}

fn serve_workload(name: &'static str, kind: ServeKind, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new(name, opts.seed, opts.traced);

    // ---- set-up, several times; the last one is used -------------
    let mut setup_s = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut inputs: Option<ServeInputs> = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some(old) = inputs.take() {
            old.service.shutdown();
        }
        let t = Instant::now();
        inputs = Some(ServeInputs::build(
            kind,
            opts.scale,
            opts.seed,
            opts.seconds,
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SERVE_SETUP_REPS >= 1");
    let graph = inputs.graph.clone();
    let generate_s = inputs.generate_s;
    let events = inputs.trace.len() as u64;
    let again = serving::trace(kind, "measured", opts.seconds, opts.seed);
    out.check(again.fingerprint() == inputs.trace.fingerprint(), || {
        "the same seed generated two different traces".to_string()
    });

    // ---- correctness of what the service executes, untimed -------
    let width = representative_width(kind);
    let replica_inputs = serve_replica_inputs(&graph, width, opts.scale, opts.seed);
    out.violations.extend(replica_inputs.verify());

    // ---- measured section ----------------------------------------
    let mut inputs = Some(inputs);
    let mut replays = 0;
    let (run, peak) = loop {
        let inputs = inputs
            .take()
            .unwrap_or_else(|| ServeInputs::build(kind, opts.scale, opts.seed, opts.seconds));
        alloc::reset_peak();
        let run = serving::run(inputs);
        let peak = alloc::peak_bytes();
        replays += 1;
        let late = late_frac(&run.offered);
        if late <= MAX_LATE_FRAC || replays == MAX_REPLAYS {
            break (run, peak);
        }
        eprintln!(
            "{name}: load generator late on {:.1} % of requests, measuring again",
            late * 100.0
        );
    };
    let offered = &run.offered;
    check_serving(&mut out, &run, events);

    let windows = (opts.seconds / WINDOW.as_secs_f64()).floor().max(1.0) as usize;
    let mut latency_by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut goodput_by_window = vec![0u64; windows];
    for o in offered {
        let w = (o.due.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if w >= windows {
            continue;
        }
        // Under overload a request waits in the queue for as long as its
        // deadline lets it (or is shed); that wait is set by the mix of
        // deadlines, not by how fast the system is, and it wanders from
        // run to run. What the system controls is how long the batch
        // that carried the request ran, so that is the latency quoted.
        let latency = match (kind, &o.fate) {
            (ServeKind::Steady, _) => o.served_latency(),
            (ServeKind::Overload, Fate::Done(c)) if c.outcome.is_served() => {
                Some(c.latency.saturating_sub(c.queue_wait))
            }
            (ServeKind::Overload, _) => None,
        };
        if let Some(l) = latency {
            latency_by_window[w].push(ms(l));
        }
        if o.in_time() {
            goodput_by_window[w] += o.workload;
        }
    }
    let window_p50: Vec<f64> = latency_by_window
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| quantile_sorted(&sorted(l), 0.5))
        .collect();
    let window_goodput: Vec<f64> = goodput_by_window
        .iter()
        .map(|&t| t as f64 / WINDOW.as_secs_f64())
        .collect();
    out.check(!window_p50.is_empty(), || {
        "no request was served".to_string()
    });

    if !opts.traced {
        let served = latency_by_window.iter().map(Vec::len).sum::<usize>() as u64;
        out.set("setup_s", median(&setup_s), SERVE_SETUP_REPS as u64);
        out.set("latency_ms", lower_quartile(&window_p50), served);
        out.set(
            "goodput_tasks_per_s",
            upper_quartile(&window_goodput),
            offered.iter().filter(|o| o.in_time()).count() as u64,
        );
        out.set("peak_alloc_mb", alloc::mib(peak), 0);
        return out;
    }

    // ---- traced run: spans rebuilt from each Completion ----------
    let mut tracer = Tracer::new(name);
    request_spans(&mut tracer, offered);
    serve_layers(&mut out, &run);
    // The traced run executes exactly what the untraced run does (the
    // spans are built afterwards), so tracing costs it nothing.
    out.set("trace.overhead_frac", 0.0, 0);
    out.set("graph.generate_s", generate_s, 1);

    // What a batch of typical width costs in each engine layer.
    let pools = Pools::default();
    let cold = replica_inputs.pass(Variant::Workload);
    let mut batch_tracer = Tracer::new(name);
    let pass = replica_inputs.traced_pass(&mut batch_tracer, &pools);
    out.check(pass.fingerprint() == cold.fingerprint(), || {
        "traced replica differs from run_job in rounds, messages or simulated time".to_string()
    });
    out.set("graph.partition_s", replica_inputs.partition_s, 1);
    out.set("core.cold_pass_s", cold.wall_s, 1);
    let peak_round = replica_layers(&mut out, &replica_inputs, &pass, &mut batch_tracer, &pools);
    let probe_trace = serving::probe_trace(opts.seed);
    layer_probes(
        &mut out,
        &replica_inputs,
        &graph,
        &probe_trace,
        peak_round.as_ref(),
    );
    write_trace(&mut out, &tracer);
    out
}

/// One batch per shape at `width`, under the service's system, on the
/// serving graph.
fn serve_replica_inputs(graph: &Arc<Graph>, width: u64, scale: Scale, seed: u64) -> JobInputs {
    let width = (width / scale.shrink()).max(1);
    let cell = |layer, task: Task| Cell {
        layer,
        task: task.with_workload(width),
        system: SystemKind::PregelPlus,
        batches: 1,
        on: OnGraph::Big,
    };
    let cells = vec![
        cell("mssp", Task::mssp(1)),
        cell("bkhs", Task::bkhs(1)),
        cell("bppr", Task::bppr(1)),
    ];
    JobInputs::from_cells(JobKind::Wide, seed, cells, graph.clone(), None)
}

/// Accounting every serving run must satisfy; fills `attempted` and
/// `failed`.
fn check_serving(out: &mut Outcome, run: &ServeRun, events: u64) {
    let count =
        |set: &[Offered], f: &dyn Fn(&Offered) -> bool| set.iter().filter(|o| f(o)).count() as u64;
    let offered = &run.offered;
    let shed = count(offered, &|o| matches!(o.fate, Fate::Shed));
    let refused = count(offered, &|o| matches!(o.fate, Fate::Refused));
    let submitted = count(offered, &|o| matches!(o.fate, Fate::Done(_)));
    let warm_submitted = count(&run.warmup, &|o| matches!(o.fate, Fate::Done(_)));
    out.attempted = events;
    out.failed = count(offered, &|o| o.errored());
    out.check(submitted + shed + refused == events, || {
        format!("{events} events, but {submitted} submitted + {shed} shed + {refused} refused")
    });
    out.check(refused == 0, || {
        format!("{refused} requests refused outright")
    });
    out.check(run.report.requests() == submitted + warm_submitted, || {
        format!(
            "the service reports {} terminal outcomes, the driver holds {} tickets",
            run.report.requests(),
            submitted + warm_submitted
        )
    });
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} requests failed or were rejected")
    });
}

/// Share of requests submitted more than `LATE_AFTER` past their due
/// instant.
fn late_frac(offered: &[Offered]) -> f64 {
    let late = offered
        .iter()
        .filter(|o| o.lateness > serving::LATE_AFTER)
        .count();
    late as f64 / offered.len().max(1) as f64
}

/// `request` → {`loadgen.late`, `serve.queue`, `serve.execute`} for
/// every request that got a ticket; times are since the replay began.
fn request_spans(tracer: &mut Tracer, offered: &[Offered]) {
    let ns = |d: Duration| d.as_nanos() as u64;
    for o in offered {
        let Fate::Done(c) = &o.fate else { continue };
        let key = c.id.0;
        let due = ns(o.due);
        let submit = due + ns(o.lateness);
        let dispatched = submit + ns(c.queue_wait);
        let done = submit + ns(c.latency);
        let request = tracer.record("request", None, key, due, done);
        tracer.record("loadgen.late", Some(request), key, due, submit);
        tracer.record("serve.queue", Some(request), key, submit, dispatched);
        if c.outcome.is_served() {
            tracer.record("serve.execute", Some(request), key, dispatched, done);
        }
    }
}

/// `serve.*` and `loadgen.*` metrics of a traced serving run.
fn serve_layers(out: &mut Outcome, run: &ServeRun) {
    let offered = &run.offered;
    let events = offered.len() as u64;
    let done: Vec<&mtvc_serve::Completion> = offered
        .iter()
        .filter_map(|o| match &o.fate {
            Fate::Done(c) => Some(c),
            _ => None,
        })
        .collect();
    // Median, and the 99th percentile where at least ten samples lie
    // beyond it (a lower percentile, or the maximum, where not).
    let quantiles = |values: Vec<f64>| {
        let v = sorted(&values);
        (
            quantile_sorted(&v, 0.5),
            tail_sorted(&v, 0.99).0,
            v.len() as u64,
        )
    };
    let (p50, p99, served) = quantiles(
        offered
            .iter()
            .filter_map(|o| o.served_latency().map(ms))
            .collect(),
    );
    out.set("serve.latency_p50_ms", p50, served);
    out.set("serve.latency_p99_ms", p99, served);
    let (p50, p99, n) = quantiles(done.iter().map(|c| ms(c.queue_wait)).collect());
    out.set("serve.queue_wait_p50_ms", p50, n);
    out.set("serve.queue_wait_p99_ms", p99, n);
    let (p50, p99, n) = quantiles(
        done.iter()
            .filter(|c| c.outcome.is_served())
            .map(|c| ms(c.latency.saturating_sub(c.queue_wait)))
            .collect(),
    );
    out.set("serve.execute_p50_ms", p50, n);
    out.set("serve.execute_p99_ms", p99, n);
    for class in SloClass::ALL {
        let (_, p99, n) = quantiles(
            offered
                .iter()
                .filter(|o| o.class == class)
                .filter_map(|o| o.served_latency().map(ms))
                .collect(),
        );
        out.set(&format!("serve.{}.p99_ms", class.label()), p99, n);
    }
    let interactive = offered.iter().filter(|o| o.class == SloClass::Interactive);
    let (met, all) = interactive.fold((0u64, 0u64), |(met, all), o| {
        (met + u64::from(o.in_time()), all + 1)
    });
    out.set(
        "serve.interactive.met_frac",
        met as f64 / all.max(1) as f64,
        all,
    );
    out.set(
        "serve.unserved_frac",
        (events - served) as f64 / events as f64,
        events,
    );
    let r = &run.report;
    out.set("serve.batches", r.batches as f64, 0);
    out.set(
        "serve.batch_workload_mean",
        r.batch_workload.mean(),
        r.batches,
    );
    out.set("serve.max_queue_depth", r.max_queue_depth as f64, 0);
    out.set(
        "serve.queue_depth_twa",
        r.queue_depth_series.time_weighted_mean(),
        r.queue_depth_series.len() as u64,
    );
    let shed = offered
        .iter()
        .filter(|o| matches!(o.fate, Fate::Shed))
        .count();
    out.set("serve.shed", shed as f64, 0);
    out.set(
        "serve.expired_in_queue",
        r.class.iter().map(|c| c.expired_in_queue).sum::<u64>() as f64,
        0,
    );
    out.set("serve.failed", r.failed as f64, 0);
    out.set("serve.retries", r.retries as f64, 0);
    out.set("serve.refits", r.refits as f64, 0);
    out.set("serve.controller.narrowed", r.controller.narrowed as f64, 0);
    out.set("serve.controller.widened", r.controller.widened as f64, 0);
    out.set(
        "serve.controller.deadline_capped",
        r.controller.deadline_capped as f64,
        0,
    );
    let (_, late_p99, n) = quantiles(offered.iter().map(|o| ms(o.lateness)).collect());
    out.set("loadgen.lateness_p99_ms", late_p99, n);
    out.set("loadgen.late_frac", late_frac(offered), events);
}
