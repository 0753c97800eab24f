//! Golden simulated statistics: a fixed matrix of jobs rendered field
//! by field into `tests/golden/run_stats.txt`, and diffed against it.
//!
//! Every simulated number the model produces — each `RunStats`,
//! `FaultStats` and `BatchOutcome` field, every per-round series, f64s
//! by bit pattern — is one named line. A change to the cost model, the
//! ledger, recovery or the router's byte counts fails here on the
//! line it moves; a change that only moves host work (buffers, threads,
//! copies) leaves the file alone, except `shard_copy_bytes`, which
//! counts host copies by design.
//!
//! The matrix: the seven systems × MSSP/BKHS/BPPR through `run_job`,
//! once as a single width-1 batch and once as three batches of 32
//! (both sides of the row/lane kernel cut-over); GraphD resident and
//! paged (a partition cache of 0.4× a worker's adjacency); one plan
//! of all five recoverable fault kinds at checkpoint cadence 1 and 3;
//! two batches each at widths 7, 8 and 9 (either side of the row/lane
//! cut-over, so slab blocks of three sizes) under a plain, a mirroring
//! and a combining system; one hard-OOM batch that
//! `run_batch_bisecting` narrows until it fits; and one job stopped by
//! its overload cutoff.
//!
//! To accept an intended change, regenerate and review the diff:
//!
//! ```sh
//! MTVC_GOLDEN_REGEN=1 cargo test -q --test golden
//! git diff tests/golden/run_stats.txt
//! ```

use mtvc::cluster::{ClusterSpec, FaultPlan};
use mtvc::engine::{LocalIndex, PagedLayout, PagingConfig};
use mtvc::graph::partition::{HashPartitioner, Partitioner};
use mtvc::graph::{generators, Graph};
use mtvc::metrics::{Bytes, FaultStats, RoundStats, RunOutcome, RunStats, SimTime};
use mtvc::multitask::{
    run_job, select_sources, BatchOutcome, BatchRunner, BatchSchedule, JobSpec, LadderStep,
    RecoveredBatch, Task,
};
use mtvc::systems::SystemKind;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// The environment switch that rewrites the golden file instead of
/// checking against it.
const REGEN: &str = "MTVC_GOLDEN_REGEN";
const MACHINES: usize = 4;
/// Share of the largest worker's decoded adjacency the paged GraphD
/// cells' partition cache may hold.
const PAGED_SHARE: f64 = 0.4;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_stats.txt")
}

fn graph() -> Graph {
    generators::power_law(240, 1_200, 2.4, 0x601D)
}

fn tasks(width: u64) -> [Task; 3] {
    [Task::mssp(width), Task::bkhs(width), Task::bppr(width)]
}

/// Single width-1 batch, and three batches of 32.
fn schedules() -> [(&'static str, BatchSchedule); 2] {
    [
        ("1x1", BatchSchedule::equal(1, 1)),
        ("32x3", BatchSchedule::equal(96, 3)),
    ]
}

/// Widths either side of the row/lane cut-over, each run as two
/// batches, and the systems they run under: plain message passing,
/// mirroring (the broadcast kernels) and combining.
const CUTOVER_WIDTHS: [u64; 3] = [7, 8, 9];
const CUTOVER_SYSTEMS: [SystemKind; 3] = [
    SystemKind::PregelPlus,
    SystemKind::PregelPlusMirror,
    SystemKind::GraphLab,
];

/// A cluster whose GraphD partition cache (2 % of usable memory) is
/// [`PAGED_SHARE`] of the largest worker's decoded adjacency, so every
/// round re-loads partitions.
fn paged_cluster(g: &Graph) -> ClusterSpec {
    let cluster = ClusterSpec::galaxy(MACHINES);
    let part = HashPartitioner::default().partition(g, MACHINES);
    let locals = LocalIndex::build(&part);
    let probe = PagingConfig::with_budget(Bytes::new(1 << 20));
    let layout = PagedLayout::build(g, locals.worker_vertices(), probe);
    let adj = layout.adjacency();
    let largest = (0..adj.workers()).map(|w| adj.decoded_bytes(w)).max();
    let largest = largest.expect("at least one worker") as f64;
    let usable = cluster.machine.usable_memory().as_f64();
    cluster.scaled(usable * 0.02 / (PAGED_SHARE * largest))
}

/// Every recoverable fault kind once, on the rounds a small job
/// reaches.
fn five_kind_plan() -> FaultPlan {
    FaultPlan::none()
        .with_straggler(1, 1, 300, 2)
        .with_crash(2, 0)
        .with_corruption(2, 2, 2)
        .with_delivery_failure(3, 1)
        .with_partition(4, 1)
}

/// `key value` lines under one cell's name.
struct Render<'a> {
    out: &'a mut String,
    cell: &'a str,
}

impl Render<'_> {
    fn line(&mut self, key: &str, value: impl std::fmt::Display) {
        writeln!(self.out, "{} {key} {value}", self.cell).expect("write to a String");
    }

    fn f64(&mut self, key: &str, x: f64) {
        self.line(key, format_args!("{:#018x}", x.to_bits()));
    }

    fn time(&mut self, key: &str, t: SimTime) {
        self.f64(key, t.as_secs());
    }

    fn bytes(&mut self, key: &str, b: Bytes) {
        self.line(key, b.get());
    }

    fn outcome(&mut self, key: &str, o: RunOutcome) {
        match o {
            RunOutcome::Completed(t) => self.line(
                key,
                format_args!("Completed({:#018x})", t.as_secs().to_bits()),
            ),
            other => self.line(key, format_args!("{other:?}")),
        }
    }

    /// One line per field. Destructured exhaustively, so a new field
    /// does not compile until it is rendered.
    fn run_stats(&mut self, s: &RunStats) {
        let RunStats {
            rounds,
            total_messages_sent,
            total_messages_delivered,
            total_network_bytes,
            total_encoded_wire_bytes,
            total_shard_copy_bytes,
            total_spilled_bytes,
            total_loaded_bytes,
            total_partition_loads,
            total_partitions_skipped,
            peak_paged_resident_bytes,
            peak_memory,
            peak_state_bytes,
            total_time,
            network_overuse,
            disk_overuse,
            max_disk_utilization,
            max_io_queue_len,
            faults,
            per_round,
        } = s;
        self.line("rounds", rounds);
        self.line("total_messages_sent", total_messages_sent);
        self.line("total_messages_delivered", total_messages_delivered);
        self.bytes("total_network_bytes", *total_network_bytes);
        self.bytes("total_encoded_wire_bytes", *total_encoded_wire_bytes);
        self.bytes("total_shard_copy_bytes", *total_shard_copy_bytes);
        self.bytes("total_spilled_bytes", *total_spilled_bytes);
        self.bytes("total_loaded_bytes", *total_loaded_bytes);
        self.line("total_partition_loads", total_partition_loads);
        self.line("total_partitions_skipped", total_partitions_skipped);
        self.bytes("peak_paged_resident_bytes", *peak_paged_resident_bytes);
        self.bytes("peak_memory", *peak_memory);
        self.bytes("peak_state_bytes", *peak_state_bytes);
        self.time("total_time", *total_time);
        self.time("network_overuse", *network_overuse);
        self.time("disk_overuse", *disk_overuse);
        self.f64("max_disk_utilization", *max_disk_utilization);
        self.f64("max_io_queue_len", *max_io_queue_len);
        self.faults(faults);
        self.per_round(per_round);
    }

    fn faults(&mut self, f: &FaultStats) {
        let FaultStats {
            injected,
            crashes,
            delivery_failures,
            stragglers,
            partitions,
            oom_kills,
            checkpoints,
            checkpoint_full_bytes,
            checkpoint_delta_bytes,
            replayed_rounds,
            replayed_wire,
            corrupted_buckets,
            retransmitted_buckets,
            retransmitted_bytes,
            recovery_time,
            straggler_time,
        } = f;
        self.line("faults.injected", injected);
        self.line("faults.crashes", crashes);
        self.line("faults.delivery_failures", delivery_failures);
        self.line("faults.stragglers", stragglers);
        self.line("faults.partitions", partitions);
        self.line("faults.oom_kills", oom_kills);
        self.line("faults.checkpoints", checkpoints);
        self.bytes("faults.checkpoint_full_bytes", *checkpoint_full_bytes);
        self.bytes("faults.checkpoint_delta_bytes", *checkpoint_delta_bytes);
        self.line("faults.replayed_rounds", replayed_rounds);
        self.line("faults.replayed_wire", replayed_wire);
        self.line("faults.corrupted_buckets", corrupted_buckets);
        self.line("faults.retransmitted_buckets", retransmitted_buckets);
        self.bytes("faults.retransmitted_bytes", *retransmitted_bytes);
        self.time("faults.recovery_time", *recovery_time);
        self.time("faults.straggler_time", *straggler_time);
    }

    /// Each per-round field as one line: the series over every round,
    /// so a moved number names its field.
    fn per_round(&mut self, rounds: &[RoundStats]) {
        let names = round_fields(&RoundStats::default()).map(|(name, _)| name);
        let mut series = names.map(|_| Vec::with_capacity(rounds.len()));
        for r in rounds {
            for (values, (_, v)) in series.iter_mut().zip(round_fields(r)) {
                values.push(v);
            }
        }
        for (name, values) in names.iter().zip(series) {
            self.line(&format!("per_round.{name}"), values.join(","));
        }
    }

    fn batch(&mut self, i: usize, b: &BatchOutcome) {
        let BatchOutcome {
            workload,
            kernel,
            outcome,
            time,
            peak_memory,
            residual_after,
            residual_max_worker,
        } = b;
        self.line(&format!("batch[{i}].workload"), workload);
        self.line(&format!("batch[{i}].kernel"), format_args!("{kernel:?}"));
        self.outcome(&format!("batch[{i}].outcome"), *outcome);
        self.time(&format!("batch[{i}].time"), *time);
        self.bytes(&format!("batch[{i}].peak_memory"), *peak_memory);
        self.line(&format!("batch[{i}].residual_after"), residual_after);
        self.line(
            &format!("batch[{i}].residual_max_worker"),
            residual_max_worker,
        );
    }
}

/// Every field of one round, named, f64s by bit pattern. Destructured
/// exhaustively, like [`Render::run_stats`].
fn round_fields(r: &RoundStats) -> [(&'static str, String); 18] {
    let RoundStats {
        round,
        messages_sent,
        messages_delivered,
        network_bytes,
        local_bytes,
        shard_copy_bytes,
        active_vertices,
        peak_machine_memory,
        state_bytes,
        spilled_bytes,
        loaded_bytes,
        partition_loads,
        paged_resident_bytes,
        duration,
        network_overuse,
        disk_overuse,
        disk_busy,
        io_queue_len,
    } = r;
    let bits = |x: f64| format!("{:x}", x.to_bits());
    [
        ("round", round.to_string()),
        ("messages_sent", messages_sent.to_string()),
        ("messages_delivered", messages_delivered.to_string()),
        ("network_bytes", network_bytes.get().to_string()),
        ("local_bytes", local_bytes.get().to_string()),
        ("shard_copy_bytes", shard_copy_bytes.get().to_string()),
        ("active_vertices", active_vertices.to_string()),
        ("peak_machine_memory", peak_machine_memory.get().to_string()),
        ("state_bytes", state_bytes.get().to_string()),
        ("spilled_bytes", spilled_bytes.get().to_string()),
        ("loaded_bytes", loaded_bytes.get().to_string()),
        ("partition_loads", partition_loads.to_string()),
        (
            "paged_resident_bytes",
            paged_resident_bytes.get().to_string(),
        ),
        ("duration", bits(duration.as_secs())),
        ("network_overuse", bits(network_overuse.as_secs())),
        ("disk_overuse", bits(disk_overuse.as_secs())),
        ("disk_busy", bits(disk_busy.as_secs())),
        ("io_queue_len", bits(*io_queue_len)),
    ]
}

/// One `run_job` cell: outcome, monetary cost, stats and per-batch
/// outcomes.
fn render_job(out: &mut String, cell: &str, g: &Graph, spec: &JobSpec) {
    let job = run_job(g, spec);
    let mut r = Render { out, cell };
    r.outcome("outcome", job.outcome);
    r.f64("cost.credits", job.cost.credits);
    r.line("cost.lower_bound", job.cost.lower_bound);
    r.run_stats(&job.stats);
    for (i, b) in job.per_batch.iter().enumerate() {
        r.batch(i, b);
    }
}

/// Render the whole matrix.
fn render() -> String {
    let g = graph();
    let cluster = ClusterSpec::galaxy(MACHINES);
    let paged = paged_cluster(&g);
    let mut out = String::new();
    for (name, schedule) in schedules() {
        let width = schedule.batches()[0];
        for task in tasks(schedule.total()) {
            for system in SystemKind::ALL {
                let cell = format!("{}/{}/{name}", system.name(), task.name());
                let spec = JobSpec::new(task, system, cluster.clone(), schedule.clone());
                render_job(&mut out, &cell, &g, &spec);
            }
            // The σ-scaled machines are slow: lift the cutoff so the
            // paged jobs run to completion (or overflow) instead of
            // stopping at the first overloaded batch.
            let cell = format!("GraphD-paged/{}/{name}", task.name());
            let mut spec = JobSpec::new(task, SystemKind::GraphD, paged.clone(), schedule.clone());
            spec.cutoff = SimTime::secs(1e12);
            render_job(&mut out, &cell, &g, &spec);
        }
        // The fault plan on the widest batch of each schedule, under a
        // non-combining and a combining system.
        let graph = Arc::new(g.clone());
        for task in tasks(width) {
            let sources = match task {
                Task::Bppr { .. } => Vec::new(),
                _ => select_sources(&g, width, 0xFA17),
            };
            for system in [SystemKind::PregelPlus, SystemKind::GraphLab] {
                for every in [1, 3] {
                    let runner = BatchRunner::new(graph.clone(), task, system, cluster.clone())
                        .with_faults(five_kind_plan())
                        .with_checkpoint_every(every);
                    let exec = runner.run_batch(
                        width,
                        &sources,
                        &[0; MACHINES],
                        0xFA17,
                        SimTime::secs(6_000.0),
                    );
                    let cell = format!(
                        "{}/{}/{name}/faults-every-{every}",
                        system.name(),
                        task.name()
                    );
                    let mut r = Render {
                        out: &mut out,
                        cell: &cell,
                    };
                    r.outcome("outcome", exec.outcome);
                    r.line("kernel", format_args!("{:?}", exec.kernel));
                    r.bytes("peak_memory", exec.peak_memory);
                    r.line("residual_delta", format_args!("{:?}", exec.residual_delta));
                    r.run_stats(&exec.stats);
                }
            }
        }
    }
    for width in CUTOVER_WIDTHS {
        for task in tasks(2 * width) {
            for system in CUTOVER_SYSTEMS {
                let cell = format!("{}/{}/{width}x2", system.name(), task.name());
                let schedule = BatchSchedule::equal(2 * width, 2);
                let spec = JobSpec::new(task, system, cluster.clone(), schedule);
                render_job(&mut out, &cell, &g, &spec);
            }
        }
    }
    render_bisect(&mut out, &g);
    render_overload(&mut out, &g);
    out
}

/// An MSSP(8) batch under Pregel+ with the hard OOM kill armed, on
/// machines whose memory lies between the batch's peak and the peak of
/// its halves: the full width is killed and the ladder narrows until
/// every unit task completes.
fn render_bisect(out: &mut String, g: &Graph) {
    let graph = Arc::new(g.clone());
    let sources = select_sources(g, 8, 0xB15E);
    let task = Task::mssp(8);
    let system = SystemKind::PregelPlus;
    let probe = BatchRunner::new(graph.clone(), task, system, ClusterSpec::galaxy(MACHINES));
    let cutoff = SimTime::secs(6_000.0);
    let wide = probe.run_batch(8, &sources, &[0; MACHINES], 1, cutoff);
    let half = probe.run_batch(4, &sources[..4], &[0; MACHINES], 1, cutoff);
    let mut cluster = ClusterSpec::galaxy(MACHINES);
    cluster.machine.memory = Bytes::new((wide.peak_memory.get() + half.peak_memory.get()) / 2);
    let runner = BatchRunner::new(graph, task, system, cluster)
        .with_faults(FaultPlan::none().with_hard_oom());
    let rec = runner.run_batch_bisecting(8, &sources, &[0; MACHINES], 1, cutoff);
    // Destructured exhaustively, like `Render::run_stats`; the workload
    // is the input above.
    let RecoveredBatch {
        workload: _,
        outcome,
        time,
        stats,
        peak_memory,
        residual_delta,
        ladder,
        censored,
    } = &rec;
    let mut r = Render {
        out,
        cell: "Pregel+/MSSP/8/hard-oom-bisect",
    };
    r.bytes("machine_memory", runner.cluster().machine.memory);
    r.outcome("outcome", *outcome);
    r.time("time", *time);
    r.bytes("peak_memory", *peak_memory);
    r.line("residual_delta", format_args!("{residual_delta:?}"));
    for (i, LadderStep { width, outcome }) in ladder.iter().enumerate() {
        r.line(&format!("ladder[{i}].width"), width);
        r.outcome(&format!("ladder[{i}].outcome"), *outcome);
    }
    for (i, &(width, peak)) in censored.iter().enumerate() {
        r.line(&format!("censored[{i}].width"), width);
        r.f64(&format!("censored[{i}].peak"), peak);
    }
    r.run_stats(stats);
}

/// Three MSSP batches of 32 under Pregel+ with a cutoff at 1.5× the
/// first batch's time: the job stops overloaded in its second batch.
fn render_overload(out: &mut String, g: &Graph) {
    let task = Task::mssp(96);
    let schedule = BatchSchedule::equal(96, 3);
    let cluster = ClusterSpec::galaxy(MACHINES);
    let mut spec = JobSpec::new(task, SystemKind::PregelPlus, cluster, schedule);
    let first = run_job(g, &spec).per_batch[0].time;
    spec.cutoff = SimTime::secs(first.as_secs() * 1.5);
    let cell = "Pregel+/MSSP/32x3/overload-cutoff";
    render_job(out, cell, g, &spec);
    let mut r = Render { out, cell };
    r.time("cutoff", spec.cutoff);
}

#[test]
fn simulated_statistics_match_the_golden_file() {
    let got = render();
    let path = golden_path();
    if std::env::var_os(REGEN).is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden file");
        eprintln!(
            "golden: wrote {} lines to {}",
            got.lines().count(),
            path.display()
        );
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}; regenerate with {REGEN}=1", path.display()));
    if got == want {
        return;
    }
    let mut report = String::new();
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let mut moved = 0usize;
    for (i, pair) in got_lines.iter().zip(&want_lines).enumerate() {
        if pair.0 != pair.1 {
            moved += 1;
            if moved <= 20 {
                writeln!(
                    report,
                    "line {}:\n  want {}\n  got  {}",
                    i + 1,
                    pair.1,
                    pair.0
                )
                .unwrap();
            }
        }
    }
    panic!(
        "simulated statistics moved: {moved} of {} lines differ ({} lines now, {} golden)\n{report}\
         If the change is intended, regenerate with {REGEN}=1 and list the moved lines.",
        want_lines.len(),
        got_lines.len(),
        want_lines.len(),
    );
}
