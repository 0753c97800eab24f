//! Fault injection end to end: BPPR batches under a seeded
//! [`FaultPlan`], recovered three ways —
//!
//! 1. **Checkpoint + replay** (engine): machine crashes and transient
//!    delivery failures roll the superstep loop back to the last
//!    snapshot and deterministically replay; the run's results and
//!    non-replay statistics are bit-identical to a fault-free run.
//! 2. **Degradation ladder** (batch executor): on a cluster too small
//!    for the full batch, the hard-OOM kill bisects the batch into
//!    narrower sub-batches until every unit task completes.
//! 3. **Retry budget** (service): requests whose batch failed are
//!    re-queued with exponential backoff; fault counters and recovery
//!    latency surface in the final service report.
//!
//! ```sh
//! cargo run --release --example chaos_demo
//! ```

use mtvc::cluster::{ClusterSpec, FaultPlan};
use mtvc::graph::generators;
use mtvc::metrics::{Bytes, OVERLOAD_CUTOFF};
use mtvc::multitask::{BatchRunner, Task};
use mtvc::serve::{ServiceConfig, TaskRequest, TaskService, TenantId};
use mtvc::systems::SystemKind;
use std::sync::Arc;

fn main() {
    let graph = Arc::new(generators::grid(24, 24));
    let system = SystemKind::PregelPlus;
    let cluster = ClusterSpec::galaxy(4);
    let shape = Task::bppr(1);
    let walks = 64u64;
    println!(
        "graph: {}-vertex grid, cluster: {} ({} machines), task: BPPR({} walks/node)\n",
        graph.num_vertices(),
        cluster.name,
        cluster.machines,
        walks
    );

    // ---- 1. checkpoint + replay under injected faults ------------------
    let plan = FaultPlan::none()
        .with_crash(3, 1)
        .with_delivery_failure(5, 0)
        .with_crash(7, 2);
    println!(
        "[1] superstep checkpointing: {} injected faults",
        plan.events().len()
    );

    let clean_runner = BatchRunner::new(Arc::clone(&graph), shape, system, cluster.clone());
    let clean = clean_runner.run_batch(walks, &[], &[0; 4], 42, OVERLOAD_CUTOFF);

    let chaos_runner = BatchRunner::new(Arc::clone(&graph), shape, system, cluster.clone())
        .with_faults(plan)
        .with_checkpoint_every(2);
    let chaos = chaos_runner.run_batch(walks, &[], &[0; 4], 42, OVERLOAD_CUTOFF);

    assert_eq!(clean.outcome, chaos.outcome, "recovery changed the outcome");
    assert_eq!(clean.time, chaos.time, "replay leaked into simulated time");
    let f = &chaos.stats.faults;
    println!(
        "    fault-free : {} rounds, {}",
        clean.stats.rounds, clean.time
    );
    println!(
        "    with faults: {} rounds first-run (identical), outcome preserved",
        chaos.stats.rounds
    );
    println!(
        "    recovery   : {} checkpoints, {} faults fired ({} crashes, {} lost deliveries)",
        f.checkpoints, f.injected, f.crashes, f.delivery_failures
    );
    println!(
        "    replay cost: {} rounds re-executed, {} wire messages resent, {} recovery time\n",
        f.replayed_rounds, f.replayed_wire, f.recovery_time
    );

    // ---- 2. hard-OOM kill and the degradation ladder -------------------
    // Size the cluster between the full batch's peak and its halves'
    // peaks: the wide attempt is killed, the bisected ladder completes.
    let wide = clean.peak_memory;
    let half_a = clean_runner.run_batch(walks / 2, &[], &[0; 4], 42, OVERLOAD_CUTOFF);
    let mut resid = vec![0u64; 4];
    for (r, d) in resid.iter_mut().zip(&half_a.residual_delta) {
        *r += d;
    }
    let half_b = clean_runner.run_batch(walks / 2, &[], &resid, 43, OVERLOAD_CUTOFF);
    let narrow = half_a.peak_memory.max(half_b.peak_memory);
    let mut small = cluster.clone();
    small.machine.memory = Bytes((narrow.get() + wide.get()) / 2);
    println!(
        "[2] degradation ladder: capacity {} sits between half-batch peak {} and full peak {}",
        small.machine.memory, narrow, wide
    );

    let ladder_runner = BatchRunner::new(Arc::clone(&graph), shape, system, small)
        .with_faults(FaultPlan::none().with_hard_oom());
    let rec = ladder_runner.run_batch_bisecting(walks, &[], &[0; 4], 42, OVERLOAD_CUTOFF);
    for step in &rec.ladder {
        println!("    width {:>3} -> {}", step.width, step.outcome);
    }
    assert!(rec.outcome.is_completed(), "ladder failed to recover");
    println!(
        "    recovered: {} OOM kills became {} censored refit points, batch completed in {}\n",
        rec.stats.faults.oom_kills,
        rec.censored.len(),
        rec.time
    );

    // ---- 3. the service under chaos ------------------------------------
    let chaos_plan = FaultPlan::none()
        .with_crash(3, 0)
        .with_delivery_failure(5, 2);
    println!(
        "[3] task service with per-batch chaos ({} faults/batch)",
        chaos_plan.events().len()
    );
    let mut cfg = ServiceConfig::new(system, cluster)
        .with_shape(shape)
        .with_workers(2)
        .with_quantum(16)
        .with_seed(0xC0DE)
        .with_checkpoint_every(2)
        .with_chaos(chaos_plan);
    cfg.training_workload = 64;
    let svc = TaskService::start(Arc::clone(&graph), cfg).expect("service start");
    let tickets: Vec<_> = (0..18u32)
        .map(|i| {
            svc.submit(TaskRequest::new(TenantId(i % 3), Task::bppr(4)))
                .expect("submit")
        })
        .collect();
    for t in &tickets {
        assert!(t.wait().outcome.is_served(), "request lost under chaos");
    }
    let report = svc.shutdown();
    println!(
        "    served {}/{} requests across {} batches — 0 failed, {} retried",
        report.served,
        report.requests(),
        report.batches,
        report.retries
    );
    println!(
        "    faults injected: {}, rounds replayed: {}, OOM kills: {}",
        report.faults.injected, report.faults.replayed_rounds, report.faults.oom_kills
    );
    let (p50, p95, _) = report.recovery_latency.p50_p95_p99();
    println!(
        "    recovery latency p50/p95: {} / {} ms over {} faulted batches",
        p50,
        p95,
        report.recovery_latency.count()
    );
    println!("\nevery fault path recovered; no request was lost or served wrong results.");
}
