//! The serving layer end to end: a generated production trace — Zipf
//! tenant skew, bursty arrivals, three SLO classes, mixed task shapes
//! — replayed open-loop against a Galaxy8-class cluster under the
//! SLO-aware scheduler. The service trains the §5 memory model at
//! startup, packs arrivals into the largest admissible batches (Eq. 6
//! against live residual + in-flight state), orders lanes
//! EDF-within-DRR, and reports per-class latency percentiles. The same
//! trace is then replayed as per-shape Full-Parallelism jobs — the §4
//! baseline — for comparison.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use mtvc::cluster::ClusterSpec;
use mtvc::graph::Dataset;
use mtvc::loadgen::{drive, generate, ClassMix, DriveCfg, Scenario};
use mtvc::multitask::{run_job, BatchSchedule, JobSpec, Task};
use mtvc::serve::{SchedulerPolicy, ServiceConfig, SloClass, TaskService};
use mtvc::systems::SystemKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let dataset = Dataset::Dblp;
    let graph = Arc::new(dataset.generate_default());
    let cluster = ClusterSpec::galaxy8().scaled(dataset.info().default_scale as f64);
    let system = SystemKind::PregelPlus;
    println!(
        "cluster: {} ({} machines), graph: dblp ({} vertices)",
        cluster.name,
        cluster.machines,
        graph.num_vertices()
    );

    // ---- the scenario --------------------------------------------------
    // A deterministic production shape: nine tenants with Zipf(1.2)
    // popularity skew, ~150 req/s baseline with correlated burst
    // episodes, three task shapes at different widths, and the three
    // SLO classes with deadlines generous enough that the whole trace
    // completes (tight deadlines are the canonical benchmark's
    // `serve-overload` workload).
    let scenario = Scenario::new("serve-demo", 9, 150.0, Duration::from_millis(600))
        .with_zipf_exponent(1.2)
        .with_bursts(Duration::from_millis(200), Duration::from_millis(80), 2.0)
        .with_shape(Task::bppr(1), 4.0, 256..=768)
        .with_shape(Task::mssp(1), 3.0, 1..=5)
        .with_shape(Task::bkhs(1), 3.0, 1..=5)
        .with_classes(ClassMix {
            weights: [0.2, 0.5, 0.3],
            deadlines: [
                Some(Duration::from_secs(60)),
                Some(Duration::from_secs(300)),
                None,
            ],
        });
    let trace = generate(&scenario, 0x00D5_CADE);
    let total_units = |name: &str| -> u64 {
        trace
            .events
            .iter()
            .filter(|e| e.task.name() == name)
            .map(|e| e.task.workload())
            .sum()
    };
    println!(
        "trace: {} requests over {:.2}s, fingerprint {:#018x}",
        trace.len(),
        trace.span().as_secs_f64(),
        trace.fingerprint(),
    );
    println!(
        "  classes {:?}  (BPPR {} walks, MSSP {} sources, BKHS {} sources)\n",
        trace.class_counts(),
        total_units("BPPR"),
        total_units("MSSP"),
        total_units("BKHS"),
    );

    // ---- adaptive service under the SLO-aware scheduler ----------------
    let cfg = ServiceConfig::new(system, cluster.clone())
        .with_shape(Task::bppr(1))
        .with_shape(Task::mssp(1))
        .with_shape(Task::bkhs(1))
        .with_workers(2)
        .with_quantum(256)
        .with_queue_capacity(512)
        .with_scheduler(SchedulerPolicy::SloAware)
        .with_seed(0xFEED);
    let svc = TaskService::start(graph.clone(), cfg).expect("service start");
    for shape in [Task::bppr(1), Task::mssp(1), Task::bkhs(1)] {
        println!(
            "  model ceiling for {}: {} units/batch",
            shape.name(),
            svc.admissible_max(&shape).expect("shape registered")
        );
    }

    let t0 = Instant::now();
    let rep = drive(&svc, &trace, DriveCfg::default());
    let report = svc.shutdown();
    let wall = t0.elapsed();

    assert_eq!(rep.offered(), trace.len() as u64, "every event offered");
    assert_eq!(rep.shed, 0, "queue sized for the trace: nothing shed");
    assert_eq!(report.served, rep.submitted, "all requests served");
    assert_eq!(report.overload_batches, 0, "no batch overloaded");
    assert_eq!(report.overflow_batches, 0, "no batch overflowed");

    let (p50, p95, p99) = report.latency.p50_p95_p99();
    let (w50, w95, w99) = report.queue_wait.p50_p95_p99();
    println!("\nadaptive service (SLO-aware, admission p = 0.85, 2 workers):");
    println!(
        "  served {}/{} requests, 0 overload / 0 overflow batches",
        report.served,
        trace.len()
    );
    println!(
        "  throughput: {:.1} req/s  (wall {:.2}s)",
        report.served as f64 / wall.as_secs_f64(),
        wall.as_secs_f64()
    );
    println!(
        "  latency   p50/p95/p99: {:.1} / {:.1} / {:.1} ms",
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3
    );
    println!(
        "  queue wait p50/p95/p99: {:.1} / {:.1} / {:.1} ms",
        w50 as f64 / 1e3,
        w95 as f64 / 1e3,
        w99 as f64 / 1e3
    );
    for class in SloClass::ALL {
        let cr = report.class(class);
        let (c50, _, c99) = cr.latency.p50_p95_p99();
        println!(
            "  class {:<11} served {:>3}, deadlines met {:>3}/{:<3}, latency p50/p99 {:.1}/{:.1} ms",
            class.label(),
            cr.served,
            cr.deadline_met,
            cr.deadline_met + cr.deadline,
            c50 as f64 / 1e3,
            c99 as f64 / 1e3,
        );
    }
    println!(
        "  batches: {} (workload p50 {} units), controller: {} decisions \
         ({} narrowed, {} widened, {} deadline-capped)",
        report.batches,
        report.batch_workload.quantile(0.5),
        report.controller.decisions,
        report.controller.narrowed,
        report.controller.widened,
        report.controller.deadline_capped,
    );
    println!(
        "  max queue depth: {} requests (time-weighted mean {:.1}), simulated cluster time: {}",
        report.max_queue_depth,
        report.queue_depth_series.time_weighted_mean(),
        report.total_sim_time
    );

    // ---- Full-Parallelism baseline on the same trace ------------------
    // The §4 baseline has no admission control: each task kind's whole
    // trace workload runs as one maximal batch.
    println!("\nfull-parallelism baseline (same trace, one batch per kind):");
    let mut baseline_total = mtvc::metrics::SimTime::ZERO;
    for shape in [Task::bppr(1), Task::mssp(1), Task::bkhs(1)] {
        let total = total_units(shape.name());
        if total == 0 {
            continue;
        }
        let job = run_job(
            &graph,
            &JobSpec::new(
                shape.with_workload(total),
                system,
                cluster.clone(),
                BatchSchedule::full_parallelism(total),
            ),
        );
        println!("  {}({}): {}", shape.name(), total, job.outcome);
        baseline_total += job.plot_time();
    }
    println!(
        "\ntotal simulated time — adaptive: {}  vs  full-parallelism: {}",
        report.total_sim_time, baseline_total
    );
    assert!(
        report.total_sim_time < baseline_total,
        "adaptive batching should beat full parallelism on this trace"
    );
    println!("adaptive batching wins: the tuner-driven former kept every");
    println!("machine under p·M while full parallelism paid the strain.");
}
