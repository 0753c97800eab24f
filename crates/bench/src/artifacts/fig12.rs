//! Figure 12 — the impact of tuning Pregel+ with the paper's cost-based
//! framework (§5), on the DBLP stand-in.
//!
//! For BPPR and MSSP on 2/4/8 machines across workload sweeps, the
//! Optimized schedule (trained memory model + Equations 1–6) is
//! compared with Full-Parallelism. Reproduced claims: Optimized stays
//! stable as the workload grows while Full-Parallelism blows up past
//! the memory threshold, and the tuned batch workloads decrease
//! monotonically (the §5 example division [2747, 1388, 644, 266, 75]).

use crate::PaperTask::{Bppr, Mssp};
use crate::{fmt_outcome, Paper, PaperTask, SEED};
use mtvc_cluster::ClusterSpec;
use mtvc_core::JobSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind::PregelPlus;
use mtvc_tune::{tune, TunerConfig};

const PANELS: [(&str, usize, &[PaperTask]); 6] = [
    (
        "a:BPPR 2m",
        2,
        &[
            Bppr(1280),
            Bppr(1536),
            Bppr(1792),
            Bppr(2048),
            Bppr(2304),
            Bppr(2560),
            Bppr(3072),
        ],
    ),
    (
        "b:BPPR 4m",
        4,
        &[Bppr(3584), Bppr(4096), Bppr(4608), Bppr(5120)],
    ),
    (
        "c:BPPR 8m",
        8,
        &[Bppr(4096), Bppr(5120), Bppr(6144), Bppr(7168), Bppr(8192)],
    ),
    (
        "d:MSSP 2m",
        2,
        &[Mssp(128), Mssp(136), Mssp(144), Mssp(152)],
    ),
    (
        "e:MSSP 4m",
        4,
        &[Mssp(384), Mssp(416), Mssp(448), Mssp(480), Mssp(512)],
    ),
    (
        "f:MSSP 8m",
        8,
        &[Mssp(832), Mssp(896), Mssp(960), Mssp(1024)],
    ),
];

pub(super) fn run(paper: &mut Paper) {
    let sd = paper.dataset(Dataset::Dblp);
    let cfg = TunerConfig {
        seed: SEED,
        ..TunerConfig::default()
    };
    let mut t = Table::new(
        "Figure 12: Full-Parallelism vs Optimized (tuned) batch schemes",
        &[
            "panel",
            "task",
            "workload",
            "Full-Parallelism (s)",
            "Optimized (s)",
            "schedule",
        ],
    );
    let (mut wins, mut total) = (0, 0);
    // The §5 example: BPPR workload 5120 on 4 machines.
    let mut example = None;
    for (label, machines, tasks) in PANELS {
        let cluster = sd.cluster(ClusterSpec::galaxy(machines));
        for &task in tasks {
            let fp = paper.cell(&sd, &cluster, PregelPlus, task, 1);
            let (schedule_str, opt_str, opt_secs) =
                match tune(&sd.graph, sd.task(task), PregelPlus, &cluster, &cfg) {
                    Ok(tuned) => {
                        if machines == 4 && matches!(task, Bppr(5120)) {
                            example = Some(tuned.schedule.batches().to_vec());
                        }
                        let spec = JobSpec::new(
                            sd.task(task),
                            PregelPlus,
                            cluster.clone(),
                            tuned.schedule.clone(),
                        )
                        .with_seed(SEED);
                        let r = paper.job(&sd, &spec);
                        (
                            format!("{:?}", tuned.schedule.batches()),
                            fmt_outcome(&r),
                            r.plot_time().as_secs(),
                        )
                    }
                    Err(e) => (format!("(tuning failed: {e})"), "-".into(), f64::INFINITY),
                };
            total += 1;
            if opt_secs <= fp.plot_time().as_secs() * 1.05 {
                wins += 1;
            }
            t.row(row!(
                label,
                task.name(),
                task.paper_workload(),
                fmt_outcome(&fp),
                opt_str,
                schedule_str
            ));
        }
    }
    paper.emit("fig12", &t);
    println!("Optimized within 5% of (or better than) Full-Parallelism in {wins}/{total} settings");
    assert!(
        wins * 10 >= total * 7,
        "Optimized should match or beat Full-Parallelism in most settings ({wins}/{total})"
    );

    // The §5 example yields a monotone-decreasing schedule like
    // [2747, 1388, 644, 266, 75].
    if let Some(batches) = example {
        println!("tuned schedule for BPPR(5120)@4m: {batches:?}");
        assert!(
            batches.windows(2).all(|w| w[0] >= w[1]),
            "tuned batch workloads should decrease monotonically: {batches:?}"
        );
    }
}
