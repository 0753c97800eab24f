//! Figure 8 — different tasks on the Twitter stand-in (Docker-32).
//!
//! The reproduced insight (§4.5): with a huge graph, BPPR's residual
//! memory (intermediate walk results ∝ nodes × per-batch workload)
//! makes Full-Parallelism optimal for a small workload — the residual
//! peak and the message peak do not overlap in a single batch — while
//! MSSP (small residual) still prefers batching.

use mtvc_bench::{emit, fmt_outcome, mark_optimal, run_cell, PaperTask, ScaledDataset, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

fn main() {
    let sd = ScaledDataset::load(Dataset::Twitter);
    let cluster = sd.cluster(ClusterSpec::docker32());
    let tasks = [
        PaperTask::Bppr(128),
        PaperTask::Mssp(16),
        PaperTask::Bkhs(4096, 2),
    ];
    let mut t = Table::new(
        "Figure 8: different tasks on Twitter (Docker-32)",
        &[
            "task",
            "Workload",
            "batches",
            "time (s)",
            "residual after (max/machine)",
            "optimal",
        ],
    );
    let mut optima = Vec::new();
    for paper in tasks {
        let results: Vec<_> = BATCH_AXIS
            .iter()
            .map(|&b| run_cell(&sd, &cluster, SystemKind::PregelPlus, paper, b))
            .collect();
        let times: Vec<f64> = results.iter().map(|r| r.plot_time().as_secs()).collect();
        let best = BATCH_AXIS[times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        optima.push((paper.name(), best));
        for (i, &b) in BATCH_AXIS.iter().enumerate() {
            let resid = results[i]
                .per_batch
                .last()
                .map(|x| x.residual_max_worker)
                .unwrap_or(0);
            t.row(row!(
                paper.name(),
                paper.paper_workload(),
                b,
                fmt_outcome(&results[i]),
                mtvc_metrics::Bytes(resid),
                mark_optimal(&results, i)
            ));
        }
    }
    emit("fig08", &t);
    println!("optima: {optima:?}");
    assert_eq!(
        optima[0],
        ("BPPR", 1),
        "BPPR(128) on Twitter should favour Full-Parallelism"
    );
    assert!(optima[1].1 > 1, "MSSP on Twitter should favour batching");
}
