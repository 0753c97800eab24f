//! Figure 2 — Full-Parallelism may be sub-optimal (DBLP, Galaxy-8).
//!
//! Three (workload, system) settings from the paper:
//! (10240, Pregel+), (6144, GraphD), (160, Pregel+(mirror)),
//! each swept over 1–16 batches. The reproduced claim: the 1-batch
//! (Full-Parallelism) bar is not the minimum for any of the settings.

use mtvc_bench::{emit, fmt_outcome, mark_optimal, run_cell, PaperTask, ScaledDataset, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

fn main() {
    let sd = ScaledDataset::load(Dataset::Dblp);
    let settings: [(u64, SystemKind); 3] = [
        (10240, SystemKind::PregelPlus),
        (6144, SystemKind::GraphD),
        (160, SystemKind::PregelPlusMirror),
    ];
    let mut t = Table::new(
        "Figure 2: Full-Parallelism may be sub-optimal (DBLP, Galaxy-8)",
        &["Workload", "System", "batches", "time (s)", "optimal"],
    );
    for (w, system) in settings {
        let cluster = sd.cluster_for(ClusterSpec::galaxy8(), system);
        let results: Vec<_> = BATCH_AXIS
            .iter()
            .map(|&b| run_cell(&sd, &cluster, system, PaperTask::Bppr(w), b))
            .collect();
        let times: Vec<f64> = results.iter().map(|r| r.plot_time().as_secs()).collect();
        for (i, &b) in BATCH_AXIS.iter().enumerate() {
            t.row(row!(
                w,
                system.name(),
                b,
                fmt_outcome(&results[i]),
                mark_optimal(&results, i)
            ));
        }
        assert!(
            times[0] > times.iter().cloned().fold(f64::INFINITY, f64::min),
            "Figure 2 claim violated: Full-Parallelism should not be optimal for {system} W={w}"
        );
    }
    emit("fig02", &t);
}
