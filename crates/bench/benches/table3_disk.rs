//! Table 3 — #batches vs disk utilization vs network for GraphD
//! (27 machines, workload 2048).
//!
//! Reproduced claims: 1–2 batches pin the disk at 100% utilization with
//! an exploding I/O queue; utilization drops to a low plateau from
//! 4 batches on; the optimum sits at the knee; further batching loses
//! to round-synchronization overhead.

use mtvc_bench::{emit, fmt_outcome, mark_optimal, run_cell, PaperTask, ScaledDataset};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

fn main() {
    let sd = ScaledDataset::load(Dataset::Dblp);
    let cluster = sd.cluster(ClusterSpec::galaxy27());
    let batch_axis: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128];
    let results: Vec<_> = batch_axis
        .iter()
        .map(|&b| run_cell(&sd, &cluster, SystemKind::GraphD, PaperTask::Bppr(2048), b))
        .collect();
    let times: Vec<f64> = results.iter().map(|r| r.plot_time().as_secs()).collect();
    let mut t = Table::new(
        "Table 3: #batches vs disk utilization vs network (GraphD, 27 machines, W=2048)",
        &[
            "#Batches",
            "overuse net",
            "overuse I/O",
            "max disk util",
            "I/O queue len",
            "total time",
            "optimal",
        ],
    );
    for (i, &b) in batch_axis.iter().enumerate() {
        let r = &results[i];
        t.row(row!(
            b,
            format!("{:.0}s", r.stats.network_overuse.as_secs()),
            format!("{:.0}s", r.stats.disk_overuse.as_secs()),
            format!("{:.0}%", r.stats.max_disk_utilization * 100.0),
            format!("{:.0}", r.stats.max_io_queue_len),
            fmt_outcome(r),
            mark_optimal(&results, i)
        ));
    }
    emit("table3", &t);
    // The knee: saturated at 1-2 batches, plateau after.
    assert!(results[0].stats.max_disk_utilization > 0.95);
    assert!(results[1].stats.max_disk_utilization > 0.95);
    assert!(results[3].stats.max_disk_utilization < 0.6);
    assert!(results[0].stats.max_io_queue_len > 50.0 * results[3].stats.max_io_queue_len);
    // Optimum strictly inside the axis.
    let best = times
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert!(
        best > 0 && best < batch_axis.len() - 1,
        "optimum at the boundary"
    );
}
