//! Table 3 — #batches vs disk utilization vs network for GraphD
//! (27 machines, workload 2048).
//!
//! Reproduced claims: 1–2 batches pin the disk at 100% utilization with
//! an exploding I/O queue; utilization drops to a low plateau from
//! 4 batches on; the optimum sits at the knee; further batching loses
//! to round-synchronization overhead.

use crate::{fmt_outcome, mark_optimal, optimum, Paper, PaperTask};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

pub(super) fn run(paper: &mut Paper) {
    let sd = paper.dataset(Dataset::Dblp);
    let cluster = sd.cluster(ClusterSpec::galaxy27());
    let batch_axis = [1, 2, 4, 8, 16, 32, 64, 128];
    let results = paper.sweep(
        &sd,
        &cluster,
        SystemKind::GraphD,
        PaperTask::Bppr(2048),
        &batch_axis,
    );
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
    paper.emit("table3", &t);
    // The knee: saturated at 1-2 batches, plateau after.
    assert!(results[0].stats.max_disk_utilization > 0.95);
    assert!(results[1].stats.max_disk_utilization > 0.95);
    assert!(results[3].stats.max_disk_utilization < 0.6);
    assert!(results[0].stats.max_io_queue_len > 50.0 * results[3].stats.max_io_queue_len);
    // Optimum strictly inside the axis.
    assert!(
        matches!(optimum(&results), Some(i) if i > 0 && i < batch_axis.len() - 1),
        "optimum at the boundary, or every batch count failed"
    );
}
