//! Figure 2 — Full-Parallelism may be sub-optimal (DBLP, Galaxy-8).
//!
//! Three (workload, system) settings from the paper:
//! (10240, Pregel+), (6144, GraphD), (160, Pregel+(mirror)),
//! each swept over 1–16 batches. The reproduced claim: the 1-batch
//! (Full-Parallelism) bar is not the minimum for any of the settings.

use super::line;
use crate::{fmt_outcome, mark_optimal, optimum, Paper, PaperTask, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

pub(super) fn run(paper: &mut Paper) {
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
        let results = line("", Dataset::Dblp, 8, system, PaperTask::Bppr(w))
            .sweep(paper, ClusterSpec::galaxy);
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
            matches!(optimum(&results), Some(i) if i > 0),
            "Figure 2 claim violated: Full-Parallelism should not be optimal for {system} W={w}"
        );
    }
    paper.emit("fig02", &t);
}
