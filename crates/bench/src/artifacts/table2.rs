//! Table 2 — (workload, #batches) → memory / time / network-overuse
//! per machine, on 4- and 8-machine Galaxy clusters.
//!
//! Reproduced claims: more batches or more machines reduce per-machine
//! memory; the heavy workload Overflows on 4 machines at small batch
//! counts and Overloads on 8; the optimum sits just under the usable
//! capacity.

use crate::{Paper, PaperTask};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, RunOutcome, Table};
use mtvc_systems::SystemKind;

pub(super) fn run(paper: &mut Paper) {
    let sd = paper.dataset(Dataset::Dblp);
    let mut t = Table::new(
        "Table 2: (workload, #batches) -> memory/time/network-overuse per machine",
        &[
            "Workload",
            "batches",
            "4m memory",
            "4m time",
            "4m net-over",
            "8m memory",
            "8m time",
            "8m net-over",
        ],
    );
    for &w in &[1024u64, 4096, 12288] {
        for &b in &[1usize, 2, 4] {
            let mut cells = Vec::new();
            for machines in [4usize, 8] {
                let cluster = sd.cluster(ClusterSpec::galaxy(machines));
                let r = paper.cell(&sd, &cluster, SystemKind::PregelPlus, PaperTask::Bppr(w), b);
                let mem = match r.outcome {
                    RunOutcome::Overflow => "Overflow".to_string(),
                    _ => r.stats.peak_memory.to_string(),
                };
                let time = match r.outcome {
                    RunOutcome::Completed(t) => format!("{:.1}min", t.minutes()),
                    other => other.to_string(),
                };
                let over = if r.outcome.is_completed() {
                    format!("{:.1}min", r.stats.network_overuse.minutes())
                } else {
                    "-".to_string()
                };
                cells.push((mem, time, over));
            }
            t.row(row!(
                w,
                b,
                cells[0].0.clone(),
                cells[0].1.clone(),
                cells[0].2.clone(),
                cells[1].0.clone(),
                cells[1].1.clone(),
                cells[1].2.clone()
            ));
        }
    }
    paper.emit("table2", &t);
}
