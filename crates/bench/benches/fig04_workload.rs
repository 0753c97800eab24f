//! Figure 4 — optimal batching is workload-dependent (BPPR on DBLP,
//! Galaxy-8, Pregel+).
//!
//! Workloads 1024 / 10240 / 12288: the optimum moves from 1-batch to
//! 2-batch to 4-batch as the workload grows, with Full-Parallelism
//! overloading at 12288 — the paper's headline "a higher amount of
//! workload tends to require more batches".

use mtvc_bench::{emit, fmt_outcome, mark_optimal, run_cell, PaperTask, ScaledDataset, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

fn main() {
    let sd = ScaledDataset::load(Dataset::Dblp);
    let cluster = sd.cluster(ClusterSpec::galaxy8());
    let mut t = Table::new(
        "Figure 4: optimal batching is workload-dependent (DBLP, Galaxy-8, Pregel+)",
        &["Workload", "batches", "time (s)", "optimal"],
    );
    let mut optima = Vec::new();
    for &w in &[1024u64, 10240, 12288] {
        let results: Vec<_> = BATCH_AXIS
            .iter()
            .map(|&b| run_cell(&sd, &cluster, SystemKind::PregelPlus, PaperTask::Bppr(w), b))
            .collect();
        let times: Vec<f64> = results.iter().map(|r| r.plot_time().as_secs()).collect();
        let best = BATCH_AXIS[times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        optima.push((w, best));
        for (i, &b) in BATCH_AXIS.iter().enumerate() {
            t.row(row!(
                w,
                b,
                fmt_outcome(&results[i]),
                mark_optimal(&results, i)
            ));
        }
    }
    emit("fig04", &t);
    println!("optimal batches per workload: {optima:?}");
    // The paper's reading: larger workloads favour more batches.
    assert!(
        optima.windows(2).all(|w| w[0].1 <= w[1].1),
        "optimum should not decrease with workload: {optima:?}"
    );
    assert_eq!(
        optima[0].1, 1,
        "light workload should favour Full-Parallelism"
    );
    assert!(
        optima[2].1 >= 4,
        "heavy workload should favour >= 4 batches"
    );
}
