//! Figure 9 — unequal batches are beneficial (BPPR on DBLP).
//!
//! A fixed workload splits into two batches with Δ = W₁ − W₂ swept from
//! strongly-second-heavy to strongly-first-heavy. Reproduced claims:
//! the best Δ is positive (W₁ > W₂, because batch 2 carries batch 1's
//! residual memory), and the combined two-batch time exceeds the sum of
//! the two batches run alone.

use crate::{fastest, Paper, SEED};
use mtvc_cluster::ClusterSpec;
use mtvc_core::unequal::two_batch_delta_sweep;
use mtvc_core::Task;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

fn panel(paper: &mut Paper, label: &str, machines: usize, total: u64, deltas: &[i64]) {
    let sd = paper.dataset(Dataset::Dblp);
    let cluster = sd.cluster(ClusterSpec::galaxy(machines));
    let points = two_batch_delta_sweep(
        &sd.graph,
        Task::bppr(total),
        SystemKind::PregelPlus,
        &cluster,
        deltas,
        SEED,
    );
    let mut t = Table::new(
        format!("Figure 9{label}: unequal batches, BPPR total={total}, {machines} machines"),
        &[
            "delta=W1-W2",
            "two-batch (s)",
            "1st alone (s)",
            "2nd alone (s)",
            "stacked (s)",
        ],
    );
    for p in &points {
        t.row(row!(
            p.delta,
            format!("{:.1}", p.combined.plot_time().as_secs()),
            format!("{:.1}", p.first_alone.plot_time().as_secs()),
            format!("{:.1}", p.second_alone.plot_time().as_secs()),
            format!("{:.1}", p.stacked_time())
        ));
    }
    paper.emit(&format!("fig09{label}"), &t);

    // Optimum at W1 > W2.
    let best = fastest(points.iter().map(|p| p.combined.outcome))
        .map(|i| points[i].delta)
        .unwrap_or_else(|| panic!("panel {label}: every split failed"));
    println!("panel {label}: best delta = {best}");
    assert!(
        best >= 0,
        "optimal split should put more work in batch 1 (got delta {best})"
    );
    // Combined execution >= stacked stand-alone execution (residual cost).
    let mid = points.iter().find(|p| p.delta == 0).unwrap();
    assert!(
        mid.combined.plot_time().as_secs() >= mid.stacked_time() * 0.99,
        "two-batch run should not beat the two batches run alone"
    );
}

pub(super) fn run(paper: &mut Paper) {
    panel(
        paper,
        "a",
        8,
        12800,
        &[-10240, -7680, -5120, -2560, 0, 2560, 5120, 7680, 10240],
    );
    panel(
        paper,
        "b",
        27,
        40960,
        &[-32768, -24576, -16384, -8192, 0, 8192, 16384, 24576, 32768],
    );
}
