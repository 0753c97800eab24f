//! Figure 7 — performance AND monetary cost in the cloud (Docker-32).
//!
//! For each panel the per-batch-setting monetary cost sums the credit
//! costs of every experiment run at that setting; overloaded runs are
//! billed at the cutoff and rendered `>$x`. The optimum cost line picks
//! the best batch setting per workload individually (§4.6).

use mtvc_bench::{emit, fmt_outcome, mark_optimal, run_cell, PaperTask, ScaledDataset, BATCH_AXIS};
use mtvc_cluster::{ClusterSpec, MonetaryCost};
use mtvc_core::JobResult;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

struct Panel {
    label: &'static str,
    /// results[line][batch_idx]
    lines: Vec<(String, Vec<JobResult>)>,
}

impl Panel {
    fn run(
        label: &'static str,
        settings: Vec<(String, ScaledDataset, SystemKind, PaperTask, usize)>,
    ) -> Panel {
        let lines = settings
            .into_iter()
            .map(|(name, sd, system, paper, machines)| {
                let cluster = sd.cluster_for(ClusterSpec::docker(machines), system);
                let results: Vec<JobResult> = BATCH_AXIS
                    .iter()
                    .map(|&b| run_cell(&sd, &cluster, system, paper, b))
                    .collect();
                (name, results)
            })
            .collect();
        Panel { label, lines }
    }

    fn emit(&self, t: &mut Table) -> (Vec<MonetaryCost>, MonetaryCost) {
        for (name, results) in &self.lines {
            for (i, &b) in BATCH_AXIS.iter().enumerate() {
                t.row(row!(
                    self.label,
                    name.clone(),
                    b,
                    fmt_outcome(&results[i]),
                    results[i].cost,
                    mark_optimal(results, i)
                ));
            }
        }
        // Column sums (the x-axis $ annotations) and the per-line optimum.
        let per_batch: Vec<MonetaryCost> = (0..BATCH_AXIS.len())
            .map(|i| self.lines.iter().map(|(_, rs)| rs[i].cost).sum())
            .collect();
        let optimal: MonetaryCost = self
            .lines
            .iter()
            .map(|(_, rs)| {
                rs.iter()
                    .map(|r| r.cost)
                    .min_by(|a, b| a.credits.partial_cmp(&b.credits).unwrap())
                    .unwrap()
            })
            .sum();
        (per_batch, optimal)
    }
}

fn main() {
    let dblp = || ScaledDataset::load(Dataset::Dblp);
    let panels = vec![
        Panel::run(
            "a:task",
            vec![
                (
                    "BPPR(40960)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(40960),
                    32,
                ),
                (
                    "MSSP(4096)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Mssp(4096),
                    32,
                ),
                (
                    "BKHS(8192)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bkhs(8192, 2),
                    32,
                ),
            ],
        ),
        Panel::run(
            "b:dataset",
            vec![
                (
                    "DBLP(40960)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(40960),
                    32,
                ),
                (
                    "Web-St(81920)".into(),
                    ScaledDataset::load(Dataset::WebSt),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(81920),
                    32,
                ),
                (
                    "Orkut(4096)".into(),
                    ScaledDataset::load(Dataset::Orkut),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(4096),
                    32,
                ),
                (
                    "Twitter(128)".into(),
                    ScaledDataset::load(Dataset::Twitter),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(128),
                    32,
                ),
            ],
        ),
        Panel::run(
            "c:machines",
            vec![
                (
                    "8m(10240)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(10240),
                    8,
                ),
                (
                    "16m(20480)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(20480),
                    16,
                ),
                (
                    "32m(40960)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(40960),
                    32,
                ),
            ],
        ),
        Panel::run(
            "d:system",
            vec![
                (
                    "Pregel+(40960)".into(),
                    dblp(),
                    SystemKind::PregelPlus,
                    PaperTask::Bppr(40960),
                    32,
                ),
                (
                    "Giraph(8192)".into(),
                    dblp(),
                    SystemKind::Giraph,
                    PaperTask::Bppr(8192),
                    32,
                ),
                (
                    "GraphD(4096)".into(),
                    dblp(),
                    SystemKind::GraphD,
                    PaperTask::Bppr(4096),
                    32,
                ),
                (
                    "Pregel+(mirror)(160)".into(),
                    dblp(),
                    SystemKind::PregelPlusMirror,
                    PaperTask::Bppr(160),
                    32,
                ),
            ],
        ),
    ];

    let mut t = Table::new(
        "Figure 7: performance and monetary cost in the cloud (Docker-32)",
        &[
            "panel", "setting", "batches", "time (s)", "credits", "optimal",
        ],
    );
    let mut cost_rows = Vec::new();
    for p in &panels {
        let (per_batch, optimal) = p.emit(&mut t);
        cost_rows.push((p.label, per_batch, optimal));
    }
    emit("fig07", &t);

    let mut c = Table::new(
        "Figure 7 monetary summary (per batch setting, as the x-axis $ labels)",
        &["panel", "$1", "$2", "$4", "$8", "$16", "optimal $"],
    );
    for (label, per_batch, optimal) in &cost_rows {
        c.row(row!(
            *label,
            per_batch[0],
            per_batch[1],
            per_batch[2],
            per_batch[3],
            per_batch[4],
            *optimal
        ));
        // An ill-set batch count must cost strictly more than the optimum.
        let max = per_batch.iter().map(|m| m.credits).fold(0.0f64, f64::max);
        assert!(
            max > optimal.credits * 1.2,
            "{label}: batching should matter for cloud cost"
        );
    }
    emit("fig07_money", &c);
}
