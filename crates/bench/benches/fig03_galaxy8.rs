//! Figure 3 — batch sweeps on Galaxy-8: varying task, dataset,
//! #machines, and system (defaults: DBLP, BPPR, Pregel+).
//!
//! Each panel sweeps 1–16 batches. The right-hand summary of the paper
//! is reproduced as a "monotone?" column: running times mostly are NOT
//! increasing with the number of batches (only genuinely light settings
//! are monotone).

use mtvc_bench::{emit, fmt_outcome, mark_optimal, run_cell, PaperTask, ScaledDataset, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Series, Table};
use mtvc_systems::SystemKind;

fn sweep_panel(
    t: &mut Table,
    summary: &mut Vec<(String, bool)>,
    label: &str,
    sd: &ScaledDataset,
    machines: usize,
    system: SystemKind,
    paper: PaperTask,
) {
    let cluster = sd.cluster_for(ClusterSpec::galaxy(machines), system);
    let results: Vec<_> = BATCH_AXIS
        .iter()
        .map(|&b| run_cell(sd, &cluster, system, paper, b))
        .collect();
    let times: Vec<f64> = results.iter().map(|r| r.plot_time().as_secs()).collect();
    for (i, &b) in BATCH_AXIS.iter().enumerate() {
        t.row(row!(
            label,
            paper.paper_workload(),
            machines,
            system.name(),
            b,
            fmt_outcome(&results[i]),
            mark_optimal(&results, i)
        ));
    }
    let monotone = Series::with_values("", times.clone()).is_monotone_non_decreasing();
    summary.push((
        format!(
            "{label} ({}, {machines}, {})",
            paper.paper_workload(),
            system.name()
        ),
        monotone,
    ));
}

fn main() {
    let dblp = ScaledDataset::load(Dataset::Dblp);
    let mut summary = Vec::new();
    let mut t = Table::new(
        "Figure 3: various experiments on Galaxy-8",
        &[
            "panel",
            "Workload",
            "#Machines",
            "System",
            "batches",
            "time (s)",
            "optimal",
        ],
    );

    // (a) Varying task.
    sweep_panel(
        &mut t,
        &mut summary,
        "a:BPPR",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(12288),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "a:MSSP",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Mssp(4096),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "a:BKHS",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bkhs(65536, 2),
    );

    // (b) Varying dataset.
    sweep_panel(
        &mut t,
        &mut summary,
        "b:DBLP",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(10240),
    );
    let webst = ScaledDataset::load(Dataset::WebSt);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:Web-St",
        &webst,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(20480),
    );
    let orkut = ScaledDataset::load(Dataset::Orkut);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:Orkut",
        &orkut,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(512),
    );

    // (c) Varying #machines.
    sweep_panel(
        &mut t,
        &mut summary,
        "c:2m",
        &dblp,
        2,
        SystemKind::PregelPlus,
        PaperTask::Bppr(2048),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "c:4m",
        &dblp,
        4,
        SystemKind::PregelPlus,
        PaperTask::Bppr(5120),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "c:8m",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(10240),
    );

    // (d) Varying system.
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Pregel+",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(10240),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Giraph",
        &dblp,
        8,
        SystemKind::Giraph,
        PaperTask::Bppr(2048),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Giraph(async)",
        &dblp,
        8,
        SystemKind::GiraphAsync,
        PaperTask::Bppr(1024),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Pregel+(mirror)",
        &dblp,
        8,
        SystemKind::PregelPlusMirror,
        PaperTask::Bppr(160),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:GraphD",
        &dblp,
        8,
        SystemKind::GraphD,
        PaperTask::Bppr(2048),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:GraphLab",
        &dblp,
        8,
        SystemKind::GraphLab,
        PaperTask::Bppr(20480),
    );

    emit("fig03", &t);

    let mut s = Table::new(
        "Figure 3 summary: times mostly NOT monotone in #batches",
        &["setting", "monotone increasing?"],
    );
    let mut monotone_count = 0;
    for (label, mono) in &summary {
        if *mono {
            monotone_count += 1;
        }
        s.row(row!(
            label.clone(),
            if *mono { "monotone" } else { "not monotone" }
        ));
    }
    emit("fig03_summary", &s);
    assert!(
        monotone_count * 2 < summary.len(),
        "most settings should be non-monotone, got {monotone_count}/{}",
        summary.len()
    );
}
