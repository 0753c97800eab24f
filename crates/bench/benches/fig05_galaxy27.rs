//! Figure 5 — batch sweeps on Galaxy-27 (defaults: DBLP, BPPR, Pregel+),
//! including the billion-edge Twitter/Friendster stand-ins.

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
    let monotone = Series::with_values("", times).is_monotone_non_decreasing();
    summary.push((label.to_string(), monotone));
}

fn main() {
    let dblp = ScaledDataset::load(Dataset::Dblp);
    let mut summary = Vec::new();
    let mut t = Table::new(
        "Figure 5: various experiments on Galaxy-27",
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
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(34560),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "a:MSSP",
        &dblp,
        27,
        SystemKind::PregelPlus,
        PaperTask::Mssp(3456),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "a:BKHS",
        &dblp,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bkhs(25600, 2),
    );

    // (b) Varying dataset.
    sweep_panel(
        &mut t,
        &mut summary,
        "b:DBLP",
        &dblp,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(34560),
    );
    let webst = ScaledDataset::load(Dataset::WebSt);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:Web-St",
        &webst,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(69120),
    );
    let lj = ScaledDataset::load(Dataset::LiveJournal);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:LiveJournal",
        &lj,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(8192),
    );
    let orkut = ScaledDataset::load(Dataset::Orkut);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:Orkut",
        &orkut,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(3000),
    );
    let twitter = ScaledDataset::load(Dataset::Twitter);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:Twitter",
        &twitter,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(128),
    );
    let friendster = ScaledDataset::load(Dataset::Friendster);
    sweep_panel(
        &mut t,
        &mut summary,
        "b:Friendster",
        &friendster,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(16),
    );

    // (c) Varying #machines.
    sweep_panel(
        &mut t,
        &mut summary,
        "c:8m",
        &dblp,
        8,
        SystemKind::PregelPlus,
        PaperTask::Bppr(10240),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "c:16m",
        &dblp,
        16,
        SystemKind::PregelPlus,
        PaperTask::Bppr(20480),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "c:27m",
        &dblp,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(34560),
    );

    // (d) Varying system.
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Pregel+",
        &dblp,
        27,
        SystemKind::PregelPlus,
        PaperTask::Bppr(34560),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Giraph",
        &dblp,
        27,
        SystemKind::Giraph,
        PaperTask::Bppr(6400),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Giraph(async)",
        &dblp,
        27,
        SystemKind::GiraphAsync,
        PaperTask::Bppr(6400),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:Pregel+(mirror)",
        &dblp,
        27,
        SystemKind::PregelPlusMirror,
        PaperTask::Bppr(256),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:GraphD",
        &dblp,
        27,
        SystemKind::GraphD,
        PaperTask::Bppr(5120),
    );
    sweep_panel(
        &mut t,
        &mut summary,
        "d:GraphLab",
        &dblp,
        27,
        SystemKind::GraphLab,
        PaperTask::Bppr(1600),
    );

    emit("fig05", &t);

    let mut s = Table::new(
        "Figure 5 summary: times mostly NOT monotone in #batches",
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
    emit("fig05_summary", &s);
    let _ = monotone_count;
    // The paper's summary panel highlights: Twitter(128) and
    // Friendster(16) are the monotone cases; the heavy BPPR defaults
    // are not. (Our cost model leaves several additional light 27-
    // machine settings without memory pressure — flat/monotone lines —
    // which EXPERIMENTS.md records as a known deviation.)
    let get = |label: &str| {
        summary
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("missing {label}"))
            .1
    };
    for must_dip in [
        "a:BPPR",
        "b:DBLP",
        "b:Web-St",
        "c:8m",
        "c:16m",
        "c:27m",
        "d:Pregel+",
        "d:GraphD",
    ] {
        assert!(!get(must_dip), "{must_dip} should be non-monotone");
    }
    for flat in ["b:Twitter", "b:Friendster"] {
        assert!(get(flat), "{flat} should be monotone (paper summary)");
    }
}
