//! Table 4 — asynchronous GraphLab vs synchronous GraphLab on a classic
//! task (PageRank) and a multi-processing task (BPPR).
//!
//! Reproduced claims (§4.8): async beats sync for PageRank and the gap
//! grows with machines (barrier elimination); for heavy BPPR the
//! relation flips — sync combines messages and avoids distributed-lock
//! contention, so async sends more bytes and runs slower at high load.

use crate::{Paper, PaperTask, ScaledDataset, SEED};
use mtvc_cluster::ClusterSpec;
use mtvc_engine::{EngineConfig, Runner};
use mtvc_graph::Dataset;
use mtvc_metrics::{Bytes, SimTime, Table};
use mtvc_systems::SystemKind;
use mtvc_tasks::PageRankProgram;

fn run_pagerank(sd: &ScaledDataset, machines: usize, kind: SystemKind) -> (SimTime, Bytes) {
    let cluster = sd.cluster(ClusterSpec::galaxy(machines));
    let mut cfg = EngineConfig::new(cluster.clone(), kind.profile(&cluster.machine));
    cfg.seed = SEED;
    let runner = Runner::new(&sd.graph, kind.partitioner().as_ref(), cfg);
    let r = runner.run_slab(&PageRankProgram::default());
    let bytes = Bytes(r.stats.total_network_bytes.get() / machines as u64);
    (r.outcome.plot_time(), bytes)
}

fn run_bppr(
    paper: &mut Paper,
    sd: &ScaledDataset,
    machines: usize,
    kind: SystemKind,
    w: u64,
) -> (SimTime, Bytes) {
    let cluster = sd.cluster(ClusterSpec::galaxy(machines));
    let r = paper.cell(sd, &cluster, kind, PaperTask::Bppr(w), 1);
    let bytes = Bytes(r.stats.total_network_bytes.get() / machines as u64);
    (r.outcome.plot_time(), bytes)
}

pub(super) fn run(paper: &mut Paper) {
    let sd = paper.dataset(Dataset::Dblp);
    let machines_axis = [1usize, 2, 4, 8, 16];
    let workloads = [8u64, 32, 128, 512];

    let mut t = Table::new(
        "Table 4: GraphLab(sync) vs GraphLab(async) — seconds / net bytes per machine",
        &[
            "Machines",
            "PR sync",
            "PR async",
            "BPPR(8) s",
            "BPPR(8) a",
            "BPPR(32) s",
            "BPPR(32) a",
            "BPPR(128) s",
            "BPPR(128) a",
            "BPPR(512) s",
            "BPPR(512) a",
        ],
    );
    let fmt = |(t, b): (SimTime, Bytes)| format!("{:.1}s/{}", t.as_secs(), b);
    let mut pr_ratio = Vec::new();
    let mut bppr512 = Vec::new();
    for &m in &machines_axis {
        let pr_sync = run_pagerank(&sd, m, SystemKind::GraphLab);
        let pr_async = run_pagerank(&sd, m, SystemKind::GraphLabAsync);
        pr_ratio.push((m, pr_sync.0.as_secs() / pr_async.0.as_secs()));
        let mut cells = vec![m.to_string(), fmt(pr_sync), fmt(pr_async)];
        for &w in &workloads {
            let s = run_bppr(paper, &sd, m, SystemKind::GraphLab, w);
            let a = run_bppr(paper, &sd, m, SystemKind::GraphLabAsync, w);
            if w == 512 {
                bppr512.push((m, s, a));
            }
            cells.push(fmt(s));
            cells.push(fmt(a));
        }
        t.row(cells.into_iter().map(mtvc_metrics::Cell).collect());
    }
    paper.emit("table4", &t);

    // Async wins PageRank at scale.
    let (m, ratio) = *pr_ratio.last().unwrap();
    println!("PageRank sync/async ratio at {m} machines = {ratio:.2}");
    assert!(
        ratio > 1.2,
        "async should clearly win PageRank at {m} machines"
    );

    // Sync wins heavy BPPR at scale, and async moves more bytes.
    let (m, s, a) = *bppr512.last().unwrap();
    println!(
        "BPPR(512) at {m} machines: sync {:.1}s/{} vs async {:.1}s/{}",
        s.0.as_secs(),
        s.1,
        a.0.as_secs(),
        a.1
    );
    assert!(
        a.0.as_secs() > s.0.as_secs() * 1.2,
        "async should clearly lose heavy BPPR at {m} machines"
    );
    assert!(a.1 > s.1, "async should move more bytes per machine");
}
