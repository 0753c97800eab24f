//! Figure 6 — statistics behind Figure 4: per-round messages and raw
//! running times for workloads 1024/10240/12288 at 1/2/4 batches.
//!
//! The paper's reading: messages per round grow ~linearly with the
//! workload (~10x from 1024 to 10240) while the running time grows
//! super-linearly once the congestion threshold is hit. The cutoff is
//! raised so thrashed runs report raw times (the paper lists 6641.5 s).

use crate::{cell_spec, Paper, PaperTask};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, SimTime, Table};
use mtvc_systems::SystemKind;

pub(super) fn run(paper: &mut Paper) {
    let sd = paper.dataset(Dataset::Dblp);
    let cluster = sd.cluster(ClusterSpec::galaxy8());
    let mut t = Table::new(
        "Figure 6: per-round messages and raw times (DBLP, Galaxy-8, Pregel+)",
        &["Workload", "batches", "#msgs/round (M)", "time (s)"],
    );
    let mut per_round_msgs = Vec::new();
    for w in [1024u64, 10240, 12288] {
        for b in [1usize, 2, 4] {
            let mut spec = cell_spec(&sd, &cluster, SystemKind::PregelPlus, PaperTask::Bppr(w), b);
            // Raw-time reporting: let thrashed runs finish.
            spec.cutoff = SimTime::secs(50_000.0);
            let r = paper.job(&sd, &spec);
            let congestion_m = r.stats.congestion() / 1.0e6;
            if b == 1 {
                per_round_msgs.push((w, congestion_m));
            }
            t.row(row!(
                w,
                b,
                format!("{congestion_m:.2}"),
                format!("{:.1}", r.plot_time().as_secs())
            ));
        }
    }
    paper.emit("fig06", &t);
    // ~10x workload => ~10x messages per round (1-batch column).
    let ratio = per_round_msgs[1].1 / per_round_msgs[0].1;
    println!("msgs/round ratio (10240 vs 1024) = {ratio:.2}");
    assert!(
        (5.0..20.0).contains(&ratio),
        "expected ~10x message growth, got {ratio:.2}"
    );
}
