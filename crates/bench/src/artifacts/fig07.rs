//! Figure 7 — performance AND monetary cost in the cloud (Docker-32).
//!
//! For each panel the per-batch-setting monetary cost sums the credit
//! costs of every experiment run at that setting; overloaded runs are
//! billed at the cutoff and rendered `>$x`. The optimum cost line picks
//! the best batch setting per workload individually (§4.6).

use super::{line, Line};
use crate::PaperTask::{Bkhs, Bppr, Mssp};
use crate::{fmt_outcome, mark_optimal, Paper, BATCH_AXIS};
use mtvc_cluster::{ClusterSpec, MonetaryCost};
use mtvc_graph::Dataset::{Dblp, Orkut, Twitter, WebSt};
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind::{Giraph, GraphD, PregelPlus, PregelPlusMirror};

const PANELS: [(&str, &[Line]); 4] = [
    (
        "a:task",
        &[
            line("BPPR(40960)", Dblp, 32, PregelPlus, Bppr(40960)),
            line("MSSP(4096)", Dblp, 32, PregelPlus, Mssp(4096)),
            line("BKHS(8192)", Dblp, 32, PregelPlus, Bkhs(8192, 2)),
        ],
    ),
    (
        "b:dataset",
        &[
            line("DBLP(40960)", Dblp, 32, PregelPlus, Bppr(40960)),
            line("Web-St(81920)", WebSt, 32, PregelPlus, Bppr(81920)),
            line("Orkut(4096)", Orkut, 32, PregelPlus, Bppr(4096)),
            line("Twitter(128)", Twitter, 32, PregelPlus, Bppr(128)),
        ],
    ),
    (
        "c:machines",
        &[
            line("8m(10240)", Dblp, 8, PregelPlus, Bppr(10240)),
            line("16m(20480)", Dblp, 16, PregelPlus, Bppr(20480)),
            line("32m(40960)", Dblp, 32, PregelPlus, Bppr(40960)),
        ],
    ),
    (
        "d:system",
        &[
            line("Pregel+(40960)", Dblp, 32, PregelPlus, Bppr(40960)),
            line("Giraph(8192)", Dblp, 32, Giraph, Bppr(8192)),
            line("GraphD(4096)", Dblp, 32, GraphD, Bppr(4096)),
            line(
                "Pregel+(mirror)(160)",
                Dblp,
                32,
                PregelPlusMirror,
                Bppr(160),
            ),
        ],
    ),
];

pub(super) fn run(paper: &mut Paper) {
    let mut t = Table::new(
        "Figure 7: performance and monetary cost in the cloud (Docker-32)",
        &[
            "panel", "setting", "batches", "time (s)", "credits", "optimal",
        ],
    );
    let mut c = Table::new(
        "Figure 7 monetary summary (per batch setting, as the x-axis $ labels)",
        &["panel", "$1", "$2", "$4", "$8", "$16", "optimal $"],
    );
    let mut checks = Vec::new();
    for (label, lines) in PANELS {
        let mut per_batch = [MonetaryCost::ZERO; BATCH_AXIS.len()];
        let mut optimal = MonetaryCost::ZERO;
        for l in lines {
            let results = l.sweep(paper, ClusterSpec::docker);
            for (i, &b) in BATCH_AXIS.iter().enumerate() {
                t.row(row!(
                    label,
                    l.label,
                    b,
                    fmt_outcome(&results[i]),
                    results[i].cost,
                    mark_optimal(&results, i)
                ));
                per_batch[i] = per_batch[i] + results[i].cost;
            }
            // The per-line cost optimum bills failed runs at the cutoff,
            // as the paper's `>$x` labels do.
            optimal = optimal
                + results
                    .iter()
                    .map(|r| r.cost)
                    .min_by(|a, b| a.credits.total_cmp(&b.credits))
                    .expect("a sweep has runs");
        }
        c.row(row!(
            label,
            per_batch[0],
            per_batch[1],
            per_batch[2],
            per_batch[3],
            per_batch[4],
            optimal
        ));
        checks.push((label, per_batch, optimal));
    }
    paper.emit("fig07", &t);
    paper.emit("fig07_money", &c);
    for (label, per_batch, optimal) in checks {
        // An ill-set batch count must cost strictly more than the optimum.
        let max = per_batch.iter().map(|m| m.credits).fold(0.0f64, f64::max);
        assert!(
            max > optimal.credits * 1.2,
            "{label}: batching should matter for cloud cost"
        );
    }
}
