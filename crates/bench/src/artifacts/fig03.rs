//! Figure 3 — batch sweeps on Galaxy-8: varying task, dataset,
//! #machines, and system (defaults: DBLP, BPPR, Pregel+).
//!
//! Each panel sweeps 1–16 batches. The right-hand summary of the paper
//! is reproduced as a "monotone?" column: running times mostly are NOT
//! increasing with the number of batches (only genuinely light settings
//! are monotone).

use super::{galaxy_panels, line, monotone_summary, Line};
use crate::Paper;
use crate::PaperTask::{Bkhs, Bppr, Mssp};
use mtvc_graph::Dataset::{Dblp, Orkut, WebSt};
use mtvc_systems::SystemKind::{
    Giraph, GiraphAsync, GraphD, GraphLab, PregelPlus, PregelPlusMirror,
};

const LINES: [Line; 15] = [
    // (a) Varying task.
    line("a:BPPR", Dblp, 8, PregelPlus, Bppr(12288)),
    line("a:MSSP", Dblp, 8, PregelPlus, Mssp(4096)),
    line("a:BKHS", Dblp, 8, PregelPlus, Bkhs(65536, 2)),
    // (b) Varying dataset.
    line("b:DBLP", Dblp, 8, PregelPlus, Bppr(10240)),
    line("b:Web-St", WebSt, 8, PregelPlus, Bppr(20480)),
    line("b:Orkut", Orkut, 8, PregelPlus, Bppr(512)),
    // (c) Varying #machines.
    line("c:2m", Dblp, 2, PregelPlus, Bppr(2048)),
    line("c:4m", Dblp, 4, PregelPlus, Bppr(5120)),
    line("c:8m", Dblp, 8, PregelPlus, Bppr(10240)),
    // (d) Varying system.
    line("d:Pregel+", Dblp, 8, PregelPlus, Bppr(10240)),
    line("d:Giraph", Dblp, 8, Giraph, Bppr(2048)),
    line("d:Giraph(async)", Dblp, 8, GiraphAsync, Bppr(1024)),
    line("d:Pregel+(mirror)", Dblp, 8, PregelPlusMirror, Bppr(160)),
    line("d:GraphD", Dblp, 8, GraphD, Bppr(2048)),
    line("d:GraphLab", Dblp, 8, GraphLab, Bppr(20480)),
];

pub(super) fn run(paper: &mut Paper) {
    let monotone = galaxy_panels(
        paper,
        "fig03",
        "Figure 3: various experiments on Galaxy-8",
        &LINES,
    );
    let summary: Vec<(String, bool)> = LINES
        .iter()
        .zip(monotone)
        .map(|(l, mono)| {
            let setting = format!(
                "{} ({}, {}, {})",
                l.label,
                l.task.paper_workload(),
                l.machines,
                l.system.name()
            );
            (setting, mono)
        })
        .collect();
    monotone_summary(
        paper,
        "fig03_summary",
        "Figure 3 summary: times mostly NOT monotone in #batches",
        &summary,
    );
    let monotone_count = summary.iter().filter(|(_, mono)| *mono).count();
    assert!(
        monotone_count * 2 < summary.len(),
        "most settings should be non-monotone, got {monotone_count}/{}",
        summary.len()
    );
}
