//! Figure 5 — batch sweeps on Galaxy-27 (defaults: DBLP, BPPR, Pregel+),
//! including the billion-edge Twitter/Friendster stand-ins.

use super::{galaxy_panels, line, monotone_summary, Line};
use crate::Paper;
use crate::PaperTask::{Bkhs, Bppr, Mssp};
use mtvc_graph::Dataset::{Dblp, Friendster, LiveJournal, Orkut, Twitter, WebSt};
use mtvc_systems::SystemKind::{
    Giraph, GiraphAsync, GraphD, GraphLab, PregelPlus, PregelPlusMirror,
};

const LINES: [Line; 18] = [
    // (a) Varying task.
    line("a:BPPR", Dblp, 27, PregelPlus, Bppr(34560)),
    line("a:MSSP", Dblp, 27, PregelPlus, Mssp(3456)),
    line("a:BKHS", Dblp, 27, PregelPlus, Bkhs(25600, 2)),
    // (b) Varying dataset.
    line("b:DBLP", Dblp, 27, PregelPlus, Bppr(34560)),
    line("b:Web-St", WebSt, 27, PregelPlus, Bppr(69120)),
    line("b:LiveJournal", LiveJournal, 27, PregelPlus, Bppr(8192)),
    line("b:Orkut", Orkut, 27, PregelPlus, Bppr(3000)),
    line("b:Twitter", Twitter, 27, PregelPlus, Bppr(128)),
    line("b:Friendster", Friendster, 27, PregelPlus, Bppr(16)),
    // (c) Varying #machines.
    line("c:8m", Dblp, 8, PregelPlus, Bppr(10240)),
    line("c:16m", Dblp, 16, PregelPlus, Bppr(20480)),
    line("c:27m", Dblp, 27, PregelPlus, Bppr(34560)),
    // (d) Varying system.
    line("d:Pregel+", Dblp, 27, PregelPlus, Bppr(34560)),
    line("d:Giraph", Dblp, 27, Giraph, Bppr(6400)),
    line("d:Giraph(async)", Dblp, 27, GiraphAsync, Bppr(6400)),
    line("d:Pregel+(mirror)", Dblp, 27, PregelPlusMirror, Bppr(256)),
    line("d:GraphD", Dblp, 27, GraphD, Bppr(5120)),
    line("d:GraphLab", Dblp, 27, GraphLab, Bppr(1600)),
];

pub(super) fn run(paper: &mut Paper) {
    let monotone = galaxy_panels(
        paper,
        "fig05",
        "Figure 5: various experiments on Galaxy-27",
        &LINES,
    );
    let summary: Vec<(String, bool)> = LINES
        .iter()
        .zip(monotone)
        .map(|(l, mono)| (l.label.to_string(), mono))
        .collect();
    monotone_summary(
        paper,
        "fig05_summary",
        "Figure 5 summary: times mostly NOT monotone in #batches",
        &summary,
    );
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
    // Known deviation: both lines overflow at every batch count, so
    // their flat cutoff-height plot times are monotone vacuously.
    for flat in ["b:Twitter", "b:Friendster"] {
        assert!(get(flat), "{flat} should be monotone (paper summary)");
    }
}
