//! One function per table or figure of the paper. Each renders its
//! tables through [`Paper::emit`] and asserts the paper's claim.

mod fig02;
mod fig03;
mod fig04;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod table1;
mod table2;
mod table3;
mod table4;

use crate::{fmt_outcome, mark_optimal, Paper, PaperTask, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_core::JobResult;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Series, Table};
use mtvc_systems::SystemKind;

/// An artifact's id and the function that renders and asserts it.
pub type Artifact = (&'static str, fn(&mut Paper));

/// Every artifact, in the order the `paper` binary runs them.
pub const ALL: [Artifact; 15] = [
    ("table1", table1::run),
    ("fig02", fig02::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig06", fig06::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig05", fig05::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("table4", table4::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
];

/// One line of a batch-sweep panel: `task` on `system`, over `dataset`
/// on `machines` machines of a cluster preset.
#[derive(Clone, Copy)]
struct Line {
    label: &'static str,
    dataset: Dataset,
    machines: usize,
    system: SystemKind,
    task: PaperTask,
}

const fn line(
    label: &'static str,
    dataset: Dataset,
    machines: usize,
    system: SystemKind,
    task: PaperTask,
) -> Line {
    Line {
        label,
        dataset,
        machines,
        system,
        task,
    }
}

impl Line {
    /// The line's cells at every batch count of [`BATCH_AXIS`], on
    /// `preset(machines)` scaled for the dataset and system.
    fn sweep(&self, paper: &mut Paper, preset: fn(usize) -> ClusterSpec) -> Vec<JobResult> {
        let sd = paper.dataset(self.dataset);
        let cluster = sd.cluster_for(preset(self.machines), self.system);
        paper.sweep(&sd, &cluster, self.system, self.task, &BATCH_AXIS)
    }
}

/// The panel figures on Galaxy clusters (Figs 3 and 5): sweep every
/// line, emit the rows under `id`, and return whether each line's plot
/// times are monotone non-decreasing in the batch count.
fn galaxy_panels(paper: &mut Paper, id: &str, title: &str, lines: &[Line]) -> Vec<bool> {
    let mut t = Table::new(
        title,
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
    let mut monotone = Vec::new();
    for l in lines {
        let results = l.sweep(paper, ClusterSpec::galaxy);
        for (i, &b) in BATCH_AXIS.iter().enumerate() {
            t.row(row!(
                l.label,
                l.task.paper_workload(),
                l.machines,
                l.system.name(),
                b,
                fmt_outcome(&results[i]),
                mark_optimal(&results, i)
            ));
        }
        let times = results.iter().map(|r| r.plot_time().as_secs()).collect();
        monotone.push(Series::with_values("", times).is_monotone_non_decreasing());
    }
    paper.emit(id, &t);
    monotone
}

/// The "times mostly NOT monotone" summary table of Figs 3 and 5.
fn monotone_summary(paper: &mut Paper, id: &str, title: &str, rows: &[(String, bool)]) {
    let mut s = Table::new(title, &["setting", "monotone increasing?"]);
    for (label, mono) in rows {
        s.row(row!(
            label.clone(),
            if *mono { "monotone" } else { "not monotone" }
        ));
    }
    paper.emit(id, &s);
}
