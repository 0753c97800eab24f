//! Shared harness for the figure/table regeneration benches.
//!
//! Every bench target reconstructs one table or figure of the paper:
//! it builds the scaled dataset + cluster pair (same σ for both, per
//! DESIGN.md §2), runs the multi-task jobs, and prints the paper-style
//! rows. CSV copies land in `target/experiments/`.

use mtvc_cluster::ClusterSpec;
use mtvc_core::{run_job, BatchSchedule, JobResult, JobSpec, Task};
use mtvc_graph::{Dataset, Graph};
use mtvc_metrics::Table;
use mtvc_systems::SystemKind;
use std::path::PathBuf;

/// Deterministic seed shared by all experiments.
pub const SEED: u64 = 0xEDB7_2023;

/// A dataset prepared at its experiment scale, with the matching
/// σ-scaled cluster factory.
pub struct ScaledDataset {
    pub dataset: Dataset,
    pub scale: u64,
    pub graph: Graph,
}

impl ScaledDataset {
    /// Load `dataset` at its default experiment scale.
    pub fn load(dataset: Dataset) -> ScaledDataset {
        let scale = dataset.info().default_scale;
        ScaledDataset {
            dataset,
            scale,
            graph: dataset.generate(scale),
        }
    }

    /// Load at an explicit scale divisor.
    pub fn load_at(dataset: Dataset, scale: u64) -> ScaledDataset {
        ScaledDataset {
            dataset,
            scale,
            graph: dataset.generate(scale),
        }
    }

    /// A cluster preset scaled to this dataset's σ.
    pub fn cluster(&self, preset: ClusterSpec) -> ClusterSpec {
        preset.scaled(self.scale as f64)
    }

    /// Cluster for a specific system. Pregel+(mirror) is the one case
    /// where σ-scaling cannot preserve memory pressure: the push
    /// variant's state is per (vertex, source) pair, which caps at n²
    /// in a scaled graph while the paper's support does not. Its
    /// machines get an extra memory divisor so the mirror lines hit
    /// the memory-bound regime at the paper's workloads (see
    /// EXPERIMENTS.md "Calibration").
    pub fn cluster_for(&self, preset: ClusterSpec, system: SystemKind) -> ClusterSpec {
        let mut c = self.cluster(preset);
        if system.is_broadcast() {
            c.machine.memory = c.machine.memory.scaled(1.0 / MIRROR_MEM_DIV);
        }
        c
    }

    /// Translate a paper-units workload into the effective task at this
    /// scale. All workloads carry over verbatim: BPPR walks are
    /// per-node (scale-free), and MSSP/BKHS message volume already
    /// scales with the graph (reach ∝ n), so source counts stay at
    /// paper values, with repeats addressed as distinct queries.
    pub fn task(&self, paper: PaperTask) -> Task {
        match paper {
            PaperTask::Bppr(w) => Task::bppr(w),
            PaperTask::Mssp(s) => Task::mssp(s),
            PaperTask::Bkhs(s, k) => Task::Bkhs { num_sources: s, k },
        }
    }
}

/// A workload quoted in the paper's units.
#[derive(Debug, Clone, Copy)]
pub enum PaperTask {
    /// BPPR: walks per node.
    Bppr(u64),
    /// MSSP: number of sources (paper units; scaled by σ).
    Mssp(u64),
    /// BKHS: number of sources + hop bound.
    Bkhs(u64, u32),
}

impl PaperTask {
    pub fn paper_workload(&self) -> u64 {
        match *self {
            PaperTask::Bppr(w) => w,
            PaperTask::Mssp(s) => s,
            PaperTask::Bkhs(s, _) => s,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            PaperTask::Bppr(_) => "BPPR",
            PaperTask::Mssp(_) => "MSSP",
            PaperTask::Bkhs(..) => "BKHS",
        }
    }
}

/// Run one (dataset, cluster, system, task, k-batch) cell.
pub fn run_cell(
    sd: &ScaledDataset,
    cluster: &ClusterSpec,
    system: SystemKind,
    paper: PaperTask,
    batches: usize,
) -> JobResult {
    let task = sd.task(paper);
    let spec = JobSpec::new(
        task,
        system,
        cluster.clone(),
        BatchSchedule::equal(task.workload(), batches),
    )
    .with_seed(SEED);
    run_job(&sd.graph, &spec)
}

/// The doubling batch axis the figures use.
pub const BATCH_AXIS: [usize; 5] = [1, 2, 4, 8, 16];

/// Extra memory divisor applied to Pregel+(mirror) machines (see
/// [`ScaledDataset::cluster_for`]).
pub const MIRROR_MEM_DIV: f64 = 3.2;

/// Render a table to stdout and save a CSV copy under
/// `target/experiments/<id>.csv`.
pub fn emit(id: &str, table: &Table) {
    table.print();
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Format a plot time the way the paper annotates bars: the time, or
/// `Overload`/`Overflow`.
pub fn fmt_outcome(r: &JobResult) -> String {
    match r.outcome {
        mtvc_metrics::RunOutcome::Completed(t) => format!("{:.1}", t.as_secs()),
        other => other.to_string(),
    }
}

/// Mark the best (minimum completed-time) entry of a sweep with the
/// paper's arrow. A failed run (Overload/Overflow) is never optimal, so
/// a sweep whose runs all failed marks none.
pub fn mark_optimal(results: &[JobResult], idx: usize) -> &'static str {
    let time = |r: &JobResult| r.outcome.time().map(|t| t.as_secs());
    let min = results
        .iter()
        .filter_map(time)
        .fold(f64::INFINITY, f64::min);
    match time(&results[idx]) {
        Some(t) if (t - min).abs() < 1e-9 => " <== optimal",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_metrics::{RunOutcome, SimTime};

    #[test]
    fn scaled_dataset_translates_workloads() {
        let sd = ScaledDataset::load_at(Dataset::Dblp, 256);
        match sd.task(PaperTask::Bppr(10240)) {
            Task::Bppr { walks_per_node, .. } => assert_eq!(walks_per_node, 10240),
            _ => panic!(),
        }
        match sd.task(PaperTask::Mssp(4096)) {
            Task::Mssp { num_sources } => assert_eq!(num_sources, 4096),
            _ => panic!(),
        }
    }

    #[test]
    fn cluster_scaling_applied() {
        let sd = ScaledDataset::load_at(Dataset::Dblp, 256);
        let c = sd.cluster(ClusterSpec::galaxy8());
        assert_eq!(c.machines, 8);
        assert!(c.machine.memory < mtvc_metrics::Bytes::gib(1));
    }

    fn job_result(outcome: RunOutcome) -> JobResult {
        JobResult {
            outcome,
            stats: Default::default(),
            per_batch: Vec::new(),
            cost: mtvc_cluster::MonetaryCost::ZERO,
        }
    }

    fn completed(secs: f64) -> JobResult {
        job_result(RunOutcome::Completed(SimTime::secs(secs)))
    }

    #[test]
    fn mark_optimal_finds_minimum() {
        let results = [completed(5.0), completed(2.0), completed(7.0)];
        assert_eq!(mark_optimal(&results, 1), " <== optimal");
        assert_eq!(mark_optimal(&results, 0), "");
    }

    /// Failed runs share the cutoff as their plot time, yet none of them
    /// is optimal: beside a completed run, or with every run failed.
    #[test]
    fn mark_optimal_never_flags_failed_runs() {
        use RunOutcome::{Overflow, Overload};
        let mixed = [
            job_result(Overflow),
            completed(6000.0),
            job_result(Overload),
        ];
        assert_eq!(mark_optimal(&mixed, 1), " <== optimal");
        assert_eq!(mark_optimal(&mixed, 0), "");
        assert_eq!(mark_optimal(&mixed, 2), "");
        let failed = [
            job_result(Overload),
            job_result(Overflow),
            job_result(Overload),
        ];
        assert!((0..3).all(|i| mark_optimal(&failed, i).is_empty()));
    }
}
