//! The paper's tables and figures, rendered from one memoised cell table.
//!
//! Each artifact in [`artifacts::ALL`] reconstructs one table or figure:
//! it builds the scaled dataset + cluster pair (same σ for both, per
//! DESIGN.md §2), runs the multi-task jobs through a shared [`Paper`],
//! prints the paper-style rows, and asserts the paper's claim. The
//! `paper` binary runs them and diffs every CSV against
//! `crates/bench/golden/`:
//!
//! ```sh
//! cargo run --release -p mtvc-bench --bin paper            # every artifact
//! cargo run --release -p mtvc-bench --bin paper fig04 fig08 # some of them
//! MTVC_GOLDEN_REGEN=1 cargo run --release -p mtvc-bench --bin paper  # rewrite
//! ```

pub mod artifacts;

use mtvc_cluster::{ClusterSpec, MachineSpec};
use mtvc_core::{run_job, BatchSchedule, JobResult, JobSpec, Task};
use mtvc_graph::{Dataset, Graph};
use mtvc_metrics::{RunOutcome, Table};
use mtvc_systems::SystemKind;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;

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
        ScaledDataset::load_at(dataset, dataset.info().default_scale)
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

/// The job spec of one (dataset, cluster, system, task, k-batch) cell.
pub fn cell_spec(
    sd: &ScaledDataset,
    cluster: &ClusterSpec,
    system: SystemKind,
    paper: PaperTask,
    batches: usize,
) -> JobSpec {
    let task = sd.task(paper);
    JobSpec::new(
        task,
        system,
        cluster.clone(),
        BatchSchedule::equal(task.workload(), batches),
    )
    .with_seed(SEED)
}

/// Run one (dataset, cluster, system, task, k-batch) cell, unmemoised.
pub fn run_cell(
    sd: &ScaledDataset,
    cluster: &ClusterSpec,
    system: SystemKind,
    paper: PaperTask,
    batches: usize,
) -> JobResult {
    run_job(&sd.graph, &cell_spec(sd, cluster, system, paper, batches))
}

/// The doubling batch axis the figures use.
pub const BATCH_AXIS: [usize; 5] = [1, 2, 4, 8, 16];

/// Extra memory divisor applied to Pregel+(mirror) machines (see
/// [`ScaledDataset::cluster_for`]).
pub const MIRROR_MEM_DIV: f64 = 3.2;

/// Everything `run_job` reads, exactly: each f64 enters as its bits, so
/// two keys are equal only when the two jobs' inputs are bit-equal. The
/// destructuring in [`JobKey::new`] is exhaustive, so a field added to
/// the spec does not compile until it is keyed.
#[derive(Debug, PartialEq, Eq, Hash)]
struct JobKey {
    dataset: Dataset,
    scale: u64,
    cluster: String,
    machines: usize,
    /// Every [`MachineSpec`] field; the disk kind as its discriminant.
    machine: [u64; 8],
    system: SystemKind,
    /// The task's kind, its workload and its other parameter (α or k).
    task: (u8, u64, u64),
    schedule: Vec<u64>,
    seed: u64,
    cutoff: u64,
}

impl JobKey {
    fn new(sd: &ScaledDataset, spec: &JobSpec) -> JobKey {
        let JobSpec {
            task,
            system,
            cluster,
            schedule,
            seed,
            cutoff,
        } = spec;
        let ClusterSpec {
            name,
            machines,
            machine,
        } = cluster;
        let MachineSpec {
            memory,
            usable_fraction,
            cores,
            cpu_ops_per_sec,
            network_bandwidth,
            disk,
            disk_bandwidth,
            credit_rate,
        } = machine;
        JobKey {
            dataset: sd.dataset,
            scale: sd.scale,
            cluster: name.clone(),
            machines: *machines,
            machine: [
                memory.get(),
                usable_fraction.to_bits(),
                u64::from(*cores),
                cpu_ops_per_sec.to_bits(),
                network_bandwidth.to_bits(),
                *disk as u64,
                disk_bandwidth.to_bits(),
                credit_rate.to_bits(),
            ],
            system: *system,
            task: match *task {
                Task::Bppr {
                    walks_per_node,
                    alpha,
                } => (0, walks_per_node, alpha.to_bits()),
                Task::Mssp { num_sources } => (1, num_sources, 0),
                Task::Bkhs { num_sources, k } => (2, num_sources, u64::from(k)),
            },
            schedule: schedule.batches().to_vec(),
            seed: *seed,
            cutoff: cutoff.as_secs().to_bits(),
        }
    }
}

/// One run of the paper: every graph loaded once per (dataset, scale),
/// every job run once per distinct input (the dataset, its scale and
/// every field of the [`JobSpec`], f64s compared by bits), and the
/// tables the artifacts emitted, in order.
#[derive(Default)]
pub struct Paper {
    datasets: HashMap<(Dataset, u64), Rc<ScaledDataset>>,
    jobs: HashMap<JobKey, JobResult>,
    requested: usize,
    emitted: Vec<(String, String)>,
}

impl Paper {
    /// `dataset` at its default experiment scale.
    pub fn dataset(&mut self, dataset: Dataset) -> Rc<ScaledDataset> {
        self.dataset_at(dataset, dataset.info().default_scale)
    }

    /// `dataset` at an explicit scale divisor.
    pub fn dataset_at(&mut self, dataset: Dataset, scale: u64) -> Rc<ScaledDataset> {
        let sd = self
            .datasets
            .entry((dataset, scale))
            .or_insert_with(|| Rc::new(ScaledDataset::load_at(dataset, scale)));
        Rc::clone(sd)
    }

    /// `run_job(&sd.graph, spec)`, run only the first time its key is
    /// asked for.
    pub fn job(&mut self, sd: &ScaledDataset, spec: &JobSpec) -> JobResult {
        self.requested += 1;
        self.jobs
            .entry(JobKey::new(sd, spec))
            .or_insert_with(|| run_job(&sd.graph, spec))
            .clone()
    }

    /// One (dataset, cluster, system, task, k-batch) cell.
    pub fn cell(
        &mut self,
        sd: &ScaledDataset,
        cluster: &ClusterSpec,
        system: SystemKind,
        paper: PaperTask,
        batches: usize,
    ) -> JobResult {
        self.job(sd, &cell_spec(sd, cluster, system, paper, batches))
    }

    /// The cells of one line: `paper` on `system` at each batch count.
    pub fn sweep(
        &mut self,
        sd: &ScaledDataset,
        cluster: &ClusterSpec,
        system: SystemKind,
        paper: PaperTask,
        axis: &[usize],
    ) -> Vec<JobResult> {
        axis.iter()
            .map(|&b| self.cell(sd, cluster, system, paper, b))
            .collect()
    }

    /// Jobs asked for, counting repeats.
    pub fn jobs_requested(&self) -> usize {
        self.requested
    }

    /// Distinct jobs the engine ran.
    pub fn jobs_run(&self) -> usize {
        self.jobs.len()
    }

    /// Print a table and keep its CSV under `id` for the golden check.
    pub fn emit(&mut self, id: &str, table: &Table) {
        table.print();
        self.emitted.push((id.to_string(), table.to_csv()));
    }

    /// The `(id, csv)` of every emitted table, in emission order.
    pub fn emitted(&self) -> &[(String, String)] {
        &self.emitted
    }
}

/// The shared optimum rule: the index of the fastest completed run, the
/// first on a tie. A failed run (Overload/Overflow) is never optimal, so
/// a sweep whose runs all failed has no optimum.
pub fn optimum(results: &[JobResult]) -> Option<usize> {
    fastest(results.iter().map(|r| r.outcome))
}

/// [`optimum`] over bare outcomes.
pub fn fastest(outcomes: impl IntoIterator<Item = RunOutcome>) -> Option<usize> {
    outcomes
        .into_iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, o.time()?.as_secs())))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

/// An optimum on `axis` as printed: its batch count, or "all failed".
pub fn fmt_optimum(axis: &[usize], optimum: Option<usize>) -> String {
    optimum.map_or("all failed".into(), |i| axis[i].to_string())
}

/// Format a plot time the way the paper annotates bars: the time, or
/// `Overload`/`Overflow`.
pub fn fmt_outcome(r: &JobResult) -> String {
    match r.outcome {
        RunOutcome::Completed(t) => format!("{:.1}", t.as_secs()),
        other => other.to_string(),
    }
}

/// Mark every entry of a sweep that ties the [`optimum`]'s time with
/// the paper's arrow; an all-failed sweep marks none.
pub fn mark_optimal(results: &[JobResult], idx: usize) -> &'static str {
    let time = |i: usize| results[i].outcome.time().map(|t| t.as_secs());
    match (optimum(results).and_then(time), time(idx)) {
        (Some(best), Some(t)) if (t - best).abs() < 1e-9 => " <== optimal",
        _ => "",
    }
}

/// The environment switch that rewrites the golden CSVs instead of
/// checking against them.
pub const REGEN: &str = "MTVC_GOLDEN_REGEN";

/// Diff one emitted CSV against its golden,
/// `crates/bench/golden/<id>.csv`, or rewrite the golden when [`REGEN`]
/// is set. The error names the first lines that differ.
pub fn check_golden(id: &str, csv: &str) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{id}.csv"));
    if std::env::var_os(REGEN).is_some() {
        return std::fs::write(&path, csv).map_err(|e| format!("write {}: {e}", path.display()));
    }
    let want = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {}: {e}; regenerate with {REGEN}=1", path.display()))?;
    if want == csv {
        return Ok(());
    }
    let (got, want): (Vec<&str>, Vec<&str>) = (csv.lines().collect(), want.lines().collect());
    let moved: Vec<usize> = (0..got.len().max(want.len()))
        .filter(|&i| got.get(i) != want.get(i))
        .collect();
    let mut report = format!(
        "{id}: {} of {} golden lines differ",
        moved.len(),
        want.len()
    );
    for &i in moved.iter().take(5) {
        let line = |v: &[&str]| v.get(i).map_or("<none>".to_string(), |l| l.to_string());
        report += &format!(
            "\n  line {}:\n    want {}\n    got  {}",
            i + 1,
            line(&want),
            line(&got)
        );
    }
    report += &format!(
        "\nIf the change is intended, regenerate with {REGEN}=1 and review \
         `git diff crates/bench/golden`."
    );
    Err(report)
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

    #[test]
    fn optimum_skips_failed_runs() {
        use RunOutcome::{Overflow, Overload};
        let mixed = [
            job_result(Overflow),
            completed(9.0),
            job_result(Overload),
            completed(4.0),
            completed(6.0),
        ];
        assert_eq!(optimum(&mixed), Some(3));
        let failed = [job_result(Overload), job_result(Overflow)];
        assert_eq!(optimum(&failed), None);
        assert_eq!(fmt_optimum(&BATCH_AXIS, optimum(&failed)), "all failed");
        assert_eq!(optimum(&[]), None);
    }

    /// On a tie the first index wins, and every tied row is marked.
    #[test]
    fn optimum_breaks_ties_to_the_first() {
        let tied = [completed(7.0), completed(3.0), completed(3.0)];
        assert_eq!(optimum(&tied), Some(1));
        assert_eq!(fmt_optimum(&BATCH_AXIS, optimum(&tied)), "2");
        assert_eq!(mark_optimal(&tied, 2), " <== optimal");
    }

    /// A tiny DBLP stand-in, so the memo tests stay fast in debug.
    fn tiny(paper: &mut Paper) -> Rc<ScaledDataset> {
        paper.dataset_at(Dataset::Dblp, 1 << 14)
    }

    #[test]
    fn memo_runs_a_repeated_job_once() {
        let mut paper = Paper::default();
        let sd = tiny(&mut paper);
        assert!(Rc::ptr_eq(&sd, &tiny(&mut paper)), "graph loaded twice");
        let cluster = sd.cluster(ClusterSpec::galaxy(2));
        let run = |paper: &mut Paper| {
            paper.cell(&sd, &cluster, SystemKind::PregelPlus, PaperTask::Mssp(4), 2)
        };
        let first = run(&mut paper);
        let again = run(&mut paper);
        assert_eq!((paper.jobs_requested(), paper.jobs_run()), (2, 1));
        assert_eq!(first.outcome, again.outcome);
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        let fresh = run_cell(&sd, &cluster, SystemKind::PregelPlus, PaperTask::Mssp(4), 2);
        assert_eq!(format!("{first:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn memo_keys_on_cutoff_and_mirror_divisor() {
        let sd = ScaledDataset::load_at(Dataset::Dblp, 1 << 14);
        let system = SystemKind::PregelPlusMirror;
        let plain = sd.cluster(ClusterSpec::galaxy8());
        let mirror = sd.cluster_for(ClusterSpec::galaxy8(), system);
        let spec = |cluster: &ClusterSpec| cell_spec(&sd, cluster, system, PaperTask::Bppr(8), 2);
        let key = |spec: &JobSpec| JobKey::new(&sd, spec);
        assert_eq!(key(&spec(&plain)), key(&spec(&plain)));
        assert_ne!(key(&spec(&plain)), key(&spec(&mirror)));
        let mut raised = spec(&plain);
        raised.cutoff = SimTime::secs(50_000.0);
        assert_ne!(key(&spec(&plain)), key(&raised));
    }
}
