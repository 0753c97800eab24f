//! Practical-Pregel-Algorithm (PPA) condition checking (§2.4).
//!
//! Yan et al. define a *balanced practical Pregel algorithm* (BPPA) by
//! per-vertex linear space/computation/communication plus a logarithmic
//! round bound, and PPA as its average-per-vertex relaxation. §2.4
//! argues multi-processing tasks generally cannot be PPAs: running the
//! walks sequentially blows the round bound (`O(log² n)`), running them
//! concurrently blows the communication bound (`Ω(log n · d(v))`).
//!
//! [`check_ppa`] evaluates the two *observable* PPA conditions —
//! average communication per vertex per round and total rounds —
//! against a finished run's statistics, so that claim becomes testable.
//! (The every-vertex BPPA variants need per-vertex instrumentation the
//! engine deliberately does not pay for; averages suffice for the
//! paper's argument.)

use mtvc_graph::Graph;
use mtvc_metrics::RunStats;
use serde::{Deserialize, Serialize};

/// Constants of the PPA bounds: rounds ≤ `round_constant · log₂ n`,
/// average messages per vertex per round ≤ `comm_constant · d_avg`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpaCriteria {
    pub round_constant: f64,
    pub comm_constant: f64,
}

impl Default for PpaCriteria {
    fn default() -> Self {
        PpaCriteria {
            round_constant: 4.0,
            comm_constant: 4.0,
        }
    }
}

/// Verdict of a PPA check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpaReport {
    /// Rounds the run took.
    pub rounds: usize,
    /// The `c · log₂ n` budget.
    pub round_budget: f64,
    pub rounds_ok: bool,
    /// Messages sent per vertex in the busiest round (the PPA bound
    /// must hold every round, so the peak is the binding constraint).
    pub avg_msgs_per_vertex_round: f64,
    /// The `c · d_avg` budget.
    pub comm_budget: f64,
    pub comm_ok: bool,
}

impl PpaReport {
    /// Does the execution satisfy both observable PPA conditions?
    pub fn is_ppa(&self) -> bool {
        self.rounds_ok && self.comm_ok
    }
}

/// Check a finished run against the PPA bounds.
pub fn check_ppa(graph: &Graph, stats: &RunStats, criteria: PpaCriteria) -> PpaReport {
    let n = graph.num_vertices().max(2) as f64;
    let round_budget = criteria.round_constant * n.log2();
    let comm_budget = criteria.comm_constant * graph.avg_degree().max(1.0);
    let peak_round_msgs = stats
        .per_round
        .iter()
        .map(|r| r.messages_sent)
        .max()
        .unwrap_or(0);
    let avg_msgs_per_vertex_round = peak_round_msgs as f64 / n;
    PpaReport {
        rounds: stats.rounds,
        round_budget,
        rounds_ok: (stats.rounds as f64) <= round_budget,
        avg_msgs_per_vertex_round,
        comm_budget,
        comm_ok: avg_msgs_per_vertex_round <= comm_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_job, BatchSchedule, JobSpec, Task};
    use mtvc_cluster::ClusterSpec;
    use mtvc_graph::generators;
    use mtvc_systems::SystemKind;

    #[test]
    fn heavy_concurrent_bppr_violates_ppa_communication() {
        // §2.4: running log n walks per vertex concurrently sends
        // Ω(log n · d(v)) messages in the first round — beyond the
        // O(d(v)) PPA budget.
        let g = generators::power_law(256, 1024, 2.4, 81);
        let w = (g.num_vertices() as f64).log2().ceil() as u64 * 16;
        let spec = JobSpec::new(
            Task::bppr(w),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
            BatchSchedule::full_parallelism(w),
        );
        let r = run_job(&g, &spec);
        let report = check_ppa(&g, &r.stats, PpaCriteria::default());
        assert!(
            !report.comm_ok,
            "expected communication violation: {report:?}"
        );
        assert!(!report.is_ppa());
    }

    #[test]
    fn sequential_walks_violate_ppa_rounds() {
        // §2.4's other horn: one walk at a time (maximum batching)
        // keeps congestion linear but needs ~O(log² n) rounds.
        let g = generators::power_law(256, 1024, 2.4, 83);
        let w = (g.num_vertices() as f64).log2().ceil() as u64;
        let spec = JobSpec::new(
            Task::bppr(w),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(4),
            BatchSchedule::equal(w, w as usize), // one walk per batch
        );
        let r = run_job(&g, &spec);
        let report = check_ppa(&g, &r.stats, PpaCriteria::default());
        assert!(!report.rounds_ok, "expected round violation: {report:?}");
    }

    #[test]
    fn connected_components_satisfies_ppa() {
        // The §2.4 counterpoint: Connected Components admits a PPA —
        // HashMin on a small-diameter graph stays within both budgets.
        use mtvc_engine::{EngineConfig, Runner};
        use mtvc_graph::partition::HashPartitioner;
        let g = generators::power_law(512, 3000, 2.3, 91);
        let mut cfg = EngineConfig::new(
            ClusterSpec::galaxy(4),
            SystemKind::PregelPlus.profile(&ClusterSpec::galaxy(4).machine),
        );
        cfg.cutoff = mtvc_metrics::SimTime::secs(1e12);
        let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
        let result = runner.run_slab(&mtvc_tasks::ConnectedComponentsProgram);
        assert!(result.outcome.is_completed());
        let report = check_ppa(&g, &result.stats, PpaCriteria::default());
        assert!(report.is_ppa(), "CC should be a PPA: {report:?}");
    }

    #[test]
    fn report_budgets_scale_with_graph() {
        let small = generators::ring(16, true);
        let large = generators::ring(4096, true);
        let stats = RunStats::new();
        let a = check_ppa(&small, &stats, PpaCriteria::default());
        let b = check_ppa(&large, &stats, PpaCriteria::default());
        assert!(b.round_budget > a.round_budget);
        assert!(a.is_ppa() && b.is_ppa(), "empty runs trivially satisfy PPA");
    }
}
