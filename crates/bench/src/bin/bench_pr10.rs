//! PR 10 out-of-core snapshot: real partition paging as the measured
//! hot path. Emits `BENCH_pr10.json` in the working directory.
//!
//! Two experiments:
//!
//! 1. **Over-budget completion** (ledger check): an over-budget dataset
//!    preset (`Dataset::generate_over_budget`, adjacency ≥ 4× the
//!    `OOC_DEMO_BUDGET` paging budget) runs to completion through the
//!    pager. The headline invariant — asserted, not just reported — is
//!    that the measured peak resident bytes of the partition cache
//!    never exceed the budget, while the pager really moves bytes
//!    (loads > 0) and the run is deterministic (two runs, identical
//!    statistics).
//!
//! 2. **Frontier-density vs round-robin** (scheduling win): a one-lane
//!    hop sweep around a directed ring keeps exactly one vertex active
//!    per round — the shrinking-frontier regime partition scheduling
//!    exists for. Round-robin must stream every partition every round
//!    (GraphD semi-streaming); frontier-density must skip every
//!    empty-frontier partition, load *strictly fewer* bytes (asserted
//!    in both modes), and in full mode — where the backing store is
//!    real temp files — clear ≥ 1.2× round-robin's rounds/sec.
//!
//! `PR10_SMOKE=1` shrinks the graphs, keeps the backing store
//! in-memory, and relaxes the wall-clock assertion to parity.

use mtvc_cluster::ClusterSpec;
use mtvc_engine::{
    Context, Delivery, EngineConfig, Message, OocConfig, PagingConfig, PartitionSchedule, Runner,
    SlabProgram, SlabRow, SlabRowMut, StoreKind, SystemProfile,
};
use mtvc_graph::datasets::{Dataset, OOC_DEMO_BUDGET, OOC_OVERCOMMIT};
use mtvc_graph::generators;
use mtvc_graph::partition::HashPartitioner;
use mtvc_graph::{Graph, VertexId};
use mtvc_metrics::{Bytes, RunStats};
use std::io::Write;
use std::time::Instant;

const SEED: u64 = 0x10C0;

struct Params {
    /// Ring length for the frontier experiment (also its round count).
    ring: usize,
    /// Page-cache budget for the frontier experiment, bytes.
    ring_budget: u64,
    /// Target encoded partition size for the frontier experiment.
    ring_partition: u64,
    /// Timed repetitions per schedule.
    reps: usize,
    /// Backing store for both experiments.
    store: StoreKind,
    /// Whether the frontier-density rounds/sec win must be ≥ 1.2×.
    strict: bool,
}

impl Params {
    fn from_env() -> Params {
        if std::env::var("PR10_SMOKE").is_ok_and(|v| v == "1") {
            Params {
                ring: 512,
                ring_budget: 384,
                ring_partition: 96,
                reps: 2,
                store: StoreKind::Memory,
                strict: false,
            }
        } else {
            Params {
                ring: 4096,
                ring_budget: 1024,
                ring_partition: 256,
                reps: 3,
                store: StoreKind::TempFile,
                strict: true,
            }
        }
    }
}

/// Multi-lane hop flood over a state slab: lane `q` floods hop counts
/// from source vertex `q`. With one lane on a directed ring the active
/// frontier is a single vertex sweeping the cycle — the sparsest
/// possible frontier, held for `n` rounds.
struct HopFlood {
    lanes: usize,
}

#[derive(Clone, Debug)]
struct Hop {
    lane: u16,
    dist: u64,
}

impl Message for Hop {
    fn combine_key(&self) -> Option<u64> {
        Some(u64::from(self.lane))
    }
    fn merge(&mut self, other: &Self) {
        self.dist = self.dist.min(other.dist);
    }
}

impl SlabProgram for HopFlood {
    type Message = Hop;
    type Cell = u64;
    /// `(lane, hop distance)` of every lane that reached the vertex.
    type Out = Vec<(usize, u64)>;

    fn width(&self) -> usize {
        self.lanes
    }
    fn empty_cell(&self) -> u64 {
        u64::MAX
    }
    fn message_bytes(&self) -> u64 {
        12
    }

    fn init(&self, v: VertexId, mut row: SlabRowMut<'_, u64>, ctx: &mut Context<'_, Hop>) {
        if (v as usize) < self.lanes {
            let q = v as usize;
            row.relax_min(q, 0);
            for &t in ctx.neighbors() {
                ctx.send(
                    t,
                    Hop {
                        lane: q as u16,
                        dist: 1,
                    },
                    1,
                );
            }
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, u64>,
        inbox: &[Delivery<Hop>],
        ctx: &mut Context<'_, Hop>,
    ) {
        for d in inbox {
            row.relax_min(d.msg.lane as usize, d.msg.dist);
        }
        let mut improved = Vec::new();
        row.drain(|q, cell| improved.push((q, *cell)));
        for (q, dist) in improved {
            for &t in ctx.neighbors() {
                ctx.send(
                    t,
                    Hop {
                        lane: q as u16,
                        dist: dist + 1,
                    },
                    1,
                );
            }
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, u64>) -> Vec<(usize, u64)> {
        row.written().filter(|&(_, d)| d != u64::MAX).collect()
    }
}

fn paged_config(
    workers: usize,
    budget: u64,
    partition_bytes: u64,
    schedule: PartitionSchedule,
    store: StoreKind,
) -> EngineConfig {
    let mut cfg = EngineConfig::new(ClusterSpec::galaxy(workers), SystemProfile::base("pr10"));
    cfg.seed = SEED;
    cfg.profile.out_of_core = Some(OocConfig {
        message_budget: Bytes::mib(64),
        paging: Some(PagingConfig {
            budget: Bytes::new(budget),
            partition_bytes: Bytes::new(partition_bytes),
            schedule,
            page_state: false,
            store,
        }),
    });
    cfg
}

// ---------------------------------------------------------------------
// Experiment 1: over-budget graph completes within the budget.
// ---------------------------------------------------------------------

struct OverBudget {
    adjacency_bytes: u64,
    budget: u64,
    peak_resident: u64,
    loaded_bytes: u64,
    partition_loads: u64,
    spilled_bytes: u64,
    rounds: usize,
}

fn over_budget(p: &Params) -> OverBudget {
    let workers = 2;
    let g = Dataset::WebSt.generate_over_budget();
    assert!(
        g.adjacency_bytes() >= OOC_DEMO_BUDGET * OOC_OVERCOMMIT,
        "preset must overcommit the budget"
    );
    let program = HopFlood { lanes: 4 };
    let run = || {
        let cfg = paged_config(
            workers,
            OOC_DEMO_BUDGET,
            OOC_DEMO_BUDGET / 8,
            PartitionSchedule::RoundRobin,
            p.store,
        );
        let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
        assert!(runner.paged_layout().is_some(), "paging must engage");
        runner.run_slab(&program)
    };
    let a = run();
    let b = run();
    assert!(a.outcome.is_completed(), "over-budget run must complete");
    assert_eq!(a.stats, b.stats, "paged runs must be deterministic");
    assert_eq!(a.states, b.states, "paged results must be deterministic");
    let peak = a.stats.peak_paged_resident_bytes.get();
    assert!(
        peak <= OOC_DEMO_BUDGET,
        "cache peak {peak} B exceeded the {OOC_DEMO_BUDGET} B budget"
    );
    assert!(peak > 0, "ledger never observed a resident partition");
    assert!(
        a.stats.total_loaded_bytes.get() > g.adjacency_bytes(),
        "an over-budget run must re-stream evicted partitions \
         (loaded {} B vs adjacency {} B)",
        a.stats.total_loaded_bytes.get(),
        g.adjacency_bytes()
    );
    OverBudget {
        adjacency_bytes: g.adjacency_bytes(),
        budget: OOC_DEMO_BUDGET,
        peak_resident: peak,
        loaded_bytes: a.stats.total_loaded_bytes.get(),
        partition_loads: a.stats.total_partition_loads,
        spilled_bytes: a.stats.total_spilled_bytes.get(),
        rounds: a.stats.rounds,
    }
}

// ---------------------------------------------------------------------
// Experiment 2: frontier-density vs round-robin on a shrinking frontier.
// ---------------------------------------------------------------------

struct ScheduleCell {
    loaded_bytes: u64,
    partition_loads: u64,
    partitions_skipped: u64,
    peak_resident: u64,
    rounds: usize,
    rounds_per_sec: f64,
}

fn timed_schedule(
    g: &Graph,
    p: &Params,
    schedule: PartitionSchedule,
) -> (ScheduleCell, RunStats, Vec<Vec<(usize, u64)>>) {
    let program = HopFlood { lanes: 1 };
    let run = || {
        let cfg = paged_config(4, p.ring_budget, p.ring_partition, schedule, p.store);
        Runner::new(g, &HashPartitioner::default(), cfg).run_slab(&program)
    };
    // Warm-up + determinism pin, untimed.
    let first = run();
    assert!(first.outcome.is_completed(), "{schedule:?} must complete");
    let mut best = 0.0f64;
    for _ in 0..p.reps {
        let t = Instant::now();
        let r = run();
        let dt = t.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(r.stats, first.stats, "{schedule:?} must be deterministic");
        best = best.max(r.stats.rounds as f64 / dt);
    }
    let cell = ScheduleCell {
        loaded_bytes: first.stats.total_loaded_bytes.get(),
        partition_loads: first.stats.total_partition_loads,
        partitions_skipped: first.stats.total_partitions_skipped,
        peak_resident: first.stats.peak_paged_resident_bytes.get(),
        rounds: first.stats.rounds,
        rounds_per_sec: best,
    };
    let states = first.states.clone();
    (cell, first.stats, states)
}

fn frontier_scheduling(p: &Params) -> (ScheduleCell, ScheduleCell) {
    let g = generators::ring(p.ring, false);
    let (rr, rr_stats, rr_states) = timed_schedule(&g, p, PartitionSchedule::RoundRobin);
    let (fd, fd_stats, fd_states) = timed_schedule(&g, p, PartitionSchedule::FrontierDensity);

    // Identical compute: same rounds, same traffic, same results.
    assert_eq!(rr_stats.rounds, fd_stats.rounds);
    assert_eq!(rr_stats.total_messages_sent, fd_stats.total_messages_sent);
    assert_eq!(rr_states, fd_states, "schedules must not change results");

    assert_eq!(rr.partitions_skipped, 0, "round-robin never skips");
    assert!(
        fd.partitions_skipped > 0,
        "frontier-density must skip empty-frontier partitions"
    );
    assert!(
        fd.loaded_bytes < rr.loaded_bytes,
        "frontier-density must move strictly fewer bytes \
         ({} vs {})",
        fd.loaded_bytes,
        rr.loaded_bytes
    );
    for (name, cell) in [("round-robin", &rr), ("frontier-density", &fd)] {
        assert!(
            cell.peak_resident <= p.ring_budget,
            "{name} cache peak {} B exceeded the {} B budget",
            cell.peak_resident,
            p.ring_budget
        );
    }
    if p.strict {
        assert!(
            fd.rounds_per_sec >= 1.2 * rr.rounds_per_sec,
            "frontier-density must clear 1.2x round-robin on the \
             shrinking-frontier phase ({:.0} vs {:.0} rounds/s)",
            fd.rounds_per_sec,
            rr.rounds_per_sec
        );
    }
    (rr, fd)
}

fn json_schedule(name: &str, c: &ScheduleCell) -> String {
    format!(
        "    \"{name}\": {{\"loaded_bytes\": {}, \"partition_loads\": {}, \
         \"partitions_skipped\": {}, \"peak_resident_bytes\": {}, \
         \"rounds\": {}, \"rounds_per_sec\": {:.1}}}",
        c.loaded_bytes,
        c.partition_loads,
        c.partitions_skipped,
        c.peak_resident,
        c.rounds,
        c.rounds_per_sec,
    )
}

fn main() {
    let p = Params::from_env();

    let ob = over_budget(&p);
    println!(
        "over-budget: adjacency {} B through a {} B cache — peak resident {} B, \
         {} loads / {} B streamed, {} B spilled, {} rounds",
        ob.adjacency_bytes,
        ob.budget,
        ob.peak_resident,
        ob.partition_loads,
        ob.loaded_bytes,
        ob.spilled_bytes,
        ob.rounds,
    );

    let (rr, fd) = frontier_scheduling(&p);
    println!(
        "ring {}: round-robin {} B loaded ({} loads), frontier-density {} B \
         ({} loads, {} skips) — {:.2}x bytes saved, {:.2}x rounds/s",
        p.ring,
        rr.loaded_bytes,
        rr.partition_loads,
        fd.loaded_bytes,
        fd.partition_loads,
        fd.partitions_skipped,
        rr.loaded_bytes as f64 / fd.loaded_bytes.max(1) as f64,
        fd.rounds_per_sec / rr.rounds_per_sec.max(1e-9),
    );

    let json = format!(
        "{{\n  \"bench\": \"pr10_out_of_core\",\n  \"seed\": {SEED},\n  \
         \"store\": \"{}\",\n  \
         \"over_budget\": {{\"adjacency_bytes\": {}, \"budget_bytes\": {}, \
         \"peak_resident_bytes\": {}, \"loaded_bytes\": {}, \
         \"partition_loads\": {}, \"spilled_bytes\": {}, \"rounds\": {}}},\n  \
         \"frontier\": {{\"ring\": {}, \"budget_bytes\": {}, \
         \"partition_bytes\": {},\n{},\n{}\n  }}\n}}\n",
        match p.store {
            StoreKind::Memory => "memory",
            StoreKind::TempFile => "tempfile",
        },
        ob.adjacency_bytes,
        ob.budget,
        ob.peak_resident,
        ob.loaded_bytes,
        ob.partition_loads,
        ob.spilled_bytes,
        ob.rounds,
        p.ring,
        p.ring_budget,
        p.ring_partition,
        json_schedule("round_robin", &rr),
        json_schedule("frontier_density", &fd),
    );
    let mut f = std::fs::File::create("BENCH_pr10.json").expect("create BENCH_pr10.json");
    f.write_all(json.as_bytes()).expect("write BENCH_pr10.json");
    println!("-> BENCH_pr10.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extraction contract: a row no mutator touched is never shown to
    /// `extract`; its output is the default.
    #[test]
    fn unwritten_row_extracts_to_default() {
        let flood = HopFlood { lanes: 3 };
        let cells = [flood.empty_cell(); 3];
        assert!(flood.extract(0, SlabRow::unwritten(&cells)).is_empty());
    }
}
