//! PR 9 robustness snapshot: degraded-mode serving under sustained
//! chaos. Emits `BENCH_chaos.json` in the working directory.
//!
//! Two experiments:
//!
//! 1. **Checkpoint bytes** (engine level): a sparse-wavefront slab
//!    workload on a grid, run with full snapshots vs incremental
//!    deltas at the same cadence under the same fault plan. The
//!    headline invariant — asserted, not just reported — is that
//!    incremental checkpoints store *strictly fewer* bytes than full
//!    snapshots while recovering bit-identically (the engine's own
//!    tests pin bit-identity; here the byte ledger is the product).
//!
//! 2. **Brownout ladder under load** (serve level): the PR 6 loadgen
//!    scenario replayed against a chaos-injected service, swept across
//!    fault rates, with the brownout ladder off vs on. Per cell:
//!    Interactive deadline attainment, recovery-latency p50/p99
//!    (simulated ms per faulted batch), corruption/retransmission
//!    counters, and the ladder's own transition statistics. At the top
//!    fault rate the ladder must meet at least as many Interactive
//!    deadlines as the no-ladder baseline — in full mode *strictly
//!    more* (wall-clock dependent, so `PR9_SMOKE=1` only requires
//!    parity).

use mtvc_cluster::{ChaosMix, ClusterSpec, FaultPlan};
use mtvc_core::Task;
use mtvc_engine::{
    Context, Delivery, EngineConfig, Message, Runner, SlabProgram, SlabRow, SlabRowMut,
    SystemProfile,
};
use mtvc_graph::generators;
use mtvc_graph::partition::HashPartitioner;
use mtvc_graph::VertexId;
use mtvc_loadgen::{drive, generate, ClassMix, DriveCfg, DriveReport, Scenario};
use mtvc_serve::{
    BrownoutCfg, SchedulerPolicy, ServiceConfig, ServiceReport, SloClass, TaskService,
};
use mtvc_systems::SystemKind;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xC4A5;

struct Params {
    /// Grid side for the checkpoint-bytes experiment.
    grid: usize,
    /// Trace length at time scale 1.0.
    duration: Duration,
    /// Baseline arrival rate (requests/s) at time scale 1.0.
    base_rate: f64,
    /// Tenant population.
    tenants: u32,
    /// Replay time scale (smaller = higher offered rate).
    scale: f64,
    /// Serving-graph size (vertices, edges): sets wall-clock batch cost.
    serve_graph: (usize, usize),
    /// Interactive deadline in milliseconds.
    deadline_ms: u64,
    /// Chaos-mix multipliers swept (0 = fault-free control).
    fault_rates: Vec<usize>,
    /// Whether the ladder's Interactive-deadline win must be strict.
    strict: bool,
}

impl Params {
    fn from_env() -> Params {
        if std::env::var("PR9_SMOKE").is_ok_and(|v| v == "1") {
            Params {
                grid: 12,
                duration: Duration::from_millis(400),
                base_rate: 150.0,
                tenants: 60,
                scale: 0.5,
                serve_graph: (300, 1400),
                deadline_ms: 50,
                fault_rates: vec![0, 2],
                strict: false,
            }
        } else {
            Params {
                grid: 24,
                duration: Duration::from_secs(2),
                base_rate: 400.0,
                tenants: 300,
                scale: 0.05,
                serve_graph: (1500, 8000),
                deadline_ms: 25,
                fault_rates: vec![0, 1, 3],
                strict: true,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Experiment 1: incremental vs full checkpoint bytes.
// ---------------------------------------------------------------------

/// Multi-lane hop flood over a state slab: lane `q` floods hop counts
/// from source vertex `q`. On a grid the active frontier is a thin
/// wavefront — exactly the sparse-touch regime incremental
/// checkpoints exist for.
struct WavefrontFlood {
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

impl SlabProgram for WavefrontFlood {
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

struct CheckpointBytes {
    full_total: u64,
    incr_total: u64,
    per_full: u64,
    per_delta: u64,
    checkpoints: u64,
    delta_checkpoints: u64,
    replayed_rounds_full: u64,
    replayed_rounds_incr: u64,
}

fn checkpoint_bytes(p: &Params) -> CheckpointBytes {
    let g = generators::grid(p.grid, p.grid);
    let program = WavefrontFlood { lanes: 4 };
    let plan = FaultPlan::none()
        .with_crash(5, 1)
        .with_delivery_failure(9, 0);
    let config = || {
        EngineConfig::new(ClusterSpec::galaxy(4), SystemProfile::base("pr9"))
            .with_checkpoint_every(2)
            .with_faults(plan.clone())
    };
    let full = Runner::new(&g, &HashPartitioner::default(), config()).run_slab(&program);
    let incr = Runner::new(
        &g,
        &HashPartitioner::default(),
        config().with_incremental_checkpoints(4),
    )
    .run_slab(&program);
    assert_eq!(full.outcome, incr.outcome, "storage mode changed the run");
    assert_eq!(full.states, incr.states, "rollback must be bit-identical");
    let ff = &full.stats.faults;
    let fi = &incr.stats.faults;
    let full_total = ff.checkpoint_full_bytes.get() + ff.checkpoint_delta_bytes.get();
    let incr_total = fi.checkpoint_full_bytes.get() + fi.checkpoint_delta_bytes.get();
    assert!(
        incr_total < full_total,
        "incremental checkpoints must store strictly fewer bytes \
         ({incr_total} vs {full_total})"
    );
    assert!(fi.delta_checkpoints > 0, "no deltas were stored");
    CheckpointBytes {
        full_total,
        incr_total,
        per_full: ff.checkpoint_full_bytes.get() / ff.checkpoints.max(1),
        per_delta: fi.checkpoint_delta_bytes.get() / fi.delta_checkpoints.max(1),
        checkpoints: ff.checkpoints,
        delta_checkpoints: fi.delta_checkpoints,
        replayed_rounds_full: ff.replayed_rounds,
        replayed_rounds_incr: fi.replayed_rounds,
    }
}

// ---------------------------------------------------------------------
// Experiment 2: the brownout ladder under chaos + load.
// ---------------------------------------------------------------------

fn scenario(p: &Params) -> Scenario {
    Scenario::new("pr9-chaos", p.tenants, p.base_rate, p.duration)
        .with_zipf_exponent(1.1)
        .with_diurnal(p.duration / 2, 0.5)
        .with_bursts(Duration::from_millis(300), Duration::from_millis(120), 2.5)
        .with_shape(Task::mssp(1), 2.0, 1..=4)
        .with_shape(Task::bppr(1), 1.5, 2..=8)
        .with_classes(ClassMix {
            weights: [0.15, 0.45, 0.4],
            deadlines: [
                Some(Duration::from_millis(p.deadline_ms)),
                Some(Duration::from_secs(1)),
                None,
            ],
        })
}

/// The chaos schedule injected into every batch at `rate`: the base
/// mix scaled `rate`-fold. Rate 0 is the fault-free control.
fn chaos_plan(rate: usize) -> Option<FaultPlan> {
    if rate == 0 {
        return None;
    }
    let mix = ChaosMix {
        crashes: rate,
        losses: rate,
        stragglers: rate,
        partitions: rate.div_ceil(2),
        corruptions: rate,
    };
    Some(FaultPlan::chaos(SEED ^ 0x9C40, 4, 8, mix))
}

fn service(p: &Params, rate: usize, ladder: bool) -> TaskService {
    let (v, e) = p.serve_graph;
    let graph = Arc::new(generators::power_law(v, e, 2.4, 11));
    let mut cfg = ServiceConfig::new(SystemKind::PregelPlus, ClusterSpec::galaxy(4))
        .with_workers(1)
        .with_quantum(16)
        .with_queue_capacity(4096)
        .with_seed(SEED)
        .with_checkpoint_every(3)
        .with_scheduler(SchedulerPolicy::SloAware)
        .with_shape(Task::mssp(1))
        .with_shape(Task::bppr(1));
    cfg.training_workload = 64;
    if let Some(plan) = chaos_plan(rate) {
        cfg = cfg.with_chaos(plan);
    }
    if ladder {
        // The former ticks far more often than batches complete, so the
        // idle decay must be gentle and the breaker cooldown long, or
        // the ladder flickers instead of riding out the chaos window.
        cfg = cfg.with_brownout(BrownoutCfg {
            min_dwell: 4,
            breaker_threshold: 2,
            breaker_cooldown: 32,
            enter_score: 0.3,
            exit_score: 0.1,
            idle_decay: 0.98,
            ..BrownoutCfg::default()
        });
    }
    TaskService::start(graph, cfg).expect("service starts")
}

struct Cell {
    rate: usize,
    ladder: bool,
    drive: DriveReport,
    report: ServiceReport,
}

impl Cell {
    /// Interactive deadlines met / missed, counting shed submissions
    /// as misses the scheduler must answer for.
    fn interactive(&self) -> (u64, u64) {
        let i = self.report.class(SloClass::Interactive);
        (i.deadline_met, i.deadline + self.drive.shed_by_class[0])
    }
}

fn json_cell(c: &Cell) -> String {
    let r = &c.report;
    let (met, missed) = c.interactive();
    let (rp50, rp99, _) = r.recovery_latency.p50_p99_p999();
    let b = &r.brownout;
    format!(
        "    \"rate_{}_{}\": {{\"offered\": {}, \"submitted\": {}, \"shed\": {}, \
         \"served\": {}, \"failed\": {}, \"batches\": {}, \
         \"interactive_met\": {met}, \"interactive_missed\": {missed}, \
         \"faults_injected\": {}, \"replayed_rounds\": {}, \
         \"recovery_ms_p50\": {rp50}, \"recovery_ms_p99\": {rp99}, \
         \"corrupted_buckets\": {}, \"retransmitted_buckets\": {}, \
         \"retransmitted_bytes\": {}, \
         \"brownout\": {{\"enabled\": {}, \"transitions\": {}, \
         \"shed_iterations\": {}, \"breaker_opens\": {}, \"deepest_level\": {}}}}}",
        c.rate,
        if c.ladder { "ladder" } else { "baseline" },
        c.drive.offered(),
        c.drive.submitted,
        c.drive.shed,
        r.served,
        r.failed,
        r.batches,
        r.faults_injected,
        r.replayed_rounds,
        r.corrupted_buckets,
        r.retransmitted_buckets,
        r.retransmitted_bytes.get(),
        b.enabled,
        b.transitions,
        b.shed_iterations,
        b.breaker_opens,
        b.deepest_level,
    )
}

fn main() {
    let params = Params::from_env();

    let ckpt = checkpoint_bytes(&params);
    println!(
        "checkpoints: full {} B total ({} snapshots, {} B each) vs incremental {} B total \
         ({} deltas, {} B each); replayed {} / {} rounds",
        ckpt.full_total,
        ckpt.checkpoints,
        ckpt.per_full,
        ckpt.incr_total,
        ckpt.delta_checkpoints,
        ckpt.per_delta,
        ckpt.replayed_rounds_full,
        ckpt.replayed_rounds_incr,
    );

    let scen = scenario(&params);
    let trace = generate(&scen, SEED);
    assert_eq!(
        trace.fingerprint(),
        generate(&scen, SEED).fingerprint(),
        "trace generation must be deterministic"
    );
    println!(
        "trace: {} events over {:.2}s, fingerprint {:#018x}",
        trace.len(),
        trace.span().as_secs_f64(),
        trace.fingerprint()
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &rate in &params.fault_rates {
        for ladder in [false, true] {
            let svc = service(&params, rate, ladder);
            let rep = drive(
                &svc,
                &trace,
                DriveCfg::default().with_time_scale(params.scale),
            );
            // Drain the backlog while the service is live: shutdown
            // closes the queue, which lifts the brownout mask (so the
            // drain can never hang), and a closed-queue drain would
            // bypass the ladder for every still-queued request.
            let drain_start = std::time::Instant::now();
            while svc.queue_len() > 0 && drain_start.elapsed() < Duration::from_secs(120) {
                std::thread::sleep(Duration::from_millis(5));
            }
            let report = svc.shutdown();
            assert_eq!(rep.offered(), trace.len() as u64);
            assert_eq!(
                report.requests(),
                rep.submitted,
                "accepted requests all reach a terminal outcome"
            );
            if rate == 0 {
                assert_eq!(report.faults_injected, 0, "control cell must be fault-free");
            } else {
                assert!(report.faults_injected > 0, "chaos plan never fired");
            }
            let c = Cell {
                rate,
                ladder,
                drive: rep,
                report,
            };
            let (met, missed) = c.interactive();
            println!(
                "rate {rate} {:>8}: served {:>5}, interactive met {:>4} missed {:>4}, \
                 faults {:>4}, recovery p99 {} ms, brownout t{} s{} o{}",
                if ladder { "ladder" } else { "baseline" },
                c.report.served,
                met,
                missed,
                c.report.faults_injected,
                c.report.recovery_latency.quantile(0.99),
                c.report.brownout.transitions,
                c.report.brownout.shed_iterations,
                c.report.brownout.breaker_opens,
            );
            cells.push(c);
        }
    }

    // Headline: at the top fault rate the ladder protects Interactive
    // deadlines.
    let top = *params.fault_rates.last().unwrap();
    let met_of = |ladder: bool| {
        cells
            .iter()
            .find(|c| c.rate == top && c.ladder == ladder)
            .map(|c| c.interactive())
            .unwrap()
    };
    let (base_met, base_missed) = met_of(false);
    let (ladder_met, ladder_missed) = met_of(true);
    println!(
        "headline @ rate {top}: interactive met {ladder_met} (missed {ladder_missed}) \
         with ladder vs {base_met} (missed {base_missed}) baseline"
    );
    if params.strict {
        assert!(
            ladder_met > base_met,
            "the brownout ladder must meet strictly more Interactive deadlines \
             at the top fault rate ({ladder_met} vs {base_met})"
        );
    } else {
        assert!(
            ladder_met >= base_met,
            "the brownout ladder fell behind baseline on Interactive deadlines \
             ({ladder_met} vs {base_met})"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"pr9_chaos_serving\",\n  \"seed\": {SEED},\n  \
         \"checkpoints\": {{\"full_bytes_total\": {}, \"incremental_bytes_total\": {}, \
         \"bytes_per_full_snapshot\": {}, \"bytes_per_delta\": {}, \
         \"full_snapshots\": {}, \"delta_checkpoints\": {}}},\n  \
         \"trace\": {{\"events\": {}, \"fingerprint\": \"{:#018x}\", \
         \"tenants\": {}, \"base_rate_rps\": {:.1}, \"duration_s\": {:.2}, \
         \"time_scale\": {:.2}}},\n  \"fault_rates\": {:?},\n  \
         \"headline\": {{\"interactive_met_ladder\": {ladder_met}, \
         \"interactive_met_baseline\": {base_met}, \
         \"interactive_missed_ladder\": {ladder_missed}, \
         \"interactive_missed_baseline\": {base_missed}}},\n  \"cells\": {{\n{}\n  }}\n}}\n",
        ckpt.full_total,
        ckpt.incr_total,
        ckpt.per_full,
        ckpt.per_delta,
        ckpt.checkpoints,
        ckpt.delta_checkpoints,
        trace.len(),
        trace.fingerprint(),
        params.tenants,
        params.base_rate,
        params.duration.as_secs_f64(),
        params.scale,
        params.fault_rates,
        cells.iter().map(json_cell).collect::<Vec<_>>().join(",\n"),
    );
    let mut f = std::fs::File::create("BENCH_chaos.json").expect("create BENCH_chaos.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_chaos.json");
    println!("-> BENCH_chaos.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extraction contract: a row no mutator touched is never shown to
    /// `extract`; its output is the default.
    #[test]
    fn unwritten_row_extracts_to_default() {
        let flood = WavefrontFlood { lanes: 3 };
        let cells = [flood.empty_cell(); 3];
        assert!(flood.extract(0, SlabRow::unwritten(&cells)).is_empty());
    }
}
