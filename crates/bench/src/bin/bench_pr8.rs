//! PR 8 perf snapshot: fold-at-send pre-sharded outboxes + lane-batched
//! BKHS kernels. Emits `BENCH_pr8.json` in the working directory.
//!
//! Two cell families, same graph/partition setup as `bench_pr5`/`pr7`:
//!
//! * `bkhs_{scalar,lane}_w{W}` — [`BkhsSlabProgram`] vs
//!   [`BkhsLaneSlabProgram`] (one envelope absorbs eight query lanes'
//!   hop sets), W ∈ {8, 64}, combiner on. Same policy both sides, so
//!   the timing delta isolates lane batching; rounds and `sent_wire`
//!   are pinned equal.
//! * `mssp_{flat,presharded}_combine_w16` — the recycled-slab MSSP
//!   combining workload on the flat two-stage routing path
//!   ([`drive_core_policy`]) vs the fold-at-send pre-sharded path
//!   ([`drive_core_presharded`]). Everything except
//!   `shard_copy_bytes` is pinned equal; the headline
//!   `presharded_copy_reduction` key is the fraction of shard-stage
//!   envelope copies the pre-sharded path never performs, and its
//!   steady-state allocation must stay at the 0 B/round the slab +
//!   recycled-buffer stack established.
//!
//! Timing/allocation mechanics are the shared [`mtvc_bench::measure`]
//! harness (interleaved best-of-reps, counting global allocator).
//!
//! `PR8_SMOKE=1` shrinks the graph and rep count for CI: all asserts
//! still run end to end, the timings are not meaningful.

use mtvc_bench::measure::{measure_all_rounds, measure_interleaved, CountingAlloc, Measurement};
use mtvc_bench::round_loop::{drive_core_policy, drive_core_presharded, PolicyReport};
use mtvc_engine::{LocalIndex, PerSlab, RoutePolicy, SlabProgram, SlabRecycler};
use mtvc_graph::partition::Partition;
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, Graph, VertexId};
use mtvc_tasks::{BkhsLaneSlabProgram, BkhsSlabProgram, MsspSlabProgram};
use std::io::Write;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WORKERS: usize = 4;
const SEED: u64 = 0x9E3;
/// Hop bound for the BKHS cells.
const BKHS_K: u32 = 8;
/// Batch widths swept on BKHS (queries per batch).
const BKHS_WIDTHS: [usize; 2] = [8, 64];

struct Params {
    vertices: usize,
    edges: usize,
    /// Timed repetitions per cell (single-threaded full runs).
    reps: usize,
}

impl Params {
    fn from_env() -> Params {
        if std::env::var("PR8_SMOKE").is_ok_and(|v| v == "1") {
            Params {
                vertices: 4_000,
                edges: 16_000,
                reps: 1,
            }
        } else {
            Params {
                vertices: 20_000,
                edges: 80_000,
                reps: 5,
            }
        }
    }
}

struct CellResult {
    report: PolicyReport,
    rounds_per_sec: f64,
}

fn measure_all(reps: usize, drivers: &[&dyn Fn() -> PolicyReport]) -> Vec<CellResult> {
    measure_interleaved(reps, drivers)
        .into_iter()
        .map(|(report, best)| CellResult {
            report,
            rounds_per_sec: report.report.rounds as f64 / best,
        })
        .collect()
}

fn run_slab<P: SlabProgram>(
    program: &P,
    g: &Graph,
    part: &Partition,
    locals: &LocalIndex,
    combine: bool,
    policy: &RoutePolicy,
) -> PolicyReport {
    drive_core_policy(
        &PerSlab::new(program),
        g,
        part,
        locals,
        combine,
        policy,
        SEED,
        |_| {},
    )
}

fn json_cell(name: &str, r: &PolicyReport, rounds_per_sec: f64) -> String {
    format!(
        "    \"{name}\": {{\"rounds\": {}, \"sent_wire\": {}, \"delivered_tuples\": {}, \
         \"rounds_per_sec\": {rounds_per_sec:.2}, \"shard_copy_bytes\": {}}}",
        r.report.rounds, r.report.sent_wire, r.report.delivered_tuples, r.shard_copy_bytes,
    )
}

/// Pin a lane cell to its scalar sibling: lane batching conserves
/// rounds and pre-fold wire units exactly.
fn assert_lane_parity(name: &str, scalar: &CellResult, lane: &CellResult) {
    assert_eq!(
        lane.report.report.rounds, scalar.report.report.rounds,
        "{name} round parity"
    );
    assert_eq!(
        lane.report.report.sent_wire, scalar.report.report.sent_wire,
        "{name} wire parity"
    );
}

fn main() {
    let params = Params::from_env();
    let g = generators::power_law(params.vertices, params.edges, 2.3, 42);
    let part = HashPartitioner::default().partition(&g, WORKERS);
    let locals = LocalIndex::build(&part);
    let policy = RoutePolicy::default();

    let mut cells: Vec<String> = Vec::new();
    let mut summary: Vec<String> = Vec::new();

    // BKHS: scalar vs lane hop-set absorption.
    for width in BKHS_WIDTHS {
        let sources: Vec<VertexId> = (0..width as u32)
            .map(|q| (q * 997) % params.vertices as VertexId)
            .collect();
        let scalar_prog = BkhsSlabProgram::new(sources.clone(), BKHS_K);
        let lane_prog = BkhsLaneSlabProgram::new(sources, BKHS_K);
        let scalar_d = || run_slab(&scalar_prog, &g, &part, &locals, true, &policy);
        let lane_d = || run_slab(&lane_prog, &g, &part, &locals, true, &policy);
        let mut results = measure_all(params.reps, &[&scalar_d, &lane_d]);
        let lane = results.pop().expect("lane");
        let scalar = results.pop().expect("scalar");
        assert_lane_parity(&format!("bkhs w{width}"), &scalar, &lane);
        let speedup = lane.rounds_per_sec / scalar.rounds_per_sec;
        println!(
            "bkhs_w{width}: lane {:.1} rounds/s vs scalar {:.1} rounds/s ({speedup:.2}x)",
            lane.rounds_per_sec, scalar.rounds_per_sec
        );
        cells.push(json_cell(
            &format!("bkhs_scalar_w{width}"),
            &scalar.report,
            scalar.rounds_per_sec,
        ));
        cells.push(json_cell(
            &format!("bkhs_lane_w{width}"),
            &lane.report,
            lane.rounds_per_sec,
        ));
        summary.push(format!("  \"lane_bkhs_speedup_w{width}\": {speedup:.3}"));
    }

    // MSSP combining: flat two-stage routing vs fold-at-send
    // pre-sharded routing, recycled slabs (the production steady
    // state — these two cells also carry the allocation profile).
    {
        let sources: Vec<VertexId> = (0..16u32)
            .map(|q| (q * 997) % params.vertices as VertexId)
            .collect();
        let prog = MsspSlabProgram::new(sources);
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        let flat_core = PerSlab::with_recycler(&prog, &recycler);
        let flat_d = |hook: &mut dyn FnMut(usize)| {
            drive_core_policy(&flat_core, &g, &part, &locals, true, &policy, SEED, hook)
        };
        let pre_d = |hook: &mut dyn FnMut(usize)| {
            drive_core_presharded(&flat_core, &g, &part, &locals, true, &policy, SEED, hook)
        };
        let mut results = measure_all_rounds(params.reps, &[&flat_d, &pre_d]);
        let pre: Measurement<PolicyReport> = results.pop().expect("presharded");
        let flat: Measurement<PolicyReport> = results.pop().expect("flat");

        // Fold-at-send changes where combining happens, not what is
        // sent: everything but the copy counter is pinned equal.
        assert_eq!(flat.report.report, pre.report.report, "presharded parity");
        assert_eq!(
            flat.report.encoded_wire_bytes,
            pre.report.encoded_wire_bytes
        );
        assert_eq!(
            flat.report.estimated_wire_bytes,
            pre.report.estimated_wire_bytes
        );
        assert!(
            pre.report.shard_copy_bytes < flat.report.shard_copy_bytes,
            "presharded must shrink shard-stage copies: {} vs {}",
            pre.report.shard_copy_bytes,
            flat.report.shard_copy_bytes
        );
        assert_eq!(
            pre.steady_bytes_per_round, 0,
            "presharded path must preserve 0 B steady-state rounds"
        );

        let copy_reduction =
            1.0 - pre.report.shard_copy_bytes as f64 / flat.report.shard_copy_bytes as f64;
        let flat_rps = flat.report.report.rounds as f64 / flat.best_secs;
        let pre_rps = pre.report.report.rounds as f64 / pre.best_secs;
        println!(
            "mssp_combine_w16: presharded {pre_rps:.1} rounds/s vs flat {flat_rps:.1} rounds/s \
             ({:.2}x), shard copies {}B vs {}B (-{:.0}%), steady alloc/round {} vs {} bytes",
            pre_rps / flat_rps,
            pre.report.shard_copy_bytes,
            flat.report.shard_copy_bytes,
            copy_reduction * 100.0,
            pre.steady_bytes_per_round,
            flat.steady_bytes_per_round,
        );
        cells.push(json_cell("mssp_flat_combine_w16", &flat.report, flat_rps));
        cells.push(json_cell(
            "mssp_presharded_combine_w16",
            &pre.report,
            pre_rps,
        ));
        summary.push(format!(
            "  \"presharded_copy_reduction\": {copy_reduction:.3}"
        ));
        summary.push(format!(
            "  \"presharded_speedup\": {:.3}",
            pre_rps / flat_rps
        ));
        summary.push(format!(
            "  \"presharded_steady_bytes_per_round\": {}",
            pre.steady_bytes_per_round
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr8_presharded_lanes\",\n  \"graph\": {{\"vertices\": {}, \
         \"edges\": {}, \"workers\": {WORKERS}}},\n  \"reps\": {},\n{},\n  \
         \"cells\": {{\n{}\n  }}\n}}\n",
        params.vertices,
        params.edges,
        params.reps,
        summary.join(",\n"),
        cells.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_pr8.json").expect("create BENCH_pr8.json");
    f.write_all(json.as_bytes()).expect("write BENCH_pr8.json");
    println!("-> BENCH_pr8.json");
}
