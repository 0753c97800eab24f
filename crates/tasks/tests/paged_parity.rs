//! Paged ≡ resident parity: running any task kernel through the real
//! out-of-core paging path (partitioned adjacency moved through a
//! bounded cache) must be *bit-identical* to the fully-resident run —
//! same states, same rounds, same message traffic — because compute
//! order is unchanged; only the bytes moved differ. Checked across
//! partition sizes (budget ⇒ partition count), cache budgets and
//! combining on/off, for five slab kernels.

use mtvc_cluster::ClusterSpec;
use mtvc_engine::{EngineConfig, PagingConfig, Runner, SlabProgram, SystemProfile};
use mtvc_graph::partition::HashPartitioner;
use mtvc_graph::{generators, Graph, VertexId};
use mtvc_metrics::{Bytes, SimTime};
use mtvc_tasks::{
    BkhsLaneSlabProgram, BkhsSlabProgram, BpprSlabProgram, MsspLaneSlabProgram, MsspSlabProgram,
    SourceSet,
};
use proptest::prelude::*;

/// (budget, partition_bytes) grid: tiny budgets force eviction every
/// round, the large one keeps everything resident after the first
/// touch — the paging machinery must be exact in both regimes.
const BUDGETS: [(u64, u64); 3] = [(768, 192), (4096, 1024), (1 << 26, 1 << 24)];

fn base_config(machines: usize, seed: u64, combine: bool) -> EngineConfig {
    let mut cfg = EngineConfig::new(ClusterSpec::galaxy(machines), SystemProfile::base("parity"));
    cfg.cutoff = SimTime::secs(1.0e12);
    cfg.seed = seed;
    cfg.profile.combiner = combine;
    cfg
}

fn paged_config(
    machines: usize,
    seed: u64,
    combine: bool,
    budget: u64,
    partition_bytes: u64,
) -> EngineConfig {
    let mut cfg = base_config(machines, seed, combine);
    cfg.profile.out_of_core = Some(mtvc_engine::OocConfig {
        // Roomy message budget: message spill is pure accounting and
        // orthogonal to what this suite pins down.
        message_budget: Bytes::gib(4),
        paging: PagingConfig {
            budget: Bytes::new(budget),
            partition_bytes: Bytes::new(partition_bytes),
        },
    });
    cfg
}

fn pick_sources(n: usize, width: usize, seed: u64) -> Vec<VertexId> {
    (0..width)
        .map(|q| (mtvc_graph::hash::mix64(seed ^ q as u64) % n as u64) as VertexId)
        .collect()
}

/// Run `program` fully resident and through the pager, asserting
/// bit-identity of results and traffic.
fn assert_parity<P: SlabProgram>(
    g: &Graph,
    program: &P,
    workers: usize,
    combine: bool,
    budget_sel: usize,
) where
    P::Out: PartialEq + std::fmt::Debug,
{
    let seed = 42u64 ^ budget_sel as u64;
    let resident = Runner::new(
        g,
        &HashPartitioner::default(),
        base_config(workers, seed, combine),
    )
    .run_slab(program);
    assert!(resident.outcome.is_completed(), "{:?}", resident.outcome);

    let (budget, part_bytes) = BUDGETS[budget_sel];
    let cfg = paged_config(workers, seed, combine, budget, part_bytes);
    let runner = Runner::new(g, &HashPartitioner::default(), cfg);
    assert!(runner.paged_layout().is_some(), "paging must engage");
    let paged = runner.run_slab(program);
    assert!(paged.outcome.is_completed(), "{:?}", paged.outcome);
    assert!(
        paged.stats.total_partition_loads > 0,
        "pager must actually move partitions"
    );
    assert_eq!(resident.stats.rounds, paged.stats.rounds);
    assert_eq!(
        resident.stats.total_messages_sent,
        paged.stats.total_messages_sent
    );
    assert_eq!(
        resident.stats.total_messages_delivered,
        paged.stats.total_messages_delivered
    );
    assert_eq!(resident.states.len(), paged.states.len());
    for (v, (a, b)) in resident.states.iter().zip(&paged.states).enumerate() {
        assert_eq!(a, b, "vertex {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scalar slab MSSP, weighted graphs.
    #[test]
    fn paged_mssp_scalar(
        n in 24usize..90,
        workers in 1usize..5,
        combine in any::<bool>(),
        budget_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let base = generators::power_law(n, n * 4, 2.3, seed);
        let g = generators::with_random_weights(&base, 1, 9, seed ^ 3);
        let sources = pick_sources(n, 3, seed ^ 7);
        assert_parity(&g, &MsspSlabProgram::new(sources), workers, combine, budget_sel);
    }

    /// Lane-batched MSSP on the LANES boundary.
    #[test]
    fn paged_mssp_lane(
        n in 24usize..90,
        workers in 1usize..5,
        combine in any::<bool>(),
        budget_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let base = generators::power_law(n, n * 4, 2.3, seed);
        let g = generators::with_random_weights(&base, 1, 9, seed ^ 3);
        let sources = pick_sources(n, 8, seed ^ 11);
        assert_parity(&g, &MsspLaneSlabProgram::new(sources), workers, combine, budget_sel);
    }

    /// Scalar slab BKHS.
    #[test]
    fn paged_bkhs_scalar(
        n in 24usize..90,
        k in 1u32..4,
        workers in 1usize..5,
        combine in any::<bool>(),
        budget_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = pick_sources(n, 3, seed ^ 13);
        assert_parity(&g, &BkhsSlabProgram::new(sources, k), workers, combine, budget_sel);
    }

    /// Lane-batched BKHS.
    #[test]
    fn paged_bkhs_lane(
        n in 24usize..90,
        k in 1u32..4,
        workers in 1usize..5,
        combine in any::<bool>(),
        budget_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.4, seed);
        let sources = pick_sources(n, 8, seed ^ 17);
        assert_parity(&g, &BkhsLaneSlabProgram::new(sources, k), workers, combine, budget_sel);
    }

    /// Monte-Carlo random-walk BPPR (RNG-heavy: parity additionally
    /// pins the per-vertex RNG streams across the paged compute order).
    #[test]
    fn paged_bppr_walks(
        n in 24usize..70,
        walks in 1u64..120,
        workers in 1usize..5,
        combine in any::<bool>(),
        budget_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = generators::power_law(n, n * 4, 2.3, seed);
        let sources = SourceSet::subset(pick_sources(n, 4, seed ^ 19));
        let program = BpprSlabProgram::new(walks, 0.2, n).with_sources(sources);
        assert_parity(&g, &program, workers, combine, budget_sel);
    }
}
