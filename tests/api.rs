//! Public-API surface tests through the `mtvc` façade: everything a
//! downstream user would reach for must be importable and usable
//! together.

use mtvc::cluster::{ClusterSpec, CostModel, MachineSpec, MonetaryCost, RoundDemand};
use mtvc::engine::{EngineConfig, Runner, SystemProfile};
use mtvc::graph::partition::{HashPartitioner, Partitioner};
use mtvc::graph::{generators, Dataset, DegreeStats, GraphBuilder};
use mtvc::metrics::{Bytes, RunOutcome, Series, SimTime, Table};
use mtvc::multitask::{check_ppa, run_job, BatchSchedule, JobSpec, PpaCriteria, Task};
use mtvc::systems::SystemKind;
use mtvc::tasks::bkhs::BkhsCounts;
use mtvc::tasks::bppr::BpprEstimates;
use mtvc::tasks::mssp::MsspDistances;
use mtvc::tasks::{
    BkhsSlabProgram, BpprSlabProgram, ConnectedComponentsProgram, MsspSlabProgram, PageRankProgram,
    SourceSet,
};
use mtvc::tune::{gauge_max_workload, tune, TrialVerdict, TunerConfig};

fn tiny_engine(machines: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(ClusterSpec::galaxy(machines), SystemProfile::base("api"));
    cfg.cutoff = SimTime::secs(1e12);
    cfg
}

#[test]
fn task_result_extractors_compose() {
    let g = generators::power_law(120, 500, 2.4, 101);
    assert_eq!(HashPartitioner::default().name(), "hash");
    let runner = Runner::new(&g, &HashPartitioner::default(), tiny_engine(3));

    // BPPR estimates.
    let bppr = runner.run_slab(
        &BpprSlabProgram::new(200, 0.2, g.num_vertices()).with_sources(SourceSet::subset(vec![0])),
    );
    assert!(bppr.outcome.is_completed());
    let mut est = BpprEstimates::new(g.num_vertices());
    est.absorb(bppr.states, 200);
    assert_eq!(est.total_stopped(), 200);
    assert!(est.ppr(0, 0) > 0.0, "source should retain some stop mass");

    // MSSP distances.
    let mssp = runner.run_slab(&MsspSlabProgram::new(vec![5, 9]));
    let dist = MsspDistances::new(mssp.states);
    assert_eq!(dist.dist(0, 5), Some(0));
    assert_eq!(dist.dist(1, 9), Some(0));
    assert!(dist.total_entries() > 2);

    // BKHS counts.
    let bkhs = runner.run_slab(&BkhsSlabProgram::new(vec![5], 2));
    let counts = BkhsCounts::from_states(&bkhs.states);
    assert!(counts.count(0) > g.degree(5) as u64);

    // Connected components + PageRank run through the same runner.
    assert!(runner
        .run_slab(&ConnectedComponentsProgram)
        .outcome
        .is_completed());
    assert!(runner
        .run_slab(&PageRankProgram::default())
        .outcome
        .is_completed());
}

#[test]
fn cost_model_is_directly_usable() {
    let model = CostModel::default();
    let spec = MachineSpec::docker();
    let mut demand = RoundDemand::zeros(4, true);
    demand.compute_ops = vec![1e6; 4];
    demand.net_out = vec![Bytes::mib(1); 4];
    demand.net_in = vec![Bytes::mib(1); 4];
    demand.memory = vec![Bytes::gib(1); 4];
    let charge = model.charge(&spec, &demand).expect("healthy demand");
    assert!(charge.duration > SimTime::ZERO);
    assert_eq!(charge.thrash_factor, 1.0);
}

#[test]
fn monetary_cost_composes_with_outcomes() {
    let cluster = ClusterSpec::docker32();
    let ok = MonetaryCost::of_run(RunOutcome::Completed(SimTime::secs(100.0)), &cluster);
    let bad = MonetaryCost::of_run(RunOutcome::Overload, &cluster);
    let total = ok + bad;
    assert!(total.lower_bound);
    assert!(total.credits > bad.credits);
}

#[test]
fn dataset_presets_compose_with_jobs() {
    let g = Dataset::WebSt.generate(2048);
    let stats = DegreeStats::of(&g);
    assert!(stats.skew > 1.0, "web graph should be skewed");
    let cluster = ClusterSpec::galaxy(2).scaled(2048.0);
    let task = Task::mssp(8);
    let r = run_job(
        &g,
        &JobSpec::new(
            task,
            SystemKind::GraphLab,
            cluster,
            BatchSchedule::equal(8, 2),
        ),
    );
    assert!(r.outcome.is_completed());
}

#[test]
fn gauge_and_tuner_share_vocabulary() {
    let g = Dataset::Dblp.generate(2048);
    let cluster = ClusterSpec::galaxy(2).scaled(2048.0);
    let gauge = gauge_max_workload(
        &g,
        Task::bppr(1),
        SystemKind::PregelPlus,
        &cluster,
        1 << 15,
        9,
    );
    assert!(gauge.max_healthy_workload >= 1);
    assert!(gauge
        .trials
        .iter()
        .any(|(_, v)| *v != TrialVerdict::Healthy || gauge.max_healthy_workload == 1 << 15));
    // The tuner should schedule at least the gauged healthy workload
    // into its first batch (both derive from the same memory ceiling).
    if let Ok(tuned) = tune(
        &g,
        Task::bppr(gauge.max_healthy_workload.max(4)),
        SystemKind::PregelPlus,
        &cluster,
        &TunerConfig::default(),
    ) {
        assert_eq!(tuned.schedule.total(), gauge.max_healthy_workload.max(4));
    }
}

#[test]
fn ppa_checker_reachable_through_facade() {
    let g = generators::ring(64, true);
    let r = run_job(
        &g,
        &JobSpec::new(
            Task::bppr(4),
            SystemKind::PregelPlus,
            ClusterSpec::galaxy(2),
            BatchSchedule::full_parallelism(4),
        ),
    );
    let report = check_ppa(&g, &r.stats, PpaCriteria::default());
    // 4 walks/node on a ring: communication fine, rounds fine.
    assert!(report.comm_ok);
}

#[test]
fn graph_builder_and_parser_roundtrip() {
    let mut b = GraphBuilder::new(4).undirected(true);
    b.add_weighted_edge(0, 1, 3);
    b.add_weighted_edge(1, 2, 4);
    let g = b.build();
    // Serialize as an edge list and re-parse.
    let mut text = String::new();
    for v in g.vertices() {
        for (t, w) in g.weighted_neighbors(v) {
            text.push_str(&format!("{v} {t} {w}\n"));
        }
    }
    let g2 = GraphBuilder::parse_edge_list(4, &text).unwrap();
    assert_eq!(g, g2);
}

#[test]
fn reporting_utilities_work_end_to_end() {
    let mut t = Table::new("api", &["k", "v"]);
    t.row(mtvc::metrics::row!("x", 1));
    assert!(t.render().contains("api"));
    assert!(t.to_csv().starts_with("k,v"));
    assert!(t.to_markdown().contains("| k | v |"));
    let s = Series::with_values("t", vec![3.0, 1.0, 2.0]);
    assert_eq!(s.argmin(), Some(1));
    assert_eq!(s.summary().max, 3.0);
}

#[test]
fn seven_systems_expose_consistent_metadata() {
    let spec = MachineSpec::galaxy();
    for kind in SystemKind::ALL {
        let profile = kind.profile(&spec);
        assert_eq!(profile.name, kind.name());
        assert_eq!(profile.out_of_core.is_some(), kind.is_out_of_core());
        assert_eq!(profile.mode.is_broadcast(), kind.is_broadcast());
        let p = kind.partitioner();
        assert!(!p.name().is_empty());
    }
}
