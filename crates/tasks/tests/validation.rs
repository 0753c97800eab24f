//! End-to-end validation: every task executed through the distributed
//! engine must agree with its exact sequential reference.

use mtvc_cluster::ClusterSpec;
use mtvc_engine::{EngineConfig, ExecutionMode, Runner, SystemProfile};
use mtvc_graph::partition::HashPartitioner;
use mtvc_graph::{generators, reference as gref, Graph, VertexId};
use mtvc_metrics::SimTime;
use mtvc_tasks::bkhs::BkhsCounts;
use mtvc_tasks::bppr::{BpprEstimates, PushEstimates};
use mtvc_tasks::mssp::MsspDistances;
use mtvc_tasks::{
    reference as tref, BkhsBroadcastSlabProgram, BkhsSlabProgram, BpprPushSlabProgram,
    BpprSlabProgram, MsspBroadcastSlabProgram, MsspSlabProgram, PageRankProgram, SourceSet,
};

/// Roomy config: validation must never hit overload/overflow.
fn roomy_config(machines: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(
        ClusterSpec::galaxy(machines),
        SystemProfile::base("validate"),
    );
    cfg.cutoff = SimTime::secs(1.0e12);
    cfg
}

fn run<P: mtvc_engine::SlabProgram>(g: &Graph, machines: usize, p: &P) -> Vec<P::Out> {
    let runner = Runner::new(g, &HashPartitioner::default(), roomy_config(machines));
    let result = runner.run_slab(p);
    assert!(
        result.outcome.is_completed(),
        "validation run must complete: {:?}",
        result.outcome
    );
    result.states
}

#[test]
fn mssp_matches_dijkstra_weighted() {
    let base = generators::power_law(150, 700, 2.3, 11);
    let g = generators::with_random_weights(&base, 1, 9, 4);
    let sources = vec![0, 3, 77, 149];
    let states = run(&g, 4, &MsspSlabProgram::new(sources.clone()));
    let dist = MsspDistances::new(states);
    for (q, &s) in sources.iter().enumerate() {
        let want = gref::dijkstra(&g, s);
        for v in g.vertices() {
            let got = dist.dist(q as u32, v);
            if want[v as usize] == u64::MAX {
                assert_eq!(got, None, "s={s} v={v}");
            } else {
                assert_eq!(got, Some(want[v as usize]), "s={s} v={v}");
            }
        }
    }
}

#[test]
fn mssp_broadcast_matches_bfs_hops() {
    let g = generators::power_law(120, 500, 2.4, 7);
    let sources = vec![5, 60];
    let mut cfg = roomy_config(3);
    cfg.profile.mode = ExecutionMode::Broadcast {
        mirror_threshold: 12,
    };
    let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
    let result = runner.run_slab(&MsspBroadcastSlabProgram::new(sources.clone()));
    assert!(result.outcome.is_completed());
    let dist = MsspDistances::new(result.states);
    for (q, &s) in sources.iter().enumerate() {
        let want = gref::bfs_levels(&g, s);
        for v in g.vertices() {
            let got = dist.dist(q as u32, v);
            if want[v as usize] == u32::MAX {
                assert_eq!(got, None, "s={s} v={v}");
            } else {
                assert_eq!(got, Some(want[v as usize] as u64), "s={s} v={v}");
            }
        }
    }
}

#[test]
fn bkhs_matches_reference_k_hop_sets() {
    let g = generators::power_law(130, 520, 2.5, 9);
    let sources = vec![1, 42, 99];
    let k = 2;
    let states = run(&g, 4, &BkhsSlabProgram::new(sources.clone(), k));
    for (q, &s) in sources.iter().enumerate() {
        let mut want = gref::k_hop_set(&g, s, k);
        want.sort_unstable();
        let got = BkhsCounts::members(&states, q as u32);
        assert_eq!(got, want, "source {s}");
    }
}

#[test]
fn bkhs_broadcast_agrees_with_p2p() {
    let g = generators::power_law(110, 480, 2.2, 13);
    let sources = vec![2, 50];
    let k = 3;
    let p2p = run(&g, 3, &BkhsSlabProgram::new(sources.clone(), k));
    let mut cfg = roomy_config(3);
    cfg.profile.mode = ExecutionMode::Broadcast {
        mirror_threshold: 10,
    };
    let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
    let bc = runner.run_slab(&BkhsBroadcastSlabProgram::new(sources.clone(), k));
    assert!(bc.outcome.is_completed());
    for (q, &s) in sources.iter().enumerate() {
        assert_eq!(
            BkhsCounts::members(&p2p, q as u32),
            BkhsCounts::members(&bc.states, q as u32),
            "source {s}"
        );
    }
}

#[test]
fn bppr_walk_conservation() {
    // Every injected walk must stop somewhere: total stops == W * n.
    let g = generators::power_law(80, 350, 2.3, 21);
    let w = 64;
    let states = run(&g, 4, &BpprSlabProgram::new(w, 0.2, g.num_vertices()));
    let mut est = BpprEstimates::new(g.num_vertices());
    est.absorb(states, w);
    assert_eq!(est.total_stopped(), w * g.num_vertices() as u64);
}

#[test]
fn bppr_estimates_unbiased_vs_exact_ppr() {
    // One source, many walks: the empirical stop distribution must be
    // close to the exact α-decay stop distribution.
    let g = generators::power_law(60, 260, 2.4, 31);
    let alpha = 0.2;
    let w = 60_000;
    let source: VertexId = 0;
    let prog = BpprSlabProgram::new(w, alpha, g.num_vertices())
        .with_sources(SourceSet::subset(vec![source]));
    let states = run(&g, 4, &prog);
    let mut est = BpprEstimates::new(g.num_vertices());
    est.absorb(states, w);
    let exact = tref::exact_ppr(&g, source, alpha);
    let l1: f64 = g
        .vertices()
        .map(|v| (est.ppr(source, v) - exact[v as usize]).abs())
        .sum();
    assert!(l1 < 0.05, "L1 error {l1} too large for W={w}");
}

#[test]
fn bppr_push_matches_exact_ppr_closely() {
    let g = generators::power_law(70, 300, 2.3, 41);
    let alpha = 0.2;
    let w = 10_000;
    let source: VertexId = 3;
    let prog = BpprPushSlabProgram::new(w, alpha, g.num_vertices())
        .with_sources(SourceSet::subset(vec![source]))
        .with_epsilon(0.01);
    let mut cfg = roomy_config(4);
    cfg.profile.mode = ExecutionMode::Broadcast {
        mirror_threshold: 16,
    };
    let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
    let result = runner.run_slab(&prog);
    assert!(result.outcome.is_completed());
    let mut est = PushEstimates::new(g.num_vertices());
    est.absorb(result.states, w);
    // Mass conservation: all W walks' mass is absorbed somewhere.
    assert!((est.total_mass() - w as f64).abs() < 1e-6 * w as f64);
    let exact = tref::exact_ppr(&g, source, alpha);
    let linf = g
        .vertices()
        .map(|v| (est.ppr(source, v) - exact[v as usize]).abs())
        .fold(0.0f64, f64::max);
    // Push truncation bias is bounded by epsilon-scale effects.
    assert!(linf < 0.01, "Linf error {linf}");
}

#[test]
fn pagerank_matches_power_iteration() {
    let g = generators::power_law(90, 400, 2.3, 51);
    let prog = PageRankProgram::new(0.85, 25);
    let states = run(&g, 4, &prog);
    let exact = tref::exact_pagerank(&g, 0.85, 25);
    for v in g.vertices() {
        let got = states[v as usize].rank;
        let want = exact[v as usize];
        assert!((got - want).abs() < 1e-9, "vertex {v}: {got} vs {want}");
    }
}

#[test]
fn bppr_two_half_batches_equal_one_full_batch_statistically() {
    // Splitting the workload in two batches halves memory but must not
    // change the estimator's expectation. Check both come close to the
    // exact distribution.
    let g = generators::power_law(50, 220, 2.4, 61);
    let alpha = 0.25;
    let source: VertexId = 7;
    let exact = tref::exact_ppr(&g, source, alpha);
    let estimate = |w: u64, seed: u64| {
        let mut cfg = roomy_config(2);
        cfg.seed = seed;
        let prog = BpprSlabProgram::new(w, alpha, g.num_vertices())
            .with_sources(SourceSet::subset(vec![source]));
        let runner = Runner::new(&g, &HashPartitioner::default(), cfg);
        runner.run_slab(&prog).states
    };
    let mut split = BpprEstimates::new(g.num_vertices());
    split.absorb(estimate(20_000, 1), 20_000);
    split.absorb(estimate(20_000, 2), 20_000);
    let l1: f64 = g
        .vertices()
        .map(|v| (split.ppr(source, v) - exact[v as usize]).abs())
        .sum();
    assert!(l1 < 0.05, "split-batch L1 error {l1}");
}
