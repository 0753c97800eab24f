//! Criterion microbenchmarks for the engine's hot paths: one BSP round
//! of message routing + compute, the aggregated-walk samplers, graph
//! generation/partitioning, and the LMA fitter.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mtvc_cluster::ClusterSpec;
use mtvc_engine::sampling::{binomial, multinomial_uniform};
use mtvc_engine::{EngineConfig, Runner, SystemProfile};
use mtvc_graph::partition::{HashPartitioner, Partitioner};
use mtvc_graph::{generators, Dataset};
use mtvc_metrics::SimTime;
use mtvc_tasks::BpprSlabProgram;
use mtvc_tune::fit_exponential;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_samplers(c: &mut Criterion) {
    c.bench_function("binomial_small_n", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| black_box(binomial(&mut rng, 40, 0.2)))
    });
    c.bench_function("binomial_large_n", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| black_box(binomial(&mut rng, 100_000, 0.2)))
    });
    c.bench_function("multinomial_spread_64_over_8", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut acc = 0u64;
            multinomial_uniform(&mut rng, 64, 8, |_, c| acc += c);
            black_box(acc)
        })
    });
}

fn bench_engine_round(c: &mut Criterion) {
    let g = generators::power_law(2000, 8000, 2.4, 7);
    c.bench_function("bppr_w16_full_run_2000v", |b| {
        b.iter_batched(
            || {
                let mut cfg =
                    EngineConfig::new(ClusterSpec::galaxy(4), SystemProfile::base("bench"));
                cfg.cutoff = SimTime::secs(1e12);
                Runner::new(&g, &HashPartitioner::default(), cfg)
            },
            |runner| {
                let program = BpprSlabProgram::new(16, 0.2, g.num_vertices());
                black_box(runner.run_slab(&program).stats.rounds)
            },
            BatchSize::PerIteration,
        )
    });
}

fn bench_graph(c: &mut Criterion) {
    c.bench_function("generate_dblp_like", |b| {
        b.iter(|| black_box(Dataset::Dblp.generate(1024).num_edges()))
    });
    let g = Dataset::Dblp.generate(256);
    c.bench_function("hash_partition_8", |b| {
        b.iter(|| black_box(HashPartitioner::default().partition(&g, 8).num_workers()))
    });
}

fn bench_lma(c: &mut Criterion) {
    let xs: Vec<f64> = (1..=10).map(|r| (1u64 << r) as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 2.5 * x.powf(1.2) + 40.0).collect();
    c.bench_function("lma_fit_10_points", |b| {
        b.iter(|| black_box(fit_exponential(&xs, &ys, 1).unwrap().b))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_samplers, bench_engine_round, bench_graph, bench_lma
);
criterion_main!(benches);
