//! Names, units and directions of every workload and metric. The single
//! source: `BENCHMARK.json` is this module printed (`manifest`), and a
//! test fails when the two drift apart.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 12;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "job-wide",
        why: "closed loop, full-parallelism jobs: few rounds carrying millions of messages, so task kernels and the router do the work",
    },
    Workload {
        name: "job-narrow",
        why: "closed loop, the same tasks one query per batch: thousands of near-empty rounds, so per-round and per-batch set-up dominates",
    },
    Workload {
        name: "job-paged",
        why: "closed loop under GraphD with a cache of 0.4x a worker's adjacency: ooc decode and the LRU pager, idle elsewhere, do the work",
    },
    Workload {
        name: "job-recovery",
        why: "closed loop under a fixed fault plan: checkpoint copies, rollback-replay and retransmission, idle elsewhere",
    },
    Workload {
        name: "serve-steady",
        why: "open loop at 100 req/s, a third of capacity at that width: narrow batches, short queues, so per-batch overhead sets latency",
    },
    Workload {
        name: "serve-overload",
        why: "open loop at 1000 req/s, 1.5x capacity: full queue, sheds and expiries, wide batches, so engine throughput sets goodput",
    },
];

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. Every workload reports every one of them.
pub const END_TO_END: [(MetricSpec, f64); 4] = [
    (lower("latency_ms", "ms"), 0.25),
    (higher("goodput_tasks_per_s", "tasks/s"), 0.25),
    (lower("peak_alloc_mb", "MiB"), 0.2),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics, reported by traced runs. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 78] = [
    lower("graph.generate_s", "s"),
    lower("graph.partition_s", "s"),
    higher("graph.ooc.decode_mb_per_s", "MB/s"),
    lower("graph.ooc.encoded_ratio", "ratio"),
    lower("engine.run_slab_s", "s"),
    lower("engine.rounds", "count"),
    lower("engine.round_us", "us"),
    lower("engine.runner_new_s", "s"),
    lower("engine.compute_s", "s"),
    lower("engine.route_s", "s"),
    lower("engine.runner_self_s", "s"),
    lower("engine.msgs_sent", "count"),
    lower("engine.msgs_delivered", "count"),
    lower("engine.combine_ratio", "ratio"),
    higher("engine.msgs_per_s", "1/s"),
    lower("engine.network_bytes", "bytes"),
    lower("engine.shard_copy_bytes", "bytes"),
    lower("engine.encoded_wire_bytes", "bytes"),
    higher("engine.wire.encode_mb_per_s", "MB/s"),
    higher("engine.wire.decode_mb_per_s", "MB/s"),
    lower("engine.paging.loaded_bytes", "bytes"),
    lower("engine.paging.partition_loads", "count"),
    higher("engine.paging.partitions_skipped", "count"),
    lower("engine.paging.peak_resident_bytes", "bytes"),
    lower("engine.paging.load_amplification", "ratio"),
    lower("engine.checkpoint.full_bytes", "bytes"),
    lower("engine.checkpoint.delta_bytes", "bytes"),
    lower("engine.replayed_rounds", "count"),
    lower("engine.retransmitted_buckets", "count"),
    lower("engine.checkpoint_overhead_frac", "ratio"),
    lower("engine.alloc_bytes_per_round", "bytes"),
    lower("tasks.mssp.wall_s", "s"),
    higher("tasks.mssp.msgs_per_s", "1/s"),
    lower("tasks.mssp_combine.wall_s", "s"),
    higher("tasks.mssp_combine.msgs_per_s", "1/s"),
    lower("tasks.bkhs.wall_s", "s"),
    higher("tasks.bkhs.msgs_per_s", "1/s"),
    lower("tasks.bppr.wall_s", "s"),
    higher("tasks.bppr.msgs_per_s", "1/s"),
    lower("cluster.charge_ns", "ns"),
    lower("cluster.sim_time_s", "s"),
    lower("core.run_job_self_s", "s"),
    lower("core.batches", "count"),
    lower("core.cold_pass_s", "s"),
    lower("tune.train_s", "s"),
    lower("tune.fit_us", "us"),
    lower("serve.latency_p50_ms", "ms"),
    lower("serve.latency_p99_ms", "ms"),
    lower("serve.queue_wait_p50_ms", "ms"),
    lower("serve.queue_wait_p99_ms", "ms"),
    lower("serve.execute_p50_ms", "ms"),
    lower("serve.execute_p99_ms", "ms"),
    lower("serve.unserved_frac", "ratio"),
    lower("serve.batches", "count"),
    higher("serve.batch_workload_mean", "tasks"),
    lower("serve.max_queue_depth", "count"),
    lower("serve.queue_depth_twa", "count"),
    lower("serve.shed", "count"),
    lower("serve.expired_in_queue", "count"),
    lower("serve.failed", "count"),
    lower("serve.retries", "count"),
    lower("serve.refits", "count"),
    lower("serve.controller.narrowed", "count"),
    lower("serve.controller.widened", "count"),
    lower("serve.controller.deadline_capped", "count"),
    lower("serve.interactive.p99_ms", "ms"),
    lower("serve.standard.p99_ms", "ms"),
    lower("serve.batch.p99_ms", "ms"),
    higher("serve.interactive.met_frac", "ratio"),
    lower("serve.queue.submit_ns", "ns"),
    lower("serve.queue.take_batch_us", "us"),
    lower("serve.admission.reserve_ns", "ns"),
    higher("loadgen.generate_events_per_s", "1/s"),
    lower("loadgen.lateness_p99_ms", "ms"),
    lower("loadgen.late_frac", "ratio"),
    lower("metrics.histogram_record_ns", "ns"),
    lower("trace.overhead_frac", "ratio"),
    higher("trace.attributed_frac", "ratio"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in metrics {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(
                well_formed(m.unit, 16, "_/%.-"),
                "{} unit {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
        let setup = END_TO_END.iter().find(|(m, _)| m.name == "setup_s");
        assert!(setup.is_some_and(|(m, _)| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_is_the_printed_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
