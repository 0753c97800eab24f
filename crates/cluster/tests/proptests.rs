//! Property-based tests for the cost model: monotonicity and regime
//! invariants that every figure implicitly relies on.

use mtvc_cluster::costmodel::OVERFLOW_LIMIT;
use mtvc_cluster::{ChargeError, CostModel, MachineSpec, RoundDemand};
use mtvc_metrics::Bytes;
use proptest::prelude::*;

fn demand(workers: usize, ops: f64, out_bytes: u64, mem: u64, spill: u64) -> RoundDemand {
    let mut d = RoundDemand::zeros(workers, true);
    for w in 0..workers {
        d.compute_ops[w] = ops;
        d.net_out[w] = Bytes(out_bytes);
        d.net_in[w] = Bytes(out_bytes);
        d.memory[w] = Bytes(mem);
        d.spill[w] = Bytes(spill);
        d.spill_messages[w] = spill / 16;
    }
    d
}

proptest! {
    #[test]
    fn duration_monotone_in_compute(
        ops in 0.0f64..1e9,
        extra in 1.0f64..1e9,
        workers in 1usize..16,
    ) {
        let m = CostModel::default();
        let spec = MachineSpec::galaxy();
        let lo = m.charge(&spec, &demand(workers, ops, 0, 0, 0)).unwrap();
        let hi = m.charge(&spec, &demand(workers, ops + extra, 0, 0, 0)).unwrap();
        prop_assert!(hi.duration >= lo.duration);
    }

    #[test]
    fn duration_monotone_in_network(
        bytes in 0u64..10_000_000_000,
        extra in 1u64..10_000_000_000,
    ) {
        let m = CostModel::default();
        let spec = MachineSpec::galaxy();
        let lo = m.charge(&spec, &demand(2, 0.0, bytes, 0, 0)).unwrap();
        let hi = m.charge(&spec, &demand(2, 0.0, bytes.saturating_add(extra), 0, 0)).unwrap();
        prop_assert!(hi.duration >= lo.duration);
        prop_assert!(hi.network_overuse >= lo.network_overuse);
    }

    #[test]
    fn thrash_factor_monotone_in_memory(
        mem in 0u64..20_000_000_000,
        extra in 1u64..10_000_000_000,
    ) {
        let m = CostModel::default();
        let spec = MachineSpec::galaxy();
        let lo = m.thrash_factor(Bytes(mem), &spec);
        let hi = m.thrash_factor(Bytes(mem.saturating_add(extra)), &spec);
        prop_assert!(hi >= lo);
        prop_assert!(lo >= 1.0);
    }

    #[test]
    fn overflow_exactly_when_beyond_limit(mem_gb in 0.1f64..40.0) {
        let m = CostModel::default();
        let spec = MachineSpec::galaxy();
        let mem = Bytes::gib(1).scaled(mem_gb);
        let result = m.charge(&spec, &demand(1, 0.0, 0, mem.get(), 0));
        let limit = spec.memory.as_f64() * OVERFLOW_LIMIT;
        let overflowed = matches!(result, Err(ChargeError::MemoryOverflow { .. }));
        if mem.as_f64() > limit {
            prop_assert!(overflowed);
        } else {
            prop_assert!(!overflowed && result.is_ok());
        }
    }

    #[test]
    fn spill_increases_disk_busy(
        spill in 1u64..5_000_000_000,
    ) {
        let m = CostModel::default();
        let spec = MachineSpec::galaxy();
        let without = m.charge(&spec, &demand(1, 1e6, 0, 0, 0)).unwrap();
        let with = m.charge(&spec, &demand(1, 1e6, 0, 0, spill)).unwrap();
        prop_assert!(with.disk_busy > without.disk_busy);
        prop_assert!(with.duration >= without.duration);
    }

    #[test]
    fn barrier_costs_grow_with_machines(workers in 1usize..64) {
        let m = CostModel::default();
        let spec = MachineSpec::galaxy();
        let small = m.charge(&spec, &RoundDemand::zeros(workers, true)).unwrap();
        let large = m.charge(&spec, &RoundDemand::zeros(workers + 1, true)).unwrap();
        prop_assert!(large.duration >= small.duration);
    }

    #[test]
    fn scaled_machines_preserve_relative_time(
        sigma in 1.0f64..4096.0,
        ops in 1.0f64..1e8,
    ) {
        // time(ops/sigma on spec/sigma) == time(ops on spec): the σ
        // invariance DESIGN.md relies on (barrier excluded).
        let m = CostModel::default();
        let base = MachineSpec::galaxy();
        let scaled = base.scaled(sigma);
        let t_base = m
            .charge(&base, &demand(1, ops, 0, 0, 0))
            .unwrap()
            .duration
            .as_secs();
        let t_scaled = m
            .charge(&scaled, &demand(1, ops / sigma, 0, 0, 0))
            .unwrap()
            .duration
            .as_secs();
        prop_assert!((t_base - t_scaled).abs() < 1e-6 * t_base.max(1.0));
    }

    #[test]
    fn charge_is_deterministic(
        ops in 0.0f64..1e8,
        bytes in 0u64..1_000_000_000,
        mem in 0u64..17_000_000_000,
    ) {
        let m = CostModel::default();
        let spec = MachineSpec::docker();
        let d = demand(3, ops, bytes, mem, 0);
        let a = m.charge(&spec, &d);
        let b = m.charge(&spec, &d);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "non-deterministic charge: {:?}", other),
        }
    }
}
