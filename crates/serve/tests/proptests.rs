//! Property tests for the multi-tenant DRR queue: conservation under
//! concurrent submit/drain, the deficit round-robin fairness bound,
//! backpressure at capacity, EDF starvation-freedom, and joint
//! controller determinism.

use mtvc_core::Task;
use mtvc_serve::{
    DrrQueue, JointController, QueuePolicy, QueuedRequest, RequestId, SloClass, SubmitError,
    TaskRequest, TenantId,
};
use mtvc_tune::OnlineLatencyModel;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::thread;
use std::time::{Duration, Instant};

fn unit_request(id: u64, tenant: u32, workload: u64) -> QueuedRequest {
    QueuedRequest {
        id: RequestId(id),
        request: TaskRequest::new(TenantId(tenant), Task::mssp(workload)),
        submitted: Instant::now(),
        attempts: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every submitted request is drained exactly once, even with
    /// several tenants submitting concurrently against a small queue
    /// (so submitters block on backpressure mid-run).
    #[test]
    fn no_request_lost_or_duplicated(
        per_tenant in proptest::collection::vec(1usize..40, 2..5),
        capacity in 2usize..16,
        quantum in 1u64..8,
    ) {
        let q = DrrQueue::new(capacity, quantum);
        let total: usize = per_tenant.iter().sum();
        let mut collected: Vec<u64> = Vec::with_capacity(total);
        thread::scope(|s| {
            for (t, &n) in per_tenant.iter().enumerate() {
                let q = &q;
                s.spawn(move || {
                    for i in 0..n {
                        let id = (t as u64) * 1_000 + i as u64;
                        q.submit_blocking(unit_request(id, t as u32, 1)).unwrap();
                    }
                });
            }
            while collected.len() < total {
                if let Some(shape) = q.next_shape_blocking() {
                    let round = q.take_batch(&shape, u64::MAX, Instant::now());
                    collected.extend(round.taken.into_iter().map(|r| r.id.0));
                }
            }
        });
        prop_assert!(q.is_empty());
        collected.sort_unstable();
        let mut expected: Vec<u64> = per_tenant
            .iter()
            .enumerate()
            .flat_map(|(t, &n)| (0..n as u64).map(move |i| (t as u64) * 1_000 + i))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(collected, expected);
    }

    /// Two continuously backlogged tenants receive workload shares that
    /// never diverge by more than one request's workload: per round each
    /// is paid the same quantum, and at most one partial request's worth
    /// of deficit (< max workload) stays banked.
    #[test]
    fn drr_fairness_bound(
        quantum in 1u64..16,
        rounds in 1usize..20,
        seed_ws in proptest::collection::vec(1u64..4, 200),
    ) {
        let q = DrrQueue::new(4096, quantum);
        let max_w = 3u64;
        // Backlog each tenant beyond what `rounds` rounds can drain.
        let need = quantum * rounds as u64 + 10;
        for tenant in 0..2u32 {
            let mut sum = 0;
            for (id, &w) in (tenant as u64 * 10_000..).zip(seed_ws.iter().cycle()) {
                if sum >= need {
                    break;
                }
                q.try_submit(unit_request(id, tenant, w)).unwrap();
                sum += w;
            }
        }
        let mut served = [0u64; 2];
        for _ in 0..rounds {
            let round = q.take_batch(&Task::mssp(1), u64::MAX, Instant::now());
            for r in round.taken {
                served[r.request.tenant.0 as usize] += r.workload();
            }
        }
        let diff = served[0].abs_diff(served[1]);
        prop_assert!(
            diff < max_w,
            "served {:?} diverges by {} > {} after {} rounds (quantum {})",
            served, diff, max_w, rounds, quantum
        );
    }

    /// The queue admits exactly `capacity` requests, then refuses with
    /// `Full` until a drain frees space; `len` tracks the difference
    /// between submissions and drains throughout.
    #[test]
    fn backpressure_at_capacity(capacity in 1usize..32, refills in 1usize..5) {
        let q = DrrQueue::new(capacity, 8);
        let mut next_id = 0u64;
        for _ in 0..refills {
            while q.len() < capacity {
                q.try_submit(unit_request(next_id, (next_id % 3) as u32, 1)).unwrap();
                next_id += 1;
            }
            prop_assert_eq!(
                q.try_submit(unit_request(next_id, 0, 1)).unwrap_err(),
                SubmitError::Full
            );
            let drained = q
                .take_batch(&Task::mssp(1), u64::MAX, Instant::now())
                .taken
                .len();
            prop_assert!(drained >= 1);
            prop_assert_eq!(q.len(), capacity - drained);
        }
    }

    /// EDF-within-DRR is starvation-free: the deadline sort only
    /// permutes each round's visit order, so a continuously backlogged
    /// lane of *any* class — including deadline-free Batch competing
    /// against deadline-heavy Interactive lanes — is paid its weighted
    /// quantum every single round, whatever the deadline layout.
    #[test]
    fn edf_never_starves_a_backlogged_class(
        backlog in 8usize..40,
        quantum in 1u64..6,
        deadline_ms in proptest::collection::vec(1u64..5_000, 8),
        interactive_lanes in 1u32..4,
    ) {
        let q = DrrQueue::new(4096, quantum).with_policy(QueuePolicy::slo_aware());
        let policy = q.policy();
        // One deadline-free Batch tenant (tenant 0) plus several
        // Interactive tenants whose arbitrary deadlines feed the EDF
        // sort. Every lane is backlogged beyond one round's payout.
        let mut id = 0u64;
        for i in 0..backlog {
            let mut r = unit_request(id, 0, 1);
            r.request = r.request.with_class(SloClass::Batch);
            q.try_submit(r).unwrap();
            id += 1;
            for t in 1..=interactive_lanes {
                let mut r = unit_request(id, t, 1);
                r.request = r
                    .request
                    .with_class(SloClass::Interactive)
                    // Far enough out that nothing expires mid-test.
                    .with_deadline(Duration::from_secs(
                        60 + deadline_ms[(i + t as usize) % deadline_ms.len()],
                    ));
                q.try_submit(r).unwrap();
                id += 1;
            }
        }
        let rounds = 3usize;
        let mut served = vec![0u64; interactive_lanes as usize + 1];
        for _ in 0..rounds {
            let round = q.take_batch(&Task::mssp(1), u64::MAX, Instant::now());
            for r in round.taken {
                served[r.request.tenant.0 as usize] += 1;
            }
        }
        // Each backlogged lane gets exactly its weighted quantum per
        // round (unit workloads, no expiry, unconstrained budget).
        let expect = |class: SloClass| {
            (rounds as u64 * quantum * policy.weight(class)).min(backlog as u64)
        };
        prop_assert_eq!(served[0], expect(SloClass::Batch), "batch lane starved");
        for &s in &served[1..] {
            prop_assert_eq!(s, expect(SloClass::Interactive));
        }
    }

    /// For a fixed seed the joint controller is bit-deterministic:
    /// replaying the same pseudo-random (depth, headroom, slack)
    /// sequence against an identically trained latency model yields an
    /// identical decision stream.
    #[test]
    fn controller_is_deterministic_for_fixed_seed(
        seed in any::<u64>(),
        steps in 1usize..120,
        workers in 1usize..8,
    ) {
        let run = || {
            let mut model = OnlineLatencyModel::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut c = JointController::new(workers);
            (0..steps)
                .map(|_| {
                    // Interleave observations so the model's fit (and
                    // therefore the deadline cap) evolves mid-stream.
                    let w = rng.gen_range(1u64..512);
                    model.observe(w, 0.05 + 0.002 * w as f64);
                    let depth = rng.gen_range(0usize..200);
                    let slack = if rng.gen_bool(0.5) {
                        Some(Duration::from_millis(rng.gen_range(1u64..2_000)))
                    } else {
                        None
                    };
                    c.decide(depth, rng.gen_range(1u64..1_024), slack, &model)
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
