//! Deterministic fault injection for chaos testing.
//!
//! The paper's central hazard is memory overload: full-parallelism runs
//! crash real systems (Giraph OOMs in §4), and the §5 tuner exists to
//! keep every machine under `p·M`. A production substrate must survive
//! a mispredicted memory model, not just report it — so this module
//! provides the *fault side* of the failure path: a seeded, fully
//! deterministic [`FaultPlan`] describing which machines crash at which
//! supersteps, which rounds lose their in-flight messages, which
//! machines straggle (slow rounds), when the interconnect partitions,
//! which inbound buckets arrive corrupted, and whether the simulated
//! kernel OOM-kills a worker the moment its memory demand exceeds
//! physical capacity (instead of the cost model's softer
//! thrashing-then-overflow regime).
//!
//! The engine consumes a plan through a [`FaultInjector`]: each
//! recoverable event fires exactly once (transient semantics — the
//! replayed superstep succeeds), which makes Pregel-style
//! checkpoint-rollback-replay recovery terminate. Everything is seeded,
//! so a chaos run is reproducible bit for bit.

use serde::{Deserialize, Serialize};

/// One recoverable injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The machine's in-memory state (vertex states, received message
    /// buffers) is lost at the start of the superstep. Pregel recovery:
    /// global rollback to the last checkpoint and replay.
    MachineCrash {
        /// The machine that crashes.
        machine: usize,
    },
    /// The messages routed *to* this machine at the end of the previous
    /// superstep are lost in transit. Recovered the same way a crash
    /// is: rollback and retransmit via replay.
    DeliveryFailure {
        /// The machine whose inbound messages are dropped.
        machine: usize,
    },
    /// The machine runs slow for a window of supersteps: its compute
    /// demand is scaled by `factor_pct / 100` for `rounds` rounds
    /// starting at the fault's round. No state is lost — the cost is
    /// pure simulated time, accounted as recovery overhead so the
    /// run's first-run completion time stays fault-free-identical.
    Straggler {
        /// The machine that slows down.
        machine: usize,
        /// Slowdown factor in percent (150 = 1.5× compute time; always
        /// ≥ 100 when drawn from [`FaultPlan::chaos`]).
        factor_pct: u32,
        /// How many consecutive supersteps the window covers (≥ 1).
        rounds: usize,
    },
    /// The cluster's interconnect splits: every cross-machine delivery
    /// of the superstep fails, for `rounds` consecutive supersteps.
    /// Recovered like a delivery failure — rollback and replay — plus a
    /// barrier-stall charge per blocked round while the partition heals.
    Partition {
        /// How many consecutive supersteps the partition lasts (≥ 1).
        rounds: usize,
    },
    /// `flips` encoded message buckets addressed to this machine arrive
    /// with flipped bits. The engine models the repair rather than
    /// decoding anything: each bucket is re-sent from the sender's
    /// retained shard buffers — no rollback, only retransmission time.
    PayloadCorruption {
        /// The machine whose inbound buckets are corrupted.
        machine: usize,
        /// How many buckets arrive corrupted (each is retransmitted
        /// once; retransmissions are assumed clean).
        flips: u32,
    },
}

impl FaultKind {
    /// The machine the fault strikes, if the fault targets a single
    /// machine (`None` for cluster-wide faults such as partitions).
    pub fn machine(&self) -> Option<usize> {
        match *self {
            FaultKind::MachineCrash { machine }
            | FaultKind::DeliveryFailure { machine }
            | FaultKind::Straggler { machine, .. }
            | FaultKind::PayloadCorruption { machine, .. } => Some(machine),
            FaultKind::Partition { .. } => None,
        }
    }
}

/// How many of each fault kind a seeded chaos schedule should draw.
///
/// The all-zeros default injects nothing; fill in the kinds a scenario
/// needs and pass the mix to [`FaultPlan::chaos`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosMix {
    /// Machine crashes (rollback + replay).
    pub crashes: usize,
    /// Transient delivery failures (rollback + replay).
    pub losses: usize,
    /// Straggler windows (slow rounds, no state loss).
    pub stragglers: usize,
    /// Network partitions (cluster-wide delivery loss for a window).
    pub partitions: usize,
    /// Payload-corruption events (per-bucket retransmission).
    pub corruptions: usize,
}

impl ChaosMix {
    /// Total events the mix schedules.
    pub fn total(&self) -> usize {
        self.crashes + self.losses + self.stragglers + self.partitions + self.corruptions
    }
}

/// A fault scheduled at a specific superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The superstep (engine round) at whose start the fault fires. A
    /// round beyond the run's natural length never fires.
    pub round: usize,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults for one run.
///
/// Plans are data: build one explicitly with [`FaultPlan::with_crash`]
/// / [`FaultPlan::with_delivery_failure`], or draw a seeded random
/// schedule with [`FaultPlan::random`]. The same plan always produces
/// the same faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    hard_oom: bool,
}

/// SplitMix64 step — keeps the plan generator self-contained (no RNG
/// dependency in this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults, soft overflow semantics).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a machine crash at the start of `round`.
    pub fn with_crash(mut self, round: usize, machine: usize) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::MachineCrash { machine },
        });
        self
    }

    /// Schedule a transient loss of `machine`'s inbound messages at the
    /// start of `round`.
    pub fn with_delivery_failure(mut self, round: usize, machine: usize) -> FaultPlan {
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::DeliveryFailure { machine },
        });
        self
    }

    /// Schedule a straggler window: `machine` computes `factor_pct`%
    /// slower for `rounds` supersteps starting at `round`.
    pub fn with_straggler(
        mut self,
        round: usize,
        machine: usize,
        factor_pct: u32,
        rounds: usize,
    ) -> FaultPlan {
        assert!(factor_pct >= 100, "a straggler cannot speed a machine up");
        assert!(rounds >= 1, "a straggler window covers at least one round");
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::Straggler {
                machine,
                factor_pct,
                rounds,
            },
        });
        self
    }

    /// Schedule a network partition lasting `rounds` supersteps starting
    /// at `round`.
    pub fn with_partition(mut self, round: usize, rounds: usize) -> FaultPlan {
        assert!(rounds >= 1, "a partition lasts at least one round");
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::Partition { rounds },
        });
        self
    }

    /// Schedule `flips` corrupted inbound buckets on `machine` at the
    /// start of `round`.
    pub fn with_corruption(mut self, round: usize, machine: usize, flips: u32) -> FaultPlan {
        assert!(flips >= 1, "corruption must flip at least one bucket");
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::PayloadCorruption { machine, flips },
        });
        self
    }

    /// Enable the hard OOM kill: the run is terminated the moment any
    /// machine's simulated memory demand exceeds its physical capacity,
    /// instead of entering the cost model's thrashing regime and only
    /// overflowing at [`OVERFLOW_LIMIT`] × capacity.
    ///
    /// [`OVERFLOW_LIMIT`]: crate::costmodel::OVERFLOW_LIMIT
    pub fn with_hard_oom(mut self) -> FaultPlan {
        self.hard_oom = true;
        self
    }

    /// Draw a seeded random schedule: `crashes` machine crashes and
    /// `losses` delivery failures, uniformly over supersteps
    /// `1..=horizon` and `machines` machines. Deterministic in `seed`.
    pub fn random(
        seed: u64,
        machines: usize,
        horizon: usize,
        crashes: usize,
        losses: usize,
    ) -> FaultPlan {
        assert!(machines >= 1, "need at least one machine");
        assert!(horizon >= 1, "need at least one superstep");
        let mut state = seed ^ 0xFA17_FA17_FA17_FA17;
        let mut plan = FaultPlan::none();
        for _ in 0..crashes {
            let round = 1 + (splitmix64(&mut state) as usize) % horizon;
            let machine = (splitmix64(&mut state) as usize) % machines;
            plan = plan.with_crash(round, machine);
        }
        for _ in 0..losses {
            let round = 1 + (splitmix64(&mut state) as usize) % horizon;
            let machine = (splitmix64(&mut state) as usize) % machines;
            plan = plan.with_delivery_failure(round, machine);
        }
        plan
    }

    /// Draw a seeded random schedule covering the full fault taxonomy:
    /// `mix` counts of each kind, rounds uniform over `1..=horizon`,
    /// machines uniform over `machines`. Straggler factors land in
    /// 150..=400 %, straggler windows in 1..=3 rounds, partitions in
    /// 1..=2 rounds, corruption in 1..=4 buckets. Deterministic in
    /// `seed`; [`FaultPlan::random`] draws are unaffected (different
    /// stream).
    pub fn chaos(seed: u64, machines: usize, horizon: usize, mix: ChaosMix) -> FaultPlan {
        assert!(machines >= 1, "need at least one machine");
        assert!(horizon >= 1, "need at least one superstep");
        let mut state = seed ^ 0xC4A0_5C4A_05C4_A05C;
        let draw_round = |state: &mut u64| 1 + (splitmix64(state) as usize) % horizon;
        let mut plan = FaultPlan::none();
        for _ in 0..mix.crashes {
            let round = draw_round(&mut state);
            let machine = (splitmix64(&mut state) as usize) % machines;
            plan = plan.with_crash(round, machine);
        }
        for _ in 0..mix.losses {
            let round = draw_round(&mut state);
            let machine = (splitmix64(&mut state) as usize) % machines;
            plan = plan.with_delivery_failure(round, machine);
        }
        for _ in 0..mix.stragglers {
            let round = draw_round(&mut state);
            let machine = (splitmix64(&mut state) as usize) % machines;
            let factor_pct = 150 + (splitmix64(&mut state) % 251) as u32;
            let rounds = 1 + (splitmix64(&mut state) as usize) % 3;
            plan = plan.with_straggler(round, machine, factor_pct, rounds);
        }
        for _ in 0..mix.partitions {
            let round = draw_round(&mut state);
            let rounds = 1 + (splitmix64(&mut state) as usize) % 2;
            plan = plan.with_partition(round, rounds);
        }
        for _ in 0..mix.corruptions {
            let round = draw_round(&mut state);
            let machine = (splitmix64(&mut state) as usize) % machines;
            let flips = 1 + (splitmix64(&mut state) % 4) as u32;
            plan = plan.with_corruption(round, machine, flips);
        }
        plan
    }

    /// Whether the hard OOM kill is armed.
    pub fn hard_oom(&self) -> bool {
        self.hard_oom
    }

    /// The scheduled recoverable events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && !self.hard_oom
    }
}

/// Runtime consumer of a [`FaultPlan`] for one run.
///
/// Events are delivered by [`FaultInjector::take_all_at`] exactly once
/// each (transient-fault semantics): after a rollback, the replayed
/// superstep passes the point of failure cleanly, so recovery
/// terminates even when several faults stack up.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Remaining events, sorted by round (stable for equal rounds).
    pending: Vec<FaultEvent>,
    /// Events returned by the latest [`FaultInjector::take_all_at`];
    /// kept owned so the call can hand back a slice.
    taken: Vec<FaultEvent>,
    hard_oom: bool,
    fired: u64,
}

impl FaultInjector {
    /// Arm an injector for one run of `plan`.
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let mut pending = plan.events.clone();
        // Sort descending by round so firing pops from the back.
        pending.sort_by_key(|e| std::cmp::Reverse(e.round));
        FaultInjector {
            pending,
            taken: Vec::new(),
            hard_oom: plan.hard_oom,
            fired: 0,
        }
    }

    /// Fire (and consume) every event scheduled at or before `round`,
    /// in schedule order. Co-scheduled faults — several events at the
    /// same round — all fire in one call; each event fires exactly
    /// once across the run. Returns an empty slice when nothing is due.
    pub fn take_all_at(&mut self, round: usize) -> &[FaultEvent] {
        self.taken.clear();
        while let Some(e) = self.pending.last() {
            if e.round > round {
                break;
            }
            self.taken.push(self.pending.pop().unwrap());
            self.fired += 1;
        }
        &self.taken
    }

    /// Whether the hard OOM kill is armed.
    pub fn hard_oom(&self) -> bool {
        self.hard_oom
    }

    /// Events fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Events still scheduled.
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_once_in_round_order() {
        let plan = FaultPlan::none()
            .with_crash(5, 1)
            .with_delivery_failure(2, 0)
            .with_crash(5, 3);
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.take_all_at(0).is_empty());
        assert!(inj.take_all_at(1).is_empty());
        let due = inj.take_all_at(2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::DeliveryFailure { machine: 0 });
        assert!(inj.take_all_at(2).is_empty());
        // Both round-5 events fire together in one call.
        assert_eq!(inj.take_all_at(5).len(), 2);
        assert!(inj.take_all_at(5).is_empty());
        assert_eq!(inj.fired(), 3);
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn co_scheduled_faults_all_fire_in_one_call() {
        let plan = FaultPlan::none()
            .with_crash(4, 1)
            .with_delivery_failure(4, 0)
            .with_partition(4, 1)
            .with_corruption(4, 2, 3);
        let mut inj = FaultInjector::new(&plan);
        let due = inj.take_all_at(4);
        assert_eq!(due.len(), 4, "every co-scheduled event fires at once");
        assert!(inj.take_all_at(4).is_empty());
        assert_eq!(inj.fired(), 4);
    }

    #[test]
    fn skipped_rounds_still_fire_late() {
        // A fault at round 3 queried first at round 7 (e.g. the engine
        // only polls at checkpoint boundaries) still fires.
        let plan = FaultPlan::none().with_crash(3, 0);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.take_all_at(7).len(), 1);
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::random(42, 4, 10, 3, 2);
        let b = FaultPlan::random(42, 4, 10, 3, 2);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 5);
        for e in a.events() {
            assert!((1..=10).contains(&e.round));
            assert!(e.kind.machine().unwrap() < 4);
        }
        let c = FaultPlan::random(43, 4, 10, 3, 2);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn chaos_plans_are_deterministic_and_in_range() {
        let mix = ChaosMix {
            crashes: 2,
            losses: 2,
            stragglers: 3,
            partitions: 1,
            corruptions: 2,
        };
        let a = FaultPlan::chaos(42, 4, 10, mix);
        let b = FaultPlan::chaos(42, 4, 10, mix);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), mix.total());
        for e in a.events() {
            assert!((1..=10).contains(&e.round));
            if let Some(m) = e.kind.machine() {
                assert!(m < 4);
            }
            match e.kind {
                FaultKind::Straggler {
                    factor_pct, rounds, ..
                } => {
                    assert!((150..=400).contains(&factor_pct));
                    assert!((1..=3).contains(&rounds));
                }
                FaultKind::Partition { rounds } => assert!((1..=2).contains(&rounds)),
                FaultKind::PayloadCorruption { flips, .. } => assert!((1..=4).contains(&flips)),
                _ => {}
            }
        }
        assert_ne!(a, FaultPlan::chaos(43, 4, 10, mix));
        assert!(FaultPlan::chaos(1, 3, 8, ChaosMix::default()).is_empty());
    }

    #[test]
    fn hard_oom_is_carried_through() {
        let plan = FaultPlan::none().with_hard_oom();
        assert!(plan.hard_oom());
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(&plan);
        assert!(inj.hard_oom());
        assert_eq!(inj.remaining(), 0);
    }
}
