//! Fault-injection and recovery accounting.
//!
//! [`FaultStats`] travels inside [`RunStats`](crate::RunStats) so every
//! layer — engine, batch runner, serve — sees the same record of what
//! was injected and what recovery cost. Replayed work is kept strictly
//! separate from first-run work: a chaos run's *non-replay* statistics
//! must be bit-identical to the fault-free run, and these counters hold
//! everything that differs.

use crate::units::{Bytes, SimTime};
use serde::{Deserialize, Serialize};

/// What went wrong during a run, and what it cost to recover.
///
/// Units: every `*_bytes` field counts raw bytes ([`Bytes`]); every
/// `*_time` field is simulated seconds ([`SimTime`]); the remaining
/// fields are plain event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Recoverable faults injected (crashes, delivery failures,
    /// stragglers, partitions, and corruption events).
    pub injected: u64,
    /// Machine crashes among `injected`.
    pub crashes: u64,
    /// Transient message-delivery failures among `injected`.
    pub delivery_failures: u64,
    /// Straggler windows among `injected` (a machine's rounds slowed
    /// by a seeded factor; no state loss, time-only cost).
    pub stragglers: u64,
    /// Network partitions among `injected` (all cross-machine
    /// deliveries of a window of rounds lost; rollback + replay).
    pub partitions: u64,
    /// Hard OOM kills (memory demand exceeded physical capacity while
    /// the hard-OOM fault was armed). These abort the run.
    pub oom_kills: u64,
    /// Checkpoints taken (full snapshots of vertex state + in-flight
    /// messages at superstep boundaries).
    pub checkpoints: u64,
    /// Bytes stored by checkpoint snapshots.
    pub checkpoint_full_bytes: Bytes,
    /// Always zero: every checkpoint is a full snapshot. Kept because
    /// the benchmark reads it.
    pub checkpoint_delta_bytes: Bytes,
    /// Supersteps re-executed during rollback-replay recovery.
    pub replayed_rounds: u64,
    /// Wire messages retransmitted during replay (never counted in the
    /// run's first-run traffic totals).
    pub replayed_wire: u64,
    /// Encoded message buckets that arrived corrupted (modelled: one
    /// per injected flip, never decoded).
    pub corrupted_buckets: u64,
    /// Corrupted buckets repaired by per-bucket retransmission from the
    /// sender's retained shard buffers (no rollback).
    pub retransmitted_buckets: u64,
    /// Bytes re-sent by per-bucket retransmissions (raw bytes; never
    /// counted in first-run traffic totals).
    pub retransmitted_bytes: Bytes,
    /// Simulated time spent replaying, waiting out partitions, and
    /// retransmitting (excluded from the run's completion time, which
    /// reflects first-run work only). Simulated seconds.
    pub recovery_time: SimTime,
    /// Extra simulated time straggler windows added on top of the
    /// fault-free compute charge (accounted here, not in completion
    /// time). Simulated seconds.
    pub straggler_time: SimTime,
}

impl FaultStats {
    /// Whether any fault machinery left a trace in this run.
    pub fn is_quiet(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Merge another run's fault record into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.crashes += other.crashes;
        self.delivery_failures += other.delivery_failures;
        self.stragglers += other.stragglers;
        self.partitions += other.partitions;
        self.oom_kills += other.oom_kills;
        self.checkpoints += other.checkpoints;
        self.checkpoint_full_bytes += other.checkpoint_full_bytes;
        self.checkpoint_delta_bytes += other.checkpoint_delta_bytes;
        self.replayed_rounds += other.replayed_rounds;
        self.replayed_wire += other.replayed_wire;
        self.corrupted_buckets += other.corrupted_buckets;
        self.retransmitted_buckets += other.retransmitted_buckets;
        self.retransmitted_bytes += other.retransmitted_bytes;
        self.recovery_time += other.recovery_time;
        self.straggler_time += other.straggler_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        assert!(FaultStats::default().is_quiet());
    }

    #[test]
    fn absorb_sums_everything() {
        let mut a = FaultStats {
            injected: 2,
            crashes: 1,
            delivery_failures: 1,
            stragglers: 1,
            partitions: 0,
            oom_kills: 0,
            checkpoints: 3,
            checkpoint_full_bytes: Bytes(1000),
            checkpoint_delta_bytes: Bytes(80),
            replayed_rounds: 4,
            replayed_wire: 100,
            corrupted_buckets: 2,
            retransmitted_buckets: 2,
            retransmitted_bytes: Bytes(300),
            recovery_time: SimTime::secs(1.5),
            straggler_time: SimTime::secs(0.25),
        };
        let b = FaultStats {
            injected: 1,
            crashes: 1,
            delivery_failures: 0,
            stragglers: 2,
            partitions: 1,
            oom_kills: 1,
            checkpoints: 2,
            checkpoint_full_bytes: Bytes(500),
            checkpoint_delta_bytes: Bytes(20),
            replayed_rounds: 2,
            replayed_wire: 50,
            corrupted_buckets: 1,
            retransmitted_buckets: 1,
            retransmitted_bytes: Bytes(100),
            recovery_time: SimTime::secs(0.5),
            straggler_time: SimTime::secs(0.75),
        };
        a.absorb(&b);
        assert_eq!(a.injected, 3);
        assert_eq!(a.crashes, 2);
        assert_eq!(a.delivery_failures, 1);
        assert_eq!(a.stragglers, 3);
        assert_eq!(a.partitions, 1);
        assert_eq!(a.oom_kills, 1);
        assert_eq!(a.checkpoints, 5);
        assert_eq!(a.checkpoint_full_bytes, Bytes(1500));
        assert_eq!(a.checkpoint_delta_bytes, Bytes(100));
        assert_eq!(a.replayed_rounds, 6);
        assert_eq!(a.replayed_wire, 150);
        assert_eq!(a.corrupted_buckets, 3);
        assert_eq!(a.retransmitted_buckets, 3);
        assert_eq!(a.retransmitted_bytes, Bytes(400));
        assert_eq!(a.recovery_time.as_secs(), 2.0);
        assert_eq!(a.straggler_time.as_secs(), 1.0);
        assert!(!a.is_quiet());
    }
}
