//! Per-round and per-run statistic records.
//!
//! A [`RoundStats`] is what the engine measures for one synchronous
//! communication round (or one async scheduling epoch): message counts
//! before/after combining, traffic bytes, active vertices, memory
//! high-water marks, spill volume. A [`RunStats`] accumulates rounds into
//! the aggregate quantities the paper's tables report — total messages,
//! per-round congestion, network/disk overuse durations, and peak memory.

use crate::faults::FaultStats;
use crate::units::{Bytes, SimTime};
use serde::{Deserialize, Serialize};

/// Exact measurements taken during one engine round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index within the current batch (0-based).
    pub round: usize,
    /// Messages produced by `compute` before any combiner ran.
    pub messages_sent: u64,
    /// Messages actually delivered after combining / mirroring dedup.
    pub messages_delivered: u64,
    /// Bytes of message traffic crossing machine boundaries.
    pub network_bytes: Bytes,
    /// Bytes of message traffic staying within a machine.
    pub local_bytes: Bytes,
    /// Bytes of surviving envelopes appended to shard buckets this
    /// round (an envelope folded into an earlier one at send appends
    /// nothing). 0 in a counted round — the last of a fixed-horizon
    /// program without a combiner — whose messages are counted and
    /// never stored. A host-work counter: no simulated figure reads it.
    pub shard_copy_bytes: Bytes,
    /// Vertices whose `compute` ran this round.
    pub active_vertices: u64,
    /// Peak memory used by the *busiest* machine during this round.
    pub peak_machine_memory: Bytes,
    /// Resident vertex-state bytes on the busiest machine this round.
    /// Exact for slab-backed programs (the slab's capacity); ledger-
    /// tracked otherwise.
    pub state_bytes: Bytes,
    /// Bytes streamed to disk by out-of-core execution this round.
    pub spilled_bytes: Bytes,
    /// Encoded bytes read back from the backing store by the partition
    /// pager this round (adjacency loads); zero on fully-resident runs.
    #[serde(default)]
    pub loaded_bytes: Bytes,
    /// Adjacency partitions loaded by the pager this round.
    #[serde(default)]
    pub partition_loads: u64,
    /// Peak decoded adjacency bytes resident in the busiest worker's
    /// partition cache this round (the measured replacement for the
    /// resident-graph memory estimate).
    #[serde(default)]
    pub paged_resident_bytes: Bytes,
    /// Simulated duration of this round as charged by the cost model.
    pub duration: SimTime,
    /// Time this round spent with the network at its bandwidth cap.
    pub network_overuse: SimTime,
    /// Time this round spent with the disk at 100% utilization.
    pub disk_overuse: SimTime,
    /// Time the disk was busy (≤ duration); utilization = busy/duration.
    pub disk_busy: SimTime,
    /// Average number of messages waiting in the disk I/O queue.
    pub io_queue_len: f64,
}

impl RoundStats {
    /// Disk utilization for the round, in `[0, 1]` (Section 4.4's metric).
    pub fn disk_utilization(&self) -> f64 {
        if self.duration.as_secs() <= 0.0 {
            0.0
        } else {
            (self.disk_busy.as_secs() / self.duration.as_secs()).min(1.0)
        }
    }

    /// Combining ratio: delivered / sent (1.0 when no combiner ran).
    pub fn combine_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

/// Aggregate statistics for a complete run (one batch, or a whole
/// multi-batch job when merged with [`RunStats::absorb`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    pub rounds: usize,
    pub total_messages_sent: u64,
    pub total_messages_delivered: u64,
    pub total_network_bytes: Bytes,
    /// Always zero: the engine no longer measures codec bytes. Kept
    /// because the benchmark reads it.
    pub total_encoded_wire_bytes: Bytes,
    /// Shard-bucket copy traffic across the run (see
    /// [`RoundStats::shard_copy_bytes`]).
    pub total_shard_copy_bytes: Bytes,
    pub total_spilled_bytes: Bytes,
    /// Measured pager traffic across the run (see
    /// [`RoundStats::loaded_bytes`] and friends).
    #[serde(default)]
    pub total_loaded_bytes: Bytes,
    #[serde(default)]
    pub total_partition_loads: u64,
    /// Always zero: the pager streams every partition every round.
    /// Kept because the benchmark reads it.
    #[serde(default)]
    pub total_partitions_skipped: u64,
    /// High-water mark of decoded partition-cache bytes (see
    /// [`RoundStats::paged_resident_bytes`]).
    #[serde(default)]
    pub peak_paged_resident_bytes: Bytes,
    pub peak_memory: Bytes,
    /// High-water mark of per-machine resident vertex-state bytes
    /// across the run (see [`RoundStats::state_bytes`]).
    pub peak_state_bytes: Bytes,
    pub total_time: SimTime,
    pub network_overuse: SimTime,
    pub disk_overuse: SimTime,
    pub max_disk_utilization: f64,
    pub max_io_queue_len: f64,
    /// Fault-injection and recovery accounting (all-zero on clean runs;
    /// replayed work is recorded here and *only* here, so the rest of
    /// the record matches a fault-free run bit for bit).
    pub faults: FaultStats,
    /// Per-round history; kept so the harness can print figure series.
    pub per_round: Vec<RoundStats>,
}

impl RunStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one round's measurements into the aggregate.
    pub fn record_round(&mut self, round: RoundStats) {
        self.rounds += 1;
        self.total_messages_sent += round.messages_sent;
        self.total_messages_delivered += round.messages_delivered;
        self.total_network_bytes += round.network_bytes;
        self.total_shard_copy_bytes += round.shard_copy_bytes;
        self.total_spilled_bytes += round.spilled_bytes;
        self.total_loaded_bytes += round.loaded_bytes;
        self.total_partition_loads += round.partition_loads;
        self.peak_paged_resident_bytes = self
            .peak_paged_resident_bytes
            .max(round.paged_resident_bytes);
        self.peak_memory = self.peak_memory.max(round.peak_machine_memory);
        self.peak_state_bytes = self.peak_state_bytes.max(round.state_bytes);
        self.total_time += round.duration;
        self.network_overuse += round.network_overuse;
        self.disk_overuse += round.disk_overuse;
        self.max_disk_utilization = self.max_disk_utilization.max(round.disk_utilization());
        self.max_io_queue_len = self.max_io_queue_len.max(round.io_queue_len);
        self.per_round.push(round);
    }

    /// Merge the stats of a subsequent batch into this job-level record.
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.total_messages_sent += other.total_messages_sent;
        self.total_messages_delivered += other.total_messages_delivered;
        self.total_network_bytes += other.total_network_bytes;
        self.total_encoded_wire_bytes += other.total_encoded_wire_bytes;
        self.total_shard_copy_bytes += other.total_shard_copy_bytes;
        self.total_spilled_bytes += other.total_spilled_bytes;
        self.total_loaded_bytes += other.total_loaded_bytes;
        self.total_partition_loads += other.total_partition_loads;
        self.total_partitions_skipped += other.total_partitions_skipped;
        self.peak_paged_resident_bytes = self
            .peak_paged_resident_bytes
            .max(other.peak_paged_resident_bytes);
        self.peak_memory = self.peak_memory.max(other.peak_memory);
        self.peak_state_bytes = self.peak_state_bytes.max(other.peak_state_bytes);
        self.total_time += other.total_time;
        self.network_overuse += other.network_overuse;
        self.disk_overuse += other.disk_overuse;
        self.max_disk_utilization = self.max_disk_utilization.max(other.max_disk_utilization);
        self.max_io_queue_len = self.max_io_queue_len.max(other.max_io_queue_len);
        self.faults.absorb(&other.faults);
        self.per_round.extend(other.per_round.iter().cloned());
    }

    /// Average number of messages *sent* per round — the paper's
    /// "message congestion" measure (Section 2.1).
    pub fn congestion(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_messages_sent as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(msgs: u64, dur: f64, mem: u64) -> RoundStats {
        RoundStats {
            messages_sent: msgs,
            messages_delivered: msgs,
            duration: SimTime::secs(dur),
            peak_machine_memory: Bytes(mem),
            ..RoundStats::default()
        }
    }

    #[test]
    fn record_round_accumulates() {
        let mut s = RunStats::new();
        s.record_round(round(100, 1.0, 50));
        s.record_round(round(300, 2.0, 80));
        assert_eq!(s.rounds, 2);
        assert_eq!(s.total_messages_sent, 400);
        assert_eq!(s.peak_memory, Bytes(80));
        assert_eq!(s.total_time.as_secs(), 3.0);
        assert_eq!(s.congestion(), 200.0);
    }

    #[test]
    fn absorb_merges_batches() {
        let mut a = RunStats::new();
        a.record_round(round(10, 1.0, 5));
        let mut b = RunStats::new();
        b.record_round(round(20, 4.0, 9));
        b.record_round(round(30, 1.0, 2));
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.total_messages_sent, 60);
        assert_eq!(a.peak_memory, Bytes(9));
        assert_eq!(a.total_time.as_secs(), 6.0);
        assert_eq!(a.per_round.len(), 3);
    }

    #[test]
    fn pager_counters_sum_and_peak() {
        let mut s = RunStats::new();
        s.record_round(RoundStats {
            loaded_bytes: Bytes(100),
            partition_loads: 4,
            paged_resident_bytes: Bytes(700),
            ..RoundStats::default()
        });
        s.record_round(RoundStats {
            loaded_bytes: Bytes(50),
            partition_loads: 2,
            paged_resident_bytes: Bytes(300),
            ..RoundStats::default()
        });
        assert_eq!(s.total_loaded_bytes, Bytes(150));
        assert_eq!(s.total_partition_loads, 6);
        assert_eq!(s.peak_paged_resident_bytes, Bytes(700));
        let mut merged = RunStats::new();
        merged.absorb(&s);
        merged.absorb(&s);
        assert_eq!(merged.total_loaded_bytes, Bytes(300));
        assert_eq!(merged.peak_paged_resident_bytes, Bytes(700));
    }

    #[test]
    fn disk_utilization_bounded() {
        let r = RoundStats {
            duration: SimTime::secs(2.0),
            disk_busy: SimTime::secs(5.0),
            ..RoundStats::default()
        };
        assert_eq!(r.disk_utilization(), 1.0);
        let idle = RoundStats::default();
        assert_eq!(idle.disk_utilization(), 0.0);
    }

    #[test]
    fn combine_ratio_handles_zero() {
        let r = RoundStats::default();
        assert_eq!(r.combine_ratio(), 1.0);
        let r = RoundStats {
            messages_sent: 100,
            messages_delivered: 25,
            ..RoundStats::default()
        };
        assert_eq!(r.combine_ratio(), 0.25);
    }

    #[test]
    fn congestion_empty_run_is_zero() {
        assert_eq!(RunStats::new().congestion(), 0.0);
    }
}
