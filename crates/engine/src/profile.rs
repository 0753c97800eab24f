//! System behaviour profiles.
//!
//! A [`SystemProfile`] captures everything that distinguishes one of the
//! paper's seven evaluated systems from another, as orthogonal knobs
//! consumed by the engine and cost model. The `mtvc-systems` crate
//! provides the seven concrete presets; this module defines the axes.

use crate::router::RoutePolicy;
use mtvc_metrics::Bytes;
use serde::{Deserialize, Serialize};

/// How messages are addressed (§2.2, §3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Plain Pregel point-to-point sends.
    PointToPoint,
    /// Pregel+(mirror): only a broadcast interface is available, and
    /// vertices with degree above the threshold are mirrored — one wire
    /// message per remote worker hosting neighbors instead of one per
    /// neighbor.
    Broadcast {
        /// Degree above which a vertex is mirrored.
        mirror_threshold: usize,
    },
}

impl ExecutionMode {
    pub fn is_broadcast(self) -> bool {
        matches!(self, ExecutionMode::Broadcast { .. })
    }
}

/// Synchronization discipline (§4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncMode {
    /// BSP barrier at the end of every round.
    Synchronous,
    /// No barrier; vertices fire when inputs are ready. Modeled as
    /// barrier-free rounds with distributed-lock contention and eager
    /// (uncombined) message dispatch.
    Asynchronous,
    /// Giraph(async): message receiving/processing decoupled into
    /// separate threads, but rounds still synchronize. Modeled as a
    /// reduced-cost barrier with slightly cheaper per-message handling.
    PartialAsync,
}

/// Out-of-core execution parameters (GraphD, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OocConfig {
    /// In-memory message budget per machine; message bytes beyond this
    /// spill to disk ("writes excessive messages whose total size is
    /// greater than a predefined memory budget").
    pub message_budget: Bytes,
    /// Adjacency paging: partitioned onto a backing store and moved
    /// through a bounded cache, with every load/evict byte measured —
    /// GraphD's distributed semi-streaming model keeps only vertex
    /// state resident.
    pub paging: PagingConfig,
}

/// Configuration of the real adjacency paging path. Every round streams
/// every partition in local-index order — GraphD's semi-streaming full
/// edge pass (§2.2) — through a least-recently-used cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PagingConfig {
    /// Decoded-byte budget of the per-worker partition cache. The
    /// pager never holds more than this resident (beyond a single
    /// pinned in-use partition) and the ledger charges the measured
    /// peak.
    pub budget: Bytes,
    /// Target encoded bytes per adjacency partition.
    pub partition_bytes: Bytes,
}

impl PagingConfig {
    /// Paging under `budget`: partitions of a quarter of the budget.
    /// GraphD's profile and the benchmark's decode probe build their
    /// configs with this.
    pub fn with_budget(budget: Bytes) -> PagingConfig {
        PagingConfig {
            budget,
            partition_bytes: Bytes::new(budget.get().div_ceil(4).max(1)),
        }
    }
}

/// Complete behavioural description of a VC-system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemProfile {
    /// Display name ("Pregel+", "Giraph(async)", …).
    pub name: String,
    /// CPU cost multiplier of the implementation language/runtime
    /// (JVM systems pay more per message than C++/MPI systems).
    pub lang_cpu_factor: f64,
    /// Memory overhead multiplier on message buffers (JVM object
    /// headers and boxing vs flat C++ buffers; Facebook's Giraph work
    /// (§2.2) reduced exactly this overhead by serializing messages).
    pub mem_overhead_factor: f64,
    /// Memory overhead multiplier on the resident adjacency structures
    /// (JVM systems store edges as objects unless serialized).
    pub graph_mem_factor: f64,
    /// Whether the engine runs the task's combiner before delivery.
    pub combiner: bool,
    /// Message addressing mode.
    pub mode: ExecutionMode,
    /// Synchronization discipline.
    pub sync: SyncMode,
    /// Out-of-core execution (None = fully in-memory).
    pub out_of_core: Option<OocConfig>,
    /// Abstract CPU operations to handle one wire message.
    pub per_msg_ops: f64,
    /// Abstract CPU operations to activate one vertex.
    pub per_vertex_ops: f64,
}

impl SystemProfile {
    /// A neutral C++-like synchronous in-memory profile, the base the
    /// `mtvc-systems` presets derive from.
    pub fn base(name: impl Into<String>) -> SystemProfile {
        SystemProfile {
            name: name.into(),
            lang_cpu_factor: 1.0,
            mem_overhead_factor: 1.0,
            graph_mem_factor: 1.0,
            combiner: false,
            mode: ExecutionMode::PointToPoint,
            sync: SyncMode::Synchronous,
            out_of_core: None,
            per_msg_ops: 1.0,
            per_vertex_ops: 2.0,
        }
    }

    /// The routing-pipeline policy this profile implies. Every profile
    /// routes the same way, so this is always the field-less
    /// [`RoutePolicy`]; the method and its unused argument stay only
    /// because the benchmark calls `route_policy(false)`.
    pub fn route_policy(&self, _faults_armed: bool) -> RoutePolicy {
        RoutePolicy
    }

    /// True when rounds end with a synchronization barrier.
    pub fn has_barrier(&self) -> bool {
        !matches!(self.sync, SyncMode::Asynchronous)
    }

    /// Barrier cost scale: PartialAsync overlaps receive/process
    /// threads and pays a reduced barrier.
    pub fn barrier_scale(&self) -> f64 {
        match self.sync {
            SyncMode::Synchronous => 1.0,
            SyncMode::PartialAsync => 0.6,
            SyncMode::Asynchronous => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_profile_is_neutral() {
        let p = SystemProfile::base("test");
        assert_eq!(p.lang_cpu_factor, 1.0);
        assert!(!p.combiner);
        assert!(p.has_barrier());
        assert_eq!(p.barrier_scale(), 1.0);
    }

    #[test]
    fn async_has_no_barrier() {
        let mut p = SystemProfile::base("a");
        p.sync = SyncMode::Asynchronous;
        assert!(!p.has_barrier());
        assert_eq!(p.barrier_scale(), 0.0);
    }

    #[test]
    fn partial_async_reduced_barrier() {
        let mut p = SystemProfile::base("g");
        p.sync = SyncMode::PartialAsync;
        assert!(p.has_barrier());
        assert!(p.barrier_scale() < 1.0 && p.barrier_scale() > 0.0);
    }

    #[test]
    fn broadcast_mode_detection() {
        assert!(!ExecutionMode::PointToPoint.is_broadcast());
        assert!(ExecutionMode::Broadcast {
            mirror_threshold: 64
        }
        .is_broadcast());
    }
}
