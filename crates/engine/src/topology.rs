//! The immutable half of a [`Runner`](crate::Runner): everything
//! derived from the graph, the partition and the system profile alone.
//!
//! Building it walks every vertex (local-index maps, mirror detection,
//! adjacency byte counts) and, on the out-of-core path, encodes the
//! whole adjacency to a backing store — work proportional to the graph,
//! not to a batch. A job therefore builds one [`Topology`] and every
//! batch's runner borrows it ([`Runner::for_batch`](crate::Runner::for_batch));
//! [`Runner::with_partition`](crate::Runner::with_partition) is the
//! stand-alone form that builds one and uses it.

use crate::mirror::MirrorIndex;
use crate::paging::PagedLayout;
use crate::profile::{ExecutionMode, SystemProfile};
use crate::router::LocalIndex;
use mtvc_graph::partition::Partition;
use mtvc_graph::Graph;

/// A graph's partition together with the indexes the round loop reads
/// every round. Read-only once built, so batches — concurrent ones
/// included — share it freely: pagers made from the shared
/// [`PagedLayout`] only read its adjacency partitions.
#[derive(Debug)]
pub struct Topology {
    pub(crate) partition: Partition,
    /// Vertex ↔ (worker, local index) addressing, shared by the compute
    /// phase (state vectors, inbox runs) and the routing pipeline
    /// (shard histograms, grouped merge).
    pub(crate) locals: LocalIndex,
    pub(crate) mirrors: Option<MirrorIndex>,
    /// Adjacency bytes per worker (resident unless streamed).
    pub(crate) graph_bytes: Vec<u64>,
    /// The real out-of-core layout: adjacency partitioned, encoded, and
    /// written to a backing store. Present iff the profile carries an
    /// [`OocConfig`](crate::profile::OocConfig) with a `paging` config
    /// and the mode is point-to-point; each run then streams partitions
    /// through budget-bounded per-worker caches and the demand assembly
    /// uses *measured* load bytes instead of the resident-graph
    /// estimate.
    pub(crate) paged: Option<PagedLayout>,
}

impl Topology {
    /// Index `partition` of `graph` for execution under `profile` (its
    /// execution mode decides mirroring, its out-of-core config paging).
    pub fn build(graph: &Graph, partition: Partition, profile: &SystemProfile) -> Topology {
        assert_eq!(partition.num_vertices(), graph.num_vertices());
        let mirrors = match profile.mode {
            ExecutionMode::Broadcast { mirror_threshold } => {
                Some(MirrorIndex::build(graph, &partition, mirror_threshold))
            }
            ExecutionMode::PointToPoint => None,
        };
        let locals = LocalIndex::build(&partition);
        let weighted = graph.is_weighted();
        let graph_bytes = locals
            .worker_vertices()
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&v| 16 + graph.degree(v) as u64 * if weighted { 8 } else { 4 })
                    .sum()
            })
            .collect();
        // Broadcast mode reads mirror adjacency during routing, so the
        // paged path (which serves neighbors from decoded chunks) is
        // restricted to point-to-point profiles; anything else keeps
        // the demand-based estimate.
        let paged = match (&mirrors, profile.out_of_core.and_then(|o| o.paging)) {
            (None, Some(pcfg)) => Some(PagedLayout::build(graph, locals.worker_vertices(), pcfg)),
            _ => None,
        };
        Topology {
            partition,
            locals,
            mirrors,
            graph_bytes,
            paged,
        }
    }
}
