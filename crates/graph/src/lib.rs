//! Graph substrate for the `mtvc` workspace.
//!
//! Provides the in-memory compressed-sparse-row graph the engine executes
//! over, builders from edge lists, deterministic synthetic generators,
//! *paper-dataset presets* (scaled-down stand-ins for the six SNAP graphs
//! the paper evaluates — see DESIGN.md §2 for the substitution argument),
//! vertex partitioners matching the evaluated systems' defaults, degree
//! statistics, and single-machine reference algorithms used to validate
//! the distributed engine.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod hash;
pub mod ooc;
pub mod partition;
pub mod reference;
pub mod stats;
pub mod varint;

pub use builder::GraphBuilder;
pub use csr::{Graph, VertexId};
pub use datasets::{Dataset, DatasetInfo};
pub use ooc::{DecodedChunk, MemStore, PartitionMeta, PartitionedAdjacency};
pub use partition::{HashPartitioner, Partition, Partitioner, RangePartitioner};
pub use stats::DegreeStats;
