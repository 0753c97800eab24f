//! The vertex-centric execution engine.
//!
//! Implements the "think like a vertex" model of Pregel (§2.1 of the
//! paper): computation proceeds in synchronous rounds; each round every
//! active vertex consumes the messages sent to it in the previous round,
//! updates local state, and emits messages. On top of the base BSP loop
//! the engine supports the behavioural axes that distinguish the seven
//! evaluated systems:
//!
//! * **combiners** (GraphLab(sync) merges same-source messages, §4.8),
//! * **mirroring / broadcast interface** (Pregel+(mirror), §2.2 & §3),
//! * **out-of-core spill + edge streaming** (GraphD, §2.2 & §4.4),
//! * **asynchronous execution** (no barrier, no combining, distributed
//!   lock contention — GraphLab(async), §4.8),
//! * **language overheads** (JVM vs C++ CPU and memory factors).
//!
//! The engine *really executes* the vertex programs (results are
//! checked against sequential references in `mtvc-tasks`), measures
//! exact per-round resource demand, and prices it through
//! [`mtvc_cluster::CostModel`] to obtain simulated running times.

pub mod message;
pub mod mirror;
pub mod paging;
pub mod pool;
pub mod profile;
pub mod program;
pub mod router;
pub mod runner;
pub mod sampling;
pub mod slab;
pub mod topology;
pub mod wire;

pub use message::{Delivery, Envelope, Message};
pub use mirror::MirrorIndex;
pub use paging::{PagedLayout, PagerSnapshot, WorkerPager};
pub use pool::WorkerPool;
pub use profile::{ExecutionMode, OocConfig, PagingConfig, SyncMode, SystemProfile};
pub use program::{Context, EmitSink, Outbox, PagedNeighbors, ProgramCore};
pub use router::{
    route, CountingOutbox, Inbox, LocalIndex, RouteGrid, RoutePolicy, RoutingStats, Run,
    ShardedOutbox,
};
pub use runner::{vertex_rng, BatchParams, EngineConfig, RunResult, Runner};
pub use slab::{PerSlab, SlabProgram, SlabRecycler, SlabRow, SlabRowMut, StateSlab, LANES};
pub use topology::Topology;
pub use wire::{PayloadCodec, WireError, FRAME_HEADER_BYTES};
