//! Benchmark vertex programs (§2.3 and §3 of the paper).
//!
//! Three multi-processing benchmark tasks, each in the Pregel
//! (point-to-point) form and, where the paper defines one, the
//! Pregel-Mirror (broadcast) form:
//!
//! * **BPPR** — batch personalized PageRank via α-decay random walks
//!   ([`bppr::BpprSlabProgram`]) and the generalized fractional-walk /
//!   forward-push variant for the broadcast interface
//!   ([`bppr::BpprPushSlabProgram`]).
//! * **MSSP** — multi-source shortest path distances
//!   ([`mssp::MsspSlabProgram`], [`mssp::MsspLaneSlabProgram`],
//!   [`mssp::MsspBroadcastSlabProgram`]).
//! * **BKHS** — batch k-hop search ([`bkhs::BkhsSlabProgram`],
//!   [`bkhs::BkhsLaneSlabProgram`], [`bkhs::BkhsBroadcastSlabProgram`]).
//!
//! Every program is a slab program: per-batch state lives in a
//! [`mtvc_engine::StateSlab`] row per vertex, with frontier-driven
//! compute and a dense, per-run state charge. Results are checked
//! against the sequential references, not against a second layout.
//! Source-based tasks share a once-per-job [`sources::SourceIndex`]
//! that batches slice instead of rebuilding.
//!
//! Plus classic **PageRank** ([`pagerank::PageRankProgram`]) used by the
//! §4.8 sync-vs-async comparison (Table 4), **Connected Components**
//! ([`cc::ConnectedComponentsProgram`]) — §2.4's example of a task that
//! *does* admit a Practical Pregel Algorithm — and exact sequential
//! references ([`mod@reference`]) the engine implementations are validated
//! against.

pub mod bkhs;
pub mod bppr;
pub mod cc;
pub mod mssp;
pub mod pagerank;
pub mod reference;
pub mod sources;

/// Re-export of the engine's samplers (historically hosted here).
pub mod sampling {
    pub use mtvc_engine::sampling::*;
}

pub use bkhs::{BkhsBroadcastSlabProgram, BkhsLaneSlabProgram, BkhsSlabProgram, ReachLanesMsg};
pub use bppr::{BpprPushSlabProgram, BpprSlabProgram, PushCell, SourceSet};
pub use cc::ConnectedComponentsProgram;
pub use mssp::{
    lane_distances_fit, DistLanesMsg, DistMsg, MsspBroadcastSlabProgram, MsspLaneSlabProgram,
    MsspSlabProgram,
};
pub use pagerank::PageRankProgram;
pub use sources::SourceIndex;
