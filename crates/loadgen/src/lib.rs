//! `mtvc-loadgen` — deterministic open-loop workload generation for
//! the online task service.
//!
//! The serving experiments need traffic that looks like production:
//! a heavy-tailed tenant population (a few tenants dominate), arrival
//! rates that breathe with a diurnal cycle and spike in correlated
//! bursts, and a mix of task shapes and SLO classes. This crate
//! synthesises such traffic *reproducibly* — every trace is a pure
//! function of a [`Scenario`] and a 64-bit seed — and replays it
//! against a [`TaskService`](mtvc_serve::TaskService) open-loop: the
//! generator never slows down because the service is struggling, which
//! is exactly what makes saturation visible.
//!
//! # Pipeline
//!
//! ```text
//! Scenario ──generate(seed)──▶ Trace ──drive()──▶ TaskService
//!  (tenants, rates,             (sorted arrival     (open-loop replay;
//!   burstiness, task mix)        events)             Full ⇒ load shed)
//! ```
//!
//! * [`Zipf`] — O(1) approximate Zipf sampler over millions of ranks
//!   (analytic inverse CDF, no per-rank tables).
//! * [`Scenario`] — the workload description: tenant population,
//!   diurnal cycle, burst episodes, shape/class mix.
//! * [`Trace`] / [`generate`] — materialised arrival events, with a
//!   [`Trace::fingerprint`] for determinism checks.
//! * [`drive()`] — open-loop replay; [`DriveReport`] counts sheds
//!   (queue-full refusals) per class instead of silently retrying.

#![deny(missing_docs)]

pub mod drive;
pub mod scenario;
pub mod trace;
pub mod zipf;

pub use drive::{drive, DriveCfg, DriveReport};
pub use scenario::{BurstSpec, ClassMix, DiurnalSpec, Scenario, ShapeMix};
pub use trace::{generate, Trace, TraceEvent};
pub use zipf::Zipf;
