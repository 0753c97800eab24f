//! Open-loop trace replay against a running [`TaskService`].
//!
//! *Open-loop* is the defining property: submissions happen at the
//! trace's timestamps no matter how the service is coping. A
//! closed-loop driver (wait for a completion before the next submit)
//! self-throttles and hides saturation; an open-loop one exposes it —
//! the queue fills, [`SubmitError::Full`] comes back, and the driver
//! counts the request as **shed** rather than retrying it. Shed volume
//! at a given offered load is the honest saturation signal the bench
//! harness sweeps for.

use crate::trace::Trace;
use mtvc_serve::{SubmitError, TaskService};
use std::time::{Duration, Instant};

/// Replay knobs.
#[derive(Debug, Clone, Copy)]
pub struct DriveCfg {
    /// Multiplier on every event timestamp: 1.0 replays in real time,
    /// 0.5 twice as fast (doubling the offered rate), 0 as fast as
    /// the submit path allows.
    pub time_scale: f64,
}

impl Default for DriveCfg {
    fn default() -> DriveCfg {
        DriveCfg { time_scale: 1.0 }
    }
}

impl DriveCfg {
    /// Replay with timestamps scaled by `time_scale`.
    pub fn with_time_scale(mut self, scale: f64) -> DriveCfg {
        assert!(scale.is_finite() && scale >= 0.0);
        self.time_scale = scale;
        self
    }
}

/// What the replay did, from the submitter's side. The service's own
/// [`ServiceReport`](mtvc_serve::ServiceReport) holds the completion
/// side (latencies, outcomes, per-class breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveReport {
    /// Requests accepted by the service.
    pub submitted: u64,
    /// Requests shed because the queue was full — the open-loop
    /// driver does NOT retry these; they are lost offered load.
    pub shed: u64,
    /// Sheds per SLO class, indexed by
    /// [`SloClass::index`](mtvc_serve::SloClass::index).
    pub shed_by_class: [u64; 3],
    /// Requests refused for any other reason (closed, unregistered
    /// shape, zero workload).
    pub refused: u64,
    /// Wall-clock time the replay took.
    pub wall: Duration,
    /// Submissions that fell behind their scaled timestamp by the
    /// time the submit call returned (the driver itself saturating —
    /// if this is large relative to `submitted`, scale the trace
    /// down before trusting the numbers).
    pub late: u64,
}

impl DriveReport {
    /// Offered requests: everything the trace asked to submit.
    pub fn offered(&self) -> u64 {
        self.submitted + self.shed + self.refused
    }
}

/// Replay `trace` against `svc` open-loop. Returns once every event
/// has been offered; completions keep draining inside the service
/// (shut it down to collect them).
pub fn drive(svc: &TaskService, trace: &Trace, cfg: DriveCfg) -> DriveReport {
    let start = Instant::now();
    let mut report = DriveReport::default();
    for event in &trace.events {
        let target = event.at.mul_f64(cfg.time_scale);
        let now = start.elapsed();
        if target > now {
            std::thread::sleep(target - now);
        }
        match svc.try_submit(event.request()) {
            Ok(_ticket) => report.submitted += 1,
            Err(SubmitError::Full) => {
                report.shed += 1;
                report.shed_by_class[event.class.index()] += 1;
            }
            Err(_) => report.refused += 1,
        }
        if start.elapsed() > target + Duration::from_millis(50) {
            report.late += 1;
        }
    }
    report.wall = start.elapsed();
    report
}
