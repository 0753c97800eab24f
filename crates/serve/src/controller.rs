//! Batch sizing for the SLO-aware scheduler.
//!
//! Batch width trades inter-task against intra-task parallelism (the
//! tension the multi-task literature keeps rediscovering): wide batches
//! amortise superstep overhead (the paper's core effect) but serialise
//! behind each other; narrow batches keep more workers busy
//! concurrently. The other lever, whether a batch's rounds fan out to
//! the engine's worker pool, is not the controller's: the engine
//! decides it per round from the round's traffic, and a round whose
//! pool another batch holds runs inline.
//!
//! [`JointController`] sizes batches from the observed queue depth: a
//! **deep** queue means latency is dominated by waiting, so it forms
//! *more, smaller* concurrent batches (cap ≈ headroom / workers); a
//! **shallow** queue means the cluster is under-committed, so it forms
//! one wide batch. Between the two extremes it interpolates linearly in
//! the queue occupancy.
//!
//! Independently, when the head request carries a deadline and the
//! [`OnlineLatencyModel`] has a fit, the controller caps the batch at
//! the largest workload the model predicts can finish inside a
//! fixed fraction of the remaining slack — EDF ordering gets the
//! urgent request into the *next* batch, this cap keeps that batch
//! small enough to land in time.
//!
//! Every decision is a pure function of its inputs; for a fixed input
//! sequence the controller is bit-deterministic (property-tested).

use mtvc_tune::OnlineLatencyModel;
use std::time::Duration;

/// Which scheduler the service runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// PR-1 behaviour: plain DRR rotation, class-blind quanta, batches
    /// always sized to the full admissible headroom.
    #[default]
    BaselineDrr,
    /// EDF-within-DRR ordering, class-weighted quanta, and the
    /// [`JointController`] sizing batches.
    SloAware,
}

/// Queue depth (requests) treated as fully "deep"; occupancy is
/// `depth / DEEP_DEPTH`, clamped to 1.
const DEEP_DEPTH: usize = 64;

/// Occupancy at or above which a decision counts as narrowed.
const NARROW_OCCUPANCY: f64 = 0.5;

/// Fraction of the head request's remaining deadline slack the latency
/// model may budget for its carrying batch.
const SLACK_FRACTION: f64 = 0.5;

/// Counters describing what the controller actually did, folded into
/// the service report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Decisions taken.
    pub decisions: u64,
    /// Decisions taken at or above half occupancy (deep queue). A
    /// count of queue states only: the controller no longer steers the
    /// engine's parallelism, which each round picks for itself.
    pub narrowed: u64,
    /// Decisions taken below half occupancy (shallow queue); a count
    /// of queue states only, like `narrowed`.
    pub widened: u64,
    /// Decisions where the latency model's deadline cap bound the
    /// batch below the occupancy-interpolated size.
    pub deadline_capped: u64,
}

/// The batch-sizing controller. Cheap and lock-free on its own; the
/// caller serialises access (the batch former is the only consumer).
#[derive(Debug)]
pub struct JointController {
    /// Worker threads the narrow end divides the headroom across.
    workers: usize,
    stats: ControllerStats,
}

impl JointController {
    /// A controller for `workers` worker threads, with zeroed counters.
    pub fn new(workers: usize) -> JointController {
        JointController {
            workers: workers.max(1),
            stats: ControllerStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Size the next batch: its workload cap. `depth` is the current
    /// queue depth in requests, `w_max` the admissible headroom in
    /// workload units, `head_slack` the remaining deadline slack of the
    /// head request (`None` when deadline-free), and `model` the
    /// latency model for the batch's shape.
    ///
    /// The returned cap is in `[1, w_max]`; the *caller* must still
    /// raise it to the head request's workload when that is larger —
    /// otherwise a head wider than the cap would never be taken and
    /// the former would spin.
    pub fn decide(
        &mut self,
        depth: usize,
        w_max: u64,
        head_slack: Option<Duration>,
        model: &OnlineLatencyModel,
    ) -> u64 {
        self.stats.decisions += 1;
        let occupancy = (depth as f64 / DEEP_DEPTH as f64).min(1.0);
        // Interpolate the cap between the wide end (all headroom in
        // one batch) and the narrow end (headroom split across the
        // worker pool).
        let narrow = (w_max / self.workers as u64).max(1);
        let span = w_max.saturating_sub(narrow) as f64;
        let mut cap = w_max.saturating_sub((span * occupancy).round() as u64);

        // Deadline sizing: bound the batch to what the model predicts
        // finishes within the budgeted slice of the head's slack.
        if let Some(slack) = head_slack {
            let budget = slack.as_secs_f64() * SLACK_FRACTION;
            if let Some(w) = model.invert(budget) {
                if w < cap {
                    cap = w;
                    self.stats.deadline_capped += 1;
                }
            }
        }

        if occupancy >= NARROW_OCCUPANCY {
            self.stats.narrowed += 1;
        } else {
            self.stats.widened += 1;
        }
        cap.clamp(1, w_max.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted_model() -> OnlineLatencyModel {
        let mut m = OnlineLatencyModel::new();
        // latency ≈ 0.1 + 0.01 · w
        for w in (1..=32u64).map(|i| i * 4) {
            m.observe(w, 0.1 + 0.01 * w as f64);
        }
        m
    }

    #[test]
    fn shallow_queue_goes_wide_and_full() {
        let mut c = JointController::new(4);
        let d = c.decide(0, 1000, None, &OnlineLatencyModel::new());
        assert_eq!(d, 1000);
        assert_eq!(c.stats().widened, 1);
    }

    #[test]
    fn deep_queue_splits_headroom_and_goes_serial() {
        let mut c = JointController::new(4);
        let d = c.decide(500, 1000, None, &OnlineLatencyModel::new());
        assert_eq!(d, 250); // w_max / workers
        assert_eq!(c.stats().narrowed, 1);
    }

    #[test]
    fn occupancy_interpolates_between_extremes() {
        let mut c = JointController::new(4);
        let d = c.decide(32, 1000, None, &OnlineLatencyModel::new());
        // Half occupancy: halfway between 1000 and 250.
        assert_eq!(d, 625);
    }

    #[test]
    fn deadline_cap_binds_when_model_is_fitted() {
        let mut c = JointController::new(2);
        let model = fitted_model();
        // Slack 0.4 s, half budgeted → 0.2 s → w ≈ (0.2 − 0.1)/0.01 = 10.
        let d = c.decide(0, 1000, Some(Duration::from_millis(400)), &model);
        assert!(d <= 12, "cap {} not deadline-bound", d);
        assert!(d >= 1);
        assert_eq!(c.stats().deadline_capped, 1);
    }

    #[test]
    fn unfitted_model_never_caps() {
        let mut c = JointController::new(2);
        let d = c.decide(
            0,
            800,
            Some(Duration::from_millis(1)),
            &OnlineLatencyModel::new(),
        );
        assert_eq!(d, 800);
        assert_eq!(c.stats().deadline_capped, 0);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut c = JointController::new(3);
            let model = fitted_model();
            (0..50)
                .map(|i| {
                    c.decide(
                        (i * 7) % 97,
                        64 + (i as u64 * 13) % 512,
                        if i % 3 == 0 {
                            Some(Duration::from_millis(50 + i as u64))
                        } else {
                            None
                        },
                        &model,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
