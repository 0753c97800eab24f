//! Monetary cost accounting (§4.6).
//!
//! In the Docker cloud the credit cost is proportional to running time,
//! with the per-unit-time rate determined by the machine specification
//! (disk, memory, CPU). Overloaded runs are billed at the 6000 s cutoff
//! and reported as a lower bound with a `>` prefix, as in Figure 7.

use crate::topology::ClusterSpec;
use mtvc_metrics::{RunOutcome, OVERLOAD_CUTOFF};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// A credit amount, possibly a lower bound (overloaded run).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonetaryCost {
    pub credits: f64,
    /// True when at least one contributing run overloaded, making this
    /// a lower bound on the true cost.
    pub lower_bound: bool,
}

impl MonetaryCost {
    pub const ZERO: MonetaryCost = MonetaryCost {
        credits: 0.0,
        lower_bound: false,
    };

    /// Cost of one run on `cluster`: runtime × machines × rate. An
    /// overloaded run bills the cutoff duration and marks the result as
    /// a lower bound.
    pub fn of_run(outcome: RunOutcome, cluster: &ClusterSpec) -> MonetaryCost {
        let rate = cluster.machine.credit_rate * cluster.machines as f64;
        match outcome {
            RunOutcome::Completed(t) => MonetaryCost {
                credits: t.as_secs() * rate,
                lower_bound: false,
            },
            RunOutcome::Overload | RunOutcome::Overflow => MonetaryCost {
                credits: OVERLOAD_CUTOFF.as_secs() * rate,
                lower_bound: true,
            },
        }
    }
}

impl Add for MonetaryCost {
    type Output = MonetaryCost;
    fn add(self, rhs: MonetaryCost) -> MonetaryCost {
        MonetaryCost {
            credits: self.credits + rhs.credits,
            lower_bound: self.lower_bound || rhs.lower_bound,
        }
    }
}

impl Sum for MonetaryCost {
    fn sum<I: Iterator<Item = MonetaryCost>>(iter: I) -> MonetaryCost {
        iter.fold(MonetaryCost::ZERO, Add::add)
    }
}

impl fmt::Display for MonetaryCost {
    /// Renders like the paper's x-axis annotations: `$59` or `>$117`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lower_bound {
            write!(f, ">${:.0}", self.credits)
        } else {
            write!(f, "${:.0}", self.credits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_metrics::SimTime;

    fn cloud() -> ClusterSpec {
        ClusterSpec::docker32()
    }

    #[test]
    fn completed_run_billed_by_time() {
        let c = MonetaryCost::of_run(RunOutcome::Completed(SimTime::secs(1000.0)), &cloud());
        let expect = 1000.0 * cloud().machine.credit_rate * 32.0;
        assert!((c.credits - expect).abs() < 1e-9);
        assert!(!c.lower_bound);
    }

    #[test]
    fn overload_is_lower_bound_at_cutoff() {
        let c = MonetaryCost::of_run(RunOutcome::Overload, &cloud());
        let expect = 6000.0 * cloud().machine.credit_rate * 32.0;
        assert!((c.credits - expect).abs() < 1e-9);
        assert!(c.lower_bound);
        assert!(c.to_string().starts_with(">$"));
    }

    #[test]
    fn sum_propagates_lower_bound() {
        let a = MonetaryCost::of_run(RunOutcome::Completed(SimTime::secs(10.0)), &cloud());
        let b = MonetaryCost::of_run(RunOutcome::Overflow, &cloud());
        let total: MonetaryCost = [a, b].into_iter().sum();
        assert!(total.lower_bound);
        assert!(total.credits > b.credits);
    }

    #[test]
    fn local_clusters_are_free() {
        let c = MonetaryCost::of_run(
            RunOutcome::Completed(SimTime::secs(5000.0)),
            &ClusterSpec::galaxy8(),
        );
        assert_eq!(c.credits, 0.0);
    }

    #[test]
    fn display_rounds_to_whole_credits() {
        let c = MonetaryCost {
            credits: 59.4,
            lower_bound: false,
        };
        assert_eq!(c.to_string(), "$59");
    }
}
