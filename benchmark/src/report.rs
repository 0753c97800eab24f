//! What one run of one workload reports, and how it is printed.

use crate::catalog::{MetricSpec, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 where the value is a count).
    pub samples: u64,
}

/// Result of one run of one workload, traced or not.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted (batches or requests) and those that ended
    /// in an error the workload does not provoke on purpose.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness or validity checks that did not hold.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// An outcome holding every metric its kind of run must report
    /// (end-to-end untraced, per-layer traced), each at 0 until `set`.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Outcome {
        let blank = |m: &MetricSpec| Metric {
            name: m.name,
            unit: m.unit,
            value: 0.0,
            samples: 0,
        };
        let metrics = if traced {
            PER_LAYER.iter().map(blank).collect()
        } else {
            END_TO_END.iter().map(|(m, _)| blank(m)).collect()
        };
        Outcome {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            metrics,
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record a metric of the catalog; `samples` is 0 for counts.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog for this kind of run"));
        m.value = value;
        m.samples = samples;
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let mode = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(
            s,
            "== {} (seed {}, {mode}): {} attempted, {} failed",
            self.workload, self.seed, self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = write!(s, "  {:<38} {:>16} {}", m.name, fmt_value(m.value), m.unit);
            if m.samples > 0 {
                let _ = write!(s, "  (n={})", m.samples);
            }
            s.push('\n');
        }
        for v in &self.violations {
            let _ = writeln!(s, "  CHECK FAILED: {v}");
        }
        s
    }

    /// The one-line JSON object the driver reads: `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn driver_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }

    /// The line a result file holds for this run (`compare` reads it):
    /// the driver's fields after the run's identity.
    pub fn record_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, {}}}",
            self.workload,
            self.seed,
            self.traced,
            self.json_fields()
        )
    }

    fn json_fields(&self) -> String {
        let mut s = format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit measured; JSON has no NaN or
/// infinity, so those become 0 (a check elsewhere reports them).
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_json_has_exactly_the_contract_keys() {
        let mut o = Outcome::new("w", 3, false);
        o.attempted = 10;
        o.set("latency_ms", 1.25, 7);
        o.set("goodput_tasks_per_s", 8.0, 7);
        o.set("peak_alloc_mb", 2.0, 0);
        o.set("setup_s", 0.5, 5);
        assert_eq!(
            o.driver_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"goodput_tasks_per_s\": {\"value\": 8, \"unit\": \"tasks/s\"}, \
             \"peak_alloc_mb\": {\"value\": 2, \"unit\": \"MiB\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(Outcome::new("w", 3, true).metrics.len(), PER_LAYER.len());
        o.check(false, || "boom".to_string());
        assert!(o.driver_json().starts_with("{\"correct\": false"));
        assert_eq!(fmt_value(f64::NAN), "0");
    }
}
