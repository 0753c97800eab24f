//! `compare A B`: per (workload, metric) medians and quartiles of two
//! result files, B's change against A, and a verdict against the bound
//! `BENCHMARK.json` fixes for the metric.

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(workload, metric)` → values, one per run in the file.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Read a result file: one JSON object per line, as `run` appends them.
/// Runs whose checks failed are left out and counted.
pub fn read_results(text: &str) -> Result<(Samples, usize), String> {
    let mut samples = Samples::new();
    let mut incorrect = 0;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("line {}: no \"{key}\"", n + 1))
        };
        if field("correct")?.as_bool() != Some(true) {
            incorrect += 1;
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("line {}: \"workload\" is not a string", n + 1))?;
        let metrics = field("metrics")?
            .as_object()
            .ok_or_else(|| format!("line {}: \"metrics\" is not an object", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no numeric value", n + 1))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok((samples, incorrect))
}

/// What `BENCHMARK.json` says about a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub higher_is_better: bool,
    /// `None` for per-layer metrics: reported, never gated.
    pub bound: Option<f64>,
}

pub fn read_rules(manifest: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = json::parse(manifest)?;
    let mut rules = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        let items = v
            .get(list)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no \"{list}\" list"))?;
        for m in items {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("a \"{list}\" entry has no name"))?;
            rules.insert(
                name.to_string(),
                Rule {
                    higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(rules)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both spreads are too.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// A spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// Per-layer metric, or a side with too few runs: shown only.
    Reported,
}

/// B's median against A's, as a share of A's, positive when worse.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let Some(bound) = rule.bound else {
        return Verdict::Reported;
    };
    let (Some(sa), Some(sb)) = (spread_or_zero(a), spread_or_zero(b)) else {
        return Verdict::Reported;
    };
    if sa > bound || sb > bound {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), rule.higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Spread of a side; a constant zero metric has spread 0, a side with
/// fewer than two runs has none.
fn spread_or_zero(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    Some(spread(values).unwrap_or(0.0))
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:.4}", median(values)),
    }
}

/// The comparison table, and whether any gated metric regressed.
pub fn report(a: &Samples, b: &Samples, rules: &BTreeMap<String, Rule>) -> (String, bool) {
    let mut s = String::new();
    let mut regressed = false;
    let _ = writeln!(
        s,
        "{:<15} {:<34} {:>4} {:<36} {:>4} {:<36} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "A median [q1, q3]",
        "nB",
        "B median [q1, q3]",
        "worse",
        "bound"
    );
    for (key, va) in a {
        let Some(vb) = b.get(key) else { continue };
        let rule = rules.get(&key.1).copied().unwrap_or(Rule {
            higher_is_better: false,
            bound: None,
        });
        let v = verdict(va, vb, rule);
        regressed |= v == Verdict::Regressed;
        let worse = worsening(median(va), median(vb), rule.higher_is_better);
        let _ = writeln!(
            s,
            "{:<15} {:<34} {:>4} {:<36} {:>4} {:<36} {:>+7.1}% {:>6}  {}",
            key.0,
            key.1,
            va.len(),
            quartile_text(va),
            vb.len(),
            quartile_text(vb),
            worse * 100.0,
            rule.bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
                Verdict::Reported => "",
            }
        );
    }
    (s, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATED: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.1),
    };

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [115.0, 116.0, 114.0, 115.0, 115.5];
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&steady, &steady, GATED), Verdict::Ok);
        assert_eq!(verdict(&steady, &slower, GATED), Verdict::Regressed);
        assert_eq!(verdict(&slower, &steady, GATED), Verdict::Ok);
        assert_eq!(verdict(&steady, &noisy, GATED), Verdict::Unresolved);
        assert_eq!(verdict(&steady, &[100.0], GATED), Verdict::Reported);
        let ungated = Rule {
            higher_is_better: true,
            bound: None,
        };
        assert_eq!(verdict(&steady, &slower, ungated), Verdict::Reported);
        // A metric that is 0 on every run (unserved share at low load)
        // has no spread to divide; it still compares.
        assert_eq!(verdict(&[0.0; 4], &[0.0; 4], GATED), Verdict::Ok);
    }

    #[test]
    fn reads_result_lines_and_skips_failed_runs() {
        let text = "\
{\"workload\": \"w\", \"seed\": 1, \"traced\": false, \"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 2, \"unit\": \"s\"}}}\n\
\n\
{\"workload\": \"w\", \"seed\": 2, \"traced\": false, \"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 9, \"unit\": \"s\"}}}\n\
{\"workload\": \"w\", \"seed\": 3, \"traced\": false, \"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 4, \"unit\": \"s\"}}}\n";
        let (samples, incorrect) = read_results(text).unwrap();
        assert_eq!(incorrect, 1);
        assert_eq!(samples[&("w".to_string(), "m".to_string())], vec![2.0, 4.0]);
        assert!(read_results("{\"workload\": 3}").is_err());
    }

    #[test]
    fn rules_come_from_the_manifest() {
        let rules = read_rules(&crate::catalog::manifest()).unwrap();
        assert_eq!(
            rules["setup_s"],
            Rule {
                higher_is_better: false,
                bound: Some(0.25)
            }
        );
        assert!(rules["goodput_tasks_per_s"].higher_is_better);
        assert_eq!(rules["engine.rounds"].bound, None);
    }

    #[test]
    fn report_flags_a_regression() {
        let key = ("w".to_string(), "latency_ms".to_string());
        let a: Samples = [(key.clone(), vec![100.0, 101.0, 99.0])].into();
        let b: Samples = [(key, vec![150.0, 151.0, 149.0])].into();
        let rules = read_rules(&crate::catalog::manifest()).unwrap();
        let (text, regressed) = report(&a, &b, &rules);
        assert!(regressed);
        assert!(text.contains("REGRESSED"), "{text}");
    }
}
