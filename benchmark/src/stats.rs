//! The harness's own arithmetic: medians, quartiles, percentiles and
//! the rule that picks which percentile a sample supports.

/// Sorted copy of `values` (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), because the acceptance rule for this benchmark is stated
/// in those terms. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // May be negative or exceed 4 at the clamped ends, as in Python.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median: the spread the
/// acceptance rule compares against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank quantile of an already sorted sample; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail latency may be quoted at, highest first, in
/// thousandths (integers, so "ten samples beyond" is exact).
const TAIL_CANDIDATES_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest candidate percentile with at least ten samples beyond
/// it, or `None` when the sample is too small even for the lowest.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES_PERMILLE
        .into_iter()
        .find(|pm| samples * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 1000.0)
}

/// A tail percentile of an already sorted sample: the `wanted` one when
/// the sample supports it, else the highest one it does support, else
/// the maximum. Returns the value and the percentile actually quoted.
pub fn tail_sorted(sorted: &[f64], wanted: f64) -> (f64, f64) {
    let q = supported_tail(sorted.len()).map_or(1.0, |s| s.min(wanted));
    (quantile_sorted(sorted, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_falls_back_when_the_sample_is_small() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_sorted(&big, 0.99), (1980.0, 0.99));
        let mid: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail_sorted(&mid, 0.99), (285.0, 0.95));
        let tiny = [1.0, 2.0, 3.0];
        assert_eq!(tail_sorted(&tiny, 0.99), (3.0, 1.0));
        assert_eq!(tail_sorted(&[], 0.99), (0.0, 1.0));
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(9_999), Some(0.99));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(39), None);
    }
}
