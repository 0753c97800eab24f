//! Log-bucketed latency histograms for the serving layer.
//!
//! The offline pipeline reports single numbers per run; an online
//! service needs distributions — p50/p95/p99 queue wait, service time,
//! and end-to-end latency. [`Histogram`] is an HDR-style base-2
//! histogram with 16 sub-buckets per octave: ~6% relative error per
//! bucket, fixed 1 KiB footprint, O(1) record, mergeable across
//! threads.

use serde::{Deserialize, Serialize};

const SUBBUCKET_BITS: u32 = 4;
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS; // 16 per octave
const OCTAVES: u32 = 64 - SUBBUCKET_BITS; // value range: full u64
const NUM_BUCKETS: usize = (SUBBUCKETS as usize) * (OCTAVES as usize + 1);

/// A fixed-size log-bucketed histogram over `u64` samples
/// (conventionally microseconds for latencies, but unit-agnostic).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUBBUCKET_BITS
    let shift = octave - SUBBUCKET_BITS;
    let sub = ((v >> shift) - SUBBUCKETS) as usize; // 0..16
    ((octave - SUBBUCKET_BITS + 1) as usize) * SUBBUCKETS as usize + sub
}

/// Representative (upper-bound) value of a bucket.
fn bucket_value(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBBUCKETS {
        return i;
    }
    let octave = (i / SUBBUCKETS - 1) as u32 + SUBBUCKET_BITS;
    let sub = i % SUBBUCKETS;
    let base = 1u64 << octave;
    let step = 1u64 << (octave - SUBBUCKET_BITS);
    base + (sub + 1) * step - 1
}

impl Histogram {
    /// Worst-case relative overestimate of [`Histogram::quantile`] due
    /// to bucketing: a sample in octave `[2^k, 2^(k+1))` lands in a
    /// sub-bucket of width `2^(k-4)`, and the reported value is the
    /// sub-bucket's upper bound, so the overestimate is strictly less
    /// than one sub-bucket width — `2^(k-4) / 2^k = 1/16` of the value.
    /// Values below 16 are exact. (Quantiles additionally inherit rank
    /// granularity: with `n` samples the returned order statistic is
    /// exact to within one sample's rank, so `p999` needs `n ≳ 1000`
    /// before the bucket bound is the dominant error.)
    pub const MAX_QUANTILE_RELATIVE_ERROR: f64 = 1.0 / 16.0;

    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` — the smallest bucket upper
    /// bound covering `⌈q·count⌉` samples (0 when empty). Exact `min` /
    /// `max` are reported at the extremes.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for the three quantiles the demo tables print.
    pub fn p50_p95_p99(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Fold `other` into `self` (for per-thread histogram sharding).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.count(), 16);
    }

    #[test]
    fn quantiles_are_order_statistics_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(
                rel < 0.07,
                "q={q}: got {got}, want ~{expect} (rel {rel:.3})"
            );
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 20);
        }
        let mut last = 0;
        for i in 0..=20 {
            let v = h.quantile(i as f64 / 20.0);
            assert!(v >= last, "quantiles not monotone");
            last = v;
        }
    }

    #[test]
    fn merge_equals_recording_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
            c.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.quantile(0.5), c.quantile(0.5));
        assert_eq!(a.quantile(0.99), c.quantile(0.99));
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }
}
