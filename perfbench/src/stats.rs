//! Order statistics over raw samples, over the benchmark's own latency
//! histograms, and over the serving runtime's sparse stage histograms.

use std::sync::atomic::{AtomicU32, Ordering};

use bitflow_telemetry::{HistBucket, StageSnapshot};

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolated linearly between
/// the two nearest order statistics (numpy's default). `0.0` when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + frac * (sorted[hi] - sorted[lo])
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-quantile of the samples in each `window_s`-second window, and
/// the median of those over the windows that hold a sample. `samples` are
/// `(at_s, value)`: when the sample was taken, seconds into the phase, and
/// its value. A few slow windows move the result by a rank, not by their
/// share of the samples.
pub fn windowed_quantile(samples: &[(f64, f64)], window_s: f64, p: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at_s, v) in samples {
        let i = (at_s / window_s).max(0.0) as usize;
        if windows.len() <= i {
            windows.resize_with(i + 1, Vec::new);
        }
        windows[i].push(v);
    }
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, p))
        .collect();
    median(&per)
}

/// Mean of the middle half of `values` (a quarter trimmed from each end,
/// rounded so that three values keep only the middle one): steady under
/// both outliers and a two-valued distribution.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = (sorted.len() + 2) / 4;
    let kept = if sorted.len() > 2 * trim {
        &sorted[trim..sorted.len() - trim]
    } else {
        &sorted[..]
    };
    mean(kept)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// log2 of the buckets per power of two in a [`Hist`]: 32, so a bucket
/// spans about 2% of its values.
const SUB_BITS: u32 = 5;
/// A [`Hist`] resolves values in `[2^MIN_EXP, 2^MAX_EXP)`; values outside
/// fall into its first or last bucket.
const MIN_EXP: i32 = -10;
const MAX_EXP: i32 = 22;
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;

/// A histogram of positive values with log-spaced buckets, recorded into
/// by many threads at once. Its size is fixed, so recording allocates
/// nothing: the memory the benchmark holds does not grow with the requests
/// a phase serves, and the resident set read after a phase measures the
/// program.
pub struct Hist {
    counts: Box<[AtomicU32]>,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

impl Hist {
    /// The bucket of `v`: the exponent and the top [`SUB_BITS`] mantissa
    /// bits of its `f64` encoding.
    fn bucket(v: f64) -> usize {
        let lo = f64::powi(2.0, MIN_EXP);
        if v.is_nan() || v < lo {
            return 0;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let sub = (bits >> (52 - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        let i = (((exp - i64::from(MIN_EXP)) << SUB_BITS) as u64 | sub) as usize;
        i.min(BUCKETS - 1)
    }

    /// Lower edge of bucket `i`.
    fn lower(i: usize) -> f64 {
        let exp = (i >> SUB_BITS) as i32 + MIN_EXP;
        let sub = (i & ((1 << SUB_BITS) - 1)) as f64;
        f64::powi(2.0, exp) * (1.0 + sub / f64::from(1u32 << SUB_BITS))
    }

    pub fn record(&self, v: f64) {
        self.counts[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn count_at(&self, i: usize) -> u64 {
        u64::from(self.counts[i].load(Ordering::Relaxed))
    }

    pub fn len(&self) -> u64 {
        (0..BUCKETS).map(|i| self.count_at(i)).sum()
    }

    /// The `p`-quantile of the values in `self`.
    pub fn quantile(&self, p: f64) -> f64 {
        hist_quantile(&[self], p)
    }

    /// How many values are at most `limit`; the bucket holding `limit`
    /// counts in proportion to the part of it below `limit`.
    pub fn count_le(&self, limit: f64) -> f64 {
        let edge = Self::bucket(limit);
        let below: u64 = (0..edge).map(|i| self.count_at(i)).sum();
        let (lo, hi) = (Self::lower(edge), Self::lower(edge + 1));
        let share = ((limit - lo) / (hi - lo)).clamp(0.0, 1.0);
        below as f64 + share * self.count_at(edge) as f64
    }
}

/// The `p`-quantile of the values of all `parts` together, placed linearly
/// inside its bucket by rank (the bucket's values are taken as evenly
/// spread). `0.0` when they are empty.
pub fn hist_quantile(parts: &[&Hist], p: f64) -> f64 {
    let count = |i: usize| parts.iter().map(|h| h.count_at(i)).sum::<u64>();
    let total: u64 = (0..BUCKETS).map(count).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (total - 1) as f64;
    let mut seen = 0u64;
    for i in 0..BUCKETS {
        let c = count(i);
        if c > 0 && rank < (seen + c) as f64 {
            let frac = (rank - seen as f64 + 0.5) / c as f64;
            let (lo, hi) = (Hist::lower(i), Hist::lower(i + 1));
            return lo + frac * (hi - lo);
        }
        seen += c;
    }
    Hist::lower(BUCKETS)
}

/// Bucket-wise difference `after − before` of one stage histogram: the
/// requests that passed the stage inside a measured window.
pub fn stage_delta(before: &StageSnapshot, after: &StageSnapshot) -> Vec<HistBucket> {
    after
        .buckets
        .iter()
        .map(|b| {
            let old = before
                .buckets
                .iter()
                .find(|o| o.le_ns == b.le_ns)
                .map_or(0, |o| o.count);
            HistBucket {
                le_ns: b.le_ns,
                count: b.count.saturating_sub(old),
            }
        })
        .filter(|b| b.count > 0)
        .collect()
}

/// Adds `more` into `acc`, bucket by bucket (for summing tenants).
pub fn merge_buckets(acc: &mut Vec<HistBucket>, more: &[HistBucket]) {
    for b in more {
        match acc.iter_mut().find(|a| a.le_ns == b.le_ns) {
            Some(a) => a.count += b.count,
            None => acc.push(*b),
        }
    }
    acc.sort_by_key(|b| b.le_ns);
}

/// The `p`-quantile of a sparse histogram, as the upper edge of the bucket
/// holding it, in microseconds. `0.0` when the histogram is empty.
pub fn bucket_quantile_us(buckets: &[HistBucket], p: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for b in buckets {
        seen += b.count;
        if seen >= rank {
            return b.le_ns as f64 / 1e3;
        }
    }
    buckets.last().map_or(0.0, |b| b.le_ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        // Windows 0, 2 and 4 hold samples, with p90s 9.1, 100 and 10;
        // windows 1 and 3 are empty and skipped.
        let mut samples: Vec<(f64, f64)> = (1..=10)
            .map(|i| (0.05 * f64::from(i), f64::from(i)))
            .collect();
        samples.extend((0..10).map(|i| (2.0 + 0.05 * f64::from(i), 100.0)));
        samples.push((4.5, 10.0));
        assert_eq!(windowed_quantile(&samples, 1.0, 0.9), 10.0);
        assert_eq!(windowed_quantile(&[], 1.0, 0.9), 0.0);
    }

    #[test]
    fn iq_mean_trims_a_quarter_each_side() {
        assert_eq!(iq_mean(&[3.0, 1.0, 100.0]), 3.0);
        assert_eq!(iq_mean(&[1.0, 2.0, 3.0, 4.0, 100.0, 0.0, 2.5, 3.5]), 2.75);
    }

    #[test]
    fn hist_quantiles_stay_within_a_bucket() {
        let h = Hist::default();
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.01).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.len(), 1000);
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let exact = quantile(&values, p);
            let got = h.quantile(p);
            assert!(
                (got - exact).abs() <= 0.04 * exact,
                "p{p}: {got} vs {exact}"
            );
        }
        let le = h.count_le(2.5);
        assert!((le - 250.0).abs() <= 5.0, "{le}");
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        // Out-of-range values land in the end buckets.
        h.record(0.0);
        h.record(1e12);
        assert_eq!(h.len(), 1002);
        assert!(Hist::lower(Hist::bucket(3.0)) <= 3.0 && 3.0 < Hist::lower(Hist::bucket(3.0) + 1));
    }

    #[test]
    fn stage_delta_subtracts_and_quantiles() {
        let before = StageSnapshot {
            count: 3,
            total_ns: 0,
            buckets: vec![HistBucket {
                le_ns: 1_000,
                count: 3,
            }],
        };
        let after = StageSnapshot {
            count: 7,
            total_ns: 0,
            buckets: vec![
                HistBucket {
                    le_ns: 1_000,
                    count: 4,
                },
                HistBucket {
                    le_ns: 5_000,
                    count: 3,
                },
            ],
        };
        let d = stage_delta(&before, &after);
        assert_eq!(d.len(), 2);
        assert_eq!(bucket_quantile_us(&d, 0.25), 1.0);
        assert_eq!(bucket_quantile_us(&d, 0.99), 5.0);
    }
}
