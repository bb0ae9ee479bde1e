//! A fixed-bucket base-2 histogram.
//!
//! Values are unsigned integers (the simulator records call latencies in
//! nanoseconds); bucket `i ≥ 1` covers `[2^(i-1), 2^i)` and bucket 0 holds
//! exact zeros. The bucket array is fixed at [`BUCKETS`] entries, so
//! recording is allocation-free and two histograms always agree on their
//! bucket boundaries.
//!
//! Exact `count`, `sum`, `min` and `max` are tracked alongside the
//! buckets, so [`Histogram::summary`] reports exact extremes and mean and
//! bucket-resolution percentiles. An empty histogram has *no* summary
//! (`None`) rather than NaN-filled fields — the same discipline as
//! [`SimResult::skew`](crate::SimResult::skew) on an empty processor list.

/// Number of buckets: zeros plus 47 powers of two, enough for any
/// nanosecond quantity up to ~1.6 days.
pub const BUCKETS: usize = 48;

/// The bucket index of a value.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive value range `[lo, hi]` of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == BUCKETS - 1 {
        (1 << (i - 1), u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

/// A log2 histogram over `u64` values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The summary statistics of a non-empty histogram. Extremes, count and
/// mean are exact; percentiles are resolved to bucket upper bounds and
/// clamped into `[min, max]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-empty buckets, as `(bucket index, count)` pairs in index
    /// order — the compact form the bench snapshot serializes.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuilds a histogram from its serialized parts: the non-zero
    /// `(bucket, count)` pairs plus the exact sum and extremes. The
    /// inverse of [`nonzero_buckets`](Histogram::nonzero_buckets) (plus
    /// the summary fields); rejects out-of-range buckets and extremes
    /// inconsistent with the occupied buckets.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            if i >= BUCKETS {
                return Err(format!("bucket {i} out of range (max {})", BUCKETS - 1));
            }
            if c == 0 {
                return Err(format!("bucket {i}: zero counts must be omitted"));
            }
            h.counts[i] += c;
            h.count += c;
        }
        if h.count == 0 {
            if sum != 0 || min != u64::MAX || max != 0 {
                return Err("empty histogram with non-default extremes".into());
            }
            return Ok(h);
        }
        let lo = bucket_bounds(buckets.iter().map(|&(i, _)| i).min().unwrap()).0;
        let hi = bucket_bounds(buckets.iter().map(|&(i, _)| i).max().unwrap()).1;
        if min < lo || min > max || max > hi {
            return Err(format!(
                "extremes [{min}, {max}] inconsistent with occupied buckets [{lo}, {hi}]"
            ));
        }
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }

    /// The value at or below which a `q` fraction of observations fall,
    /// resolved to the containing bucket's upper bound and clamped into
    /// `[min, max]`. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_bounds(i).1.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Summary statistics; `None` (not NaN) when nothing was recorded.
    pub fn summary(&self) -> Option<HistSummary> {
        if self.count == 0 {
            return None;
        }
        Some(HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: self.sum as f64 / self.count as f64,
            p50: self.quantile(0.50).expect("non-empty"),
            p90: self.quantile(0.90).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_summary() {
        // The skew()-style gap: an empty histogram must yield None, never
        // a summary with NaN mean or inverted extremes.
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.summary(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(5), (16, 31));
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
        // bucket_of inverts bucket_bounds at both edges.
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn summary_tracks_exact_extremes_and_mean() {
        let mut h = Histogram::new();
        for v in [3, 5, 100, 0] {
            h.record(v);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 108);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert!((s.mean - 27.0).abs() < 1e-12);
        // Percentiles are bucket upper bounds clamped into [min, max].
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 15]
        }
        h.record(1000); // bucket [512, 1023]
        assert_eq!(h.quantile(0.5), Some(15));
        assert_eq!(h.quantile(0.99), Some(15));
        assert_eq!(h.quantile(1.0), Some(1000)); // clamped to max
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 9, 300, 70_000] {
            h.record(v);
        }
        let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let s = h.summary().unwrap();
        let back = Histogram::from_parts(&buckets, s.sum, s.min, s.max).unwrap();
        assert_eq!(back, h);
        // The empty histogram round-trips too.
        let empty = Histogram::new();
        assert_eq!(Histogram::from_parts(&[], 0, u64::MAX, 0).unwrap(), empty);
    }

    #[test]
    fn from_parts_rejects_garbage() {
        assert!(Histogram::from_parts(&[(BUCKETS, 1)], 0, 0, 0).is_err());
        assert!(Histogram::from_parts(&[(2, 0)], 0, 2, 2).is_err());
        // min below the lowest occupied bucket.
        assert!(Histogram::from_parts(&[(5, 1)], 20, 3, 20).is_err());
        // max above the highest occupied bucket.
        assert!(Histogram::from_parts(&[(2, 1)], 3, 3, 99).is_err());
        // min > max.
        assert!(Histogram::from_parts(&[(2, 2)], 5, 3, 2).is_err());
        // Non-empty extremes on an empty histogram.
        assert!(Histogram::from_parts(&[], 1, u64::MAX, 0).is_err());
    }

    #[test]
    fn saturating_sum_never_wraps() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.summary().unwrap().sum, u64::MAX);
    }
}
