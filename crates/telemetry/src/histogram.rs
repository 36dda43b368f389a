//! Fixed-bucket log-scale histograms for profiling counters.
//!
//! A [`LogHistogram`] has 65 buckets on power-of-two boundaries: bucket 0
//! holds the value 0, bucket `k >= 1` holds `[2^(k-1), 2^k)`. The layout is
//! the same for every histogram, so merging two of them is a plain
//! element-wise sum — associative and commutative, which is what lets
//! per-region profiles from any worker count fold into the same totals.

use crate::json::{parse, write_object, FromJson, JsonValue, Layout, ToJson};

/// Number of buckets: one for zero plus one per bit position of `u64`.
pub const BUCKETS: usize = 65;

/// A merge-friendly histogram over `u64` samples with log2 buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros` (the
/// position of the highest set bit, one-based).
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `k`.
fn bucket_lo(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// Exclusive upper bound of bucket `k`, saturating at `u64::MAX`.
fn bucket_hi(k: usize) -> u64 {
    if k == 0 {
        1
    } else if k >= 64 {
        u64::MAX
    } else {
        1u64 << k
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Add one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one. Element-wise, so the result
    /// is independent of merge order and grouping.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1): the upper bound of the bucket
    /// holding the q-th sample, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_hi(k).saturating_sub(1).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Iterate non-empty buckets as `(lo, hi_exclusive, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (bucket_lo(k), bucket_hi(k), n))
    }

    /// Single-line JSON encoding: four totals and the buckets as a plain
    /// array.
    pub fn to_json(&self) -> String {
        self.to_json_in(Layout::Compact)
    }

    /// Parse the encoding produced by [`to_json`](LogHistogram::to_json).
    pub fn from_json(line: &str) -> Option<Self> {
        Self::read_json(&parse(line)?)
    }
}

impl ToJson for LogHistogram {
    fn write_json(&self, out: &mut String, layout: Layout) {
        write_object(out, layout, |o| {
            o.field("count", &self.count)
                .field("sum", &self.sum)
                .field("min", &self.min())
                .field("max", &self.max)
                .field("buckets", self.buckets.as_slice());
        })
    }
}

impl FromJson for LogHistogram {
    fn read_json(v: &JsonValue) -> Option<Self> {
        let count = v.field("count")?;
        let min: u64 = v.field("min")?;
        Some(LogHistogram {
            buckets: v.field::<Vec<u64>>("buckets")?.try_into().ok()?,
            count,
            sum: v.field("sum")?,
            min: if count == 0 { u64::MAX } else { min },
            max: v.field("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_domain() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 0..BUCKETS {
            assert!(bucket_lo(k) < bucket_hi(k) || (k == 64 && bucket_hi(k) == u64::MAX));
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 202.2).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) <= 1000);
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let samples = [3u64, 0, 17, 17, 999, 1, 1 << 40];
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in samples.iter().enumerate() {
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn json_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [0u64, 7, 7, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let parsed = LogHistogram::from_json(&h.to_json()).expect("parse");
        assert_eq!(parsed, h);
        let empty = LogHistogram::new();
        assert_eq!(LogHistogram::from_json(&empty.to_json()).unwrap(), empty);
    }
}
