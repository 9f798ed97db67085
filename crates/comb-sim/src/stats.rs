//! A logarithmic duration histogram for the benchmark methods' phase
//! times.

use crate::time::SimDuration;

/// Histogram over durations with power-of-two microsecond buckets
/// (`<1us, <2us, <4us, …`). Cheap, deterministic, good enough for
/// diagnosing phase-time distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurationHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
}

impl DurationHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_nanos() / 1_000;
        let bucket = (64 - us.leading_zeros()) as usize; // 0 for <1us
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_nanos += d.as_nanos() as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean duration; zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_nanos / self.count as u128) as u64)
        }
    }

    /// Raw bucket counts, including empty buckets (bucket `i` holds
    /// samples in `[2^(i-1), 2^i)` microseconds; bucket 0 is `< 1 us`).
    /// With [`DurationHistogram::sum_nanos`], this is the histogram's
    /// complete state — used by cell-cache serialization.
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total nanoseconds across all recorded samples.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// Rebuild a histogram from its raw state (cell-cache restore). The
    /// sample count is the sum of the bucket counts, so
    /// `from_raw(h.raw_buckets().to_vec(), h.sum_nanos())` reproduces `h`
    /// exactly.
    pub fn from_raw(buckets: Vec<u64>, sum_nanos: u128) -> DurationHistogram {
        let count = buckets.iter().sum();
        DurationHistogram {
            buckets,
            count,
            sum_nanos,
        }
    }

    /// (upper-bound-in-us, count) pairs for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_nanos(500)); // <1us bucket
        h.record(SimDuration::from_micros(3)); // <4us bucket
        h.record(SimDuration::from_micros(3));
        assert_eq!(h.count(), 3);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (4, 2)]);
        assert_eq!(h.mean(), SimDuration::from_nanos((500 + 3000 + 3000) / 3));
    }
}
