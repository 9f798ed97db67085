//! Small statistics helpers used by the hardware models and the benchmark
//! methods: counters, online means, time-weighted accumulators, and a
//! logarithmic histogram.

use crate::time::{SimDuration, SimTime};

/// Online mean/min/max over a stream of `f64` samples (Welford-free; we only
/// need mean and extrema, so a plain sum is exact enough and deterministic).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Accumulates how much virtual time a boolean state spent `true`.
///
/// Used, e.g., to track what fraction of a run the CPU spent servicing
/// interrupts.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    busy_since: Option<SimTime>,
    total: SimDuration,
    intervals: u64,
}

impl Default for BusyTracker {
    fn default() -> Self {
        BusyTracker {
            busy_since: None,
            total: SimDuration::ZERO,
            intervals: 0,
        }
    }
}

impl BusyTracker {
    /// New tracker, initially idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the state busy starting at `now`. No-op if already busy.
    pub fn enter(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Mark the state idle at `now`, accumulating the busy interval.
    /// No-op if already idle.
    pub fn exit(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.total += now.since(since);
            self.intervals += 1;
        }
    }

    /// Total busy time accumulated, including a still-open interval up to
    /// `now`.
    pub fn total_at(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.total + now.since(since),
            None => self.total,
        }
    }

    /// Number of completed busy intervals.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// True if currently inside a busy interval.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }
}

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
    fn online_stats_mean_min_max() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        for x in [3.0, 1.0, 2.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.sum(), 6.0);
    }

    #[test]
    fn busy_tracker_accumulates_intervals() {
        let t = SimTime::from_nanos;
        let mut b = BusyTracker::new();
        assert!(!b.is_busy());
        b.enter(t(10));
        b.enter(t(12)); // nested enter ignored
        assert!(b.is_busy());
        assert_eq!(b.total_at(t(15)), SimDuration::from_nanos(5));
        b.exit(t(20));
        b.exit(t(25)); // double exit ignored
        assert_eq!(b.total_at(t(100)), SimDuration::from_nanos(10));
        assert_eq!(b.intervals(), 1);
        b.enter(t(100));
        b.exit(t(101));
        assert_eq!(b.total_at(t(200)), SimDuration::from_nanos(11));
        assert_eq!(b.intervals(), 2);
    }

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
