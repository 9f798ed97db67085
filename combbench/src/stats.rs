//! Order statistics for benchmark samples.
//!
//! Timings are reported as a median with quartiles and the sample count,
//! plus the highest standard percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it. Nothing here keeps a best-of-N.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first, in parts per thousand so
/// ranks are exact integers.
const TAIL_LADDER: [usize; 3] = [999, 990, 900];

/// Median, quartiles and tail of one sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile in the ladder with
    /// at least [`TAIL_MIN_BEYOND`] samples beyond it; `None` when the
    /// sample is too small for any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`; `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted)?;
        Some(Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
            tail: tail_percentile(&sorted),
        })
    }
}

/// Quartiles of an ascending sample by the method of Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// the numbers printed here match the ones a comparison script computes.
/// The middle quartile is the median. A single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    match len {
        0 => return None,
        1 => return Some([sorted[0]; 3]),
        _ => {}
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// Nearest-rank value of the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&ppt| {
        let rank = (ppt * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (ppt as f64 / 10.0, sorted[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(
            close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25),
            "{s:?}"
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Python extrapolates past the data for tiny samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(Summary::of(&[5.0, 1.0, 4.0, 2.0]).unwrap().median, 3.0);
        assert_eq!(Summary::of(&[9.0, 1.0, 4.0]).unwrap().median, 4.0);
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 would leave only 9 beyond it.
        assert_eq!(Summary::of(&sample(99)).unwrap().tail, None);
        assert_eq!(Summary::of(&sample(100)).unwrap().tail, Some((90.0, 90.0)));
        assert_eq!(Summary::of(&sample(999)).unwrap().tail, Some((90.0, 900.0)));
        assert_eq!(
            Summary::of(&sample(1000)).unwrap().tail,
            Some((99.0, 990.0))
        );
        assert_eq!(
            Summary::of(&sample(10_000)).unwrap().tail,
            Some((99.9, 9990.0))
        );
        assert_eq!(Summary::of(&sample(3)).unwrap().tail, None);
    }
}
