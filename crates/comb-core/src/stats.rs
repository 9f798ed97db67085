//! Streaming estimators and the sequential stopping rule behind adaptive
//! replicate campaigns.
//!
//! Single-shot benchmark numbers are point estimates with no statement of
//! uncertainty. The adaptive campaign machinery repeats every sweep cell
//! under seeded run-to-run perturbation (see `comb_hw::perturb`) and
//! reduces the replicates here:
//!
//! * [`Welford`] — numerically stable streaming mean/variance, so a
//!   replicate can be folded in as soon as it finishes without keeping the
//!   raw series around or losing precision to the naive
//!   sum-of-squares formula.
//! * [`t_quantile`] — Student-t quantiles computed in-house from the
//!   regularized incomplete beta function (no external stats crate), the
//!   correct small-sample interval width when the population variance is
//!   estimated from the replicates themselves.
//! * [`StoppingRule`] — the sequential design: keep adding replicates
//!   until the relative confidence-interval half-width of the metric is
//!   under a target, with a hard cap so a noisy cell cannot run forever.
//!
//! Everything here is pure arithmetic on `f64`s — deterministic across
//! platforms and worker counts — which is what lets adaptive campaigns
//! keep the repo's byte-identity guarantees.

/// Streaming mean/variance accumulator (Welford's online algorithm).
///
/// Folding values in one at a time keeps the running mean exact for a
/// single value and numerically stable for adversarial magnitudes, unlike
/// the naive `sum(x²) - n·mean²` formula which cancels catastrophically.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations folded in.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no observation has been folded in.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The running mean (0.0 when empty). With exactly one observation the
    /// mean is that observation, bit for bit — which is what keeps
    /// single-replicate campaigns byte-identical to point estimates.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`None` below two observations).
    pub fn variance(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        // m2 can go ~-0.0 from rounding on constant input; clamp.
        Some((self.m2 / (self.n - 1) as f64).max(0.0))
    }

    /// Sample standard deviation (`None` below two observations).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean (`None` below two observations).
    pub fn std_err(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.n as f64).sqrt())
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
/// Accurate to ~1e-13 over the positive reals, far tighter than the
/// 1e-10 the CDF downstream needs.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the approximation in its accurate half-plane.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, c) in COEF.iter().enumerate() {
        a += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Continued-fraction evaluation of the incomplete beta function
/// (modified Lentz's method). Converges for `x < (a + 1) / (a + b + 2)`;
/// [`betai`] routes the other half through the symmetry relation.
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3.0e-16;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn betai(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// CDF of Student's t distribution with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: u64) -> f64 {
    let df = df as f64;
    let x = df / (df + t * t);
    let tail = 0.5 * betai(0.5 * df, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Quantile (inverse CDF) of Student's t distribution: the `t` with
/// `P(T ≤ t) = p` for `T ~ t(df)`.
///
/// Bisection against [`t_cdf`]: the CDF is strictly increasing, so ~200
/// halvings pin the root to full `f64` resolution. Wasteful next to a
/// dedicated inverse, but this runs once per (confidence, df) pair per
/// stopping decision — nothing compared to one simulated sweep cell.
///
/// # Panics
///
/// Panics when `p` is outside `(0, 1)` or `df == 0` — both indicate a
/// caller bug, not data.
pub fn t_quantile(p: f64, df: u64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "t_quantile p={p} outside (0, 1)");
    assert!(df > 0, "t_quantile needs df >= 1");
    if p == 0.5 {
        return 0.0;
    }
    // Expand a bracket around the root, then bisect.
    let mut lo = -1.0;
    let mut hi = 1.0;
    while t_cdf(lo, df) > p {
        lo *= 2.0;
    }
    while t_cdf(hi, df) < p {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A mean with its Student-t confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Observations behind the estimate.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the two-sided interval at the requested confidence.
    pub half_width: f64,
}

impl MeanCi {
    /// Lower bound of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
}

/// Two-sided Student-t confidence interval for the mean at `confidence`
/// (e.g. `0.95`). `None` below two observations — one replicate carries
/// no variance information.
pub fn mean_ci(w: &Welford, confidence: f64) -> Option<MeanCi> {
    let se = w.std_err()?;
    let t = t_quantile(0.5 + 0.5 * confidence, w.len() - 1);
    Some(MeanCi {
        n: w.len(),
        mean: w.mean(),
        half_width: t * se,
    })
}

/// What the stopping rule says to do with a cell after a replicate lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopDecision {
    /// Keep scheduling replicates.
    Continue,
    /// The relative CI half-width is under the target — stop early.
    Converged,
    /// The hard replicate cap was hit before convergence.
    CapReached,
}

/// Sequential stopping rule: repeat a sweep cell until the relative
/// half-width of the metric's confidence interval drops under
/// `rel_ci_target`, but never fewer than `min_replicates` (an interval
/// needs at least two points) nor more than `max_replicates` (a noisy
/// cell must not stall the campaign). A cap of one is a plain campaign:
/// each cell runs once and is settled as capped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// Replicates always executed before the rule may stop (≥ 1; two
    /// unless the cap is one).
    pub min_replicates: u32,
    /// Hard cap on replicates per cell.
    pub max_replicates: u32,
    /// Target for `half_width / |mean|`.
    pub rel_ci_target: f64,
    /// Interval confidence level (e.g. 0.95).
    pub confidence: f64,
}

impl StoppingRule {
    /// The standard rule: 95% intervals, at least two replicates unless
    /// the cap (at least one) is lower.
    pub fn new(max_replicates: u32, rel_ci_target: f64) -> StoppingRule {
        let max_replicates = max_replicates.max(1);
        StoppingRule {
            min_replicates: max_replicates.min(2),
            max_replicates,
            rel_ci_target,
            confidence: 0.95,
        }
    }

    /// Decide a cell's fate from its accumulated replicates. The decision
    /// is a pure function of the accumulator, so scheduling order and
    /// worker count can never change it.
    pub fn decide(&self, w: &Welford) -> StopDecision {
        if w.len() < u64::from(self.min_replicates.max(1)) {
            return StopDecision::Continue;
        }
        if self.is_met(w) {
            return StopDecision::Converged;
        }
        if w.len() >= self.max_replicates as u64 {
            return StopDecision::CapReached;
        }
        StopDecision::Continue
    }

    /// True when the accumulated interval meets the relative target. A
    /// zero mean with zero spread counts as met (a constant metric is as
    /// converged as it gets); a zero mean with spread can only be capped.
    pub fn is_met(&self, w: &Welford) -> bool {
        let Some(ci) = mean_ci(w, self.confidence) else {
            return false;
        };
        if ci.half_width == 0.0 {
            return true;
        }
        ci.half_width <= self.rel_ci_target * ci.mean.abs()
    }
}

/// Bounded sliding window over a latency-like series, answering
/// nearest-rank quantile queries (`p50`, `p99`, ...) over the last `cap`
/// observations.
///
/// `comb serve` feeds per-request latencies in and reads `p50`/`p99` back
/// out on every `/metrics` scrape. The window is a plain ring buffer: O(1)
/// insertion, O(n log n) per query on a sorted copy — the right trade for
/// a metrics endpoint that is scraped far less often than it is fed.
#[derive(Debug, Clone)]
pub struct QuantileWindow {
    buf: Vec<f64>,
    cap: usize,
    next: usize,
    total: u64,
}

impl QuantileWindow {
    /// A window retaining the most recent `cap` (≥ 1) observations.
    pub fn new(cap: usize) -> QuantileWindow {
        QuantileWindow {
            buf: Vec::new(),
            cap: cap.max(1),
            next: 0,
            total: 0,
        }
    }

    /// Fold in one observation, evicting the oldest once full.
    ///
    /// Non-finite observations (NaN, ±inf) are dropped: one poisoned
    /// latency sample must never turn a `/metrics` quantile into NaN.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(x);
        } else {
            self.buf[self.next] = x;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    /// Observations currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Observations recorded over the window's lifetime, including evicted
    /// ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile of the retained observations, `q` in [0, 1].
    /// `None` while empty or when `q` is not finite.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.buf.is_empty() || !q.is_finite() {
            return None;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: smallest value with at least ceil(q*n) observations
        // at or below it; q = 0 maps to the minimum.
        let rank = (q * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1)])
    }

    /// [`quantile`](QuantileWindow::quantile) with an explicit fallback
    /// for the empty window — what a metrics endpoint should render
    /// instead of NaN or a missing line. Always finite.
    pub fn quantile_or(&self, q: f64, default: f64) -> f64 {
        self.quantile(q).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comb_hw::fault::DetRng;

    #[test]
    fn quantile_window_nearest_rank() {
        let mut w = QuantileWindow::new(100);
        assert!(w.quantile(0.5).is_none());
        for i in 1..=100 {
            w.record(i as f64);
        }
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(0.5), Some(50.0));
        assert_eq!(w.quantile(0.99), Some(99.0));
        assert_eq!(w.quantile(1.0), Some(100.0));
        assert_eq!(w.len(), 100);
        assert_eq!(w.total(), 100);
    }

    #[test]
    fn quantile_window_evicts_oldest() {
        let mut w = QuantileWindow::new(4);
        for x in [100.0, 1.0, 2.0, 3.0, 4.0] {
            w.record(x);
        }
        // 100.0 has been evicted; the window holds 1..=4.
        assert_eq!(w.len(), 4);
        assert_eq!(w.total(), 5);
        assert_eq!(w.quantile(1.0), Some(4.0));
        assert_eq!(w.quantile(0.5), Some(2.0));
    }

    #[test]
    fn quantile_window_empty_and_nonfinite_report_zero_not_nan() {
        // Empty window: quantile is None, quantile_or falls back to 0.
        let w = QuantileWindow::new(16);
        assert_eq!(w.quantile(0.5), None);
        assert_eq!(w.quantile_or(0.5, 0.0), 0.0);
        assert_eq!(w.quantile_or(0.99, 0.0), 0.0);

        // Non-finite observations are dropped, never poisoning the
        // window: p50/p99 stay finite (and 0 while still empty).
        let mut w = QuantileWindow::new(16);
        w.record(f64::NAN);
        w.record(f64::INFINITY);
        w.record(f64::NEG_INFINITY);
        assert!(w.is_empty(), "non-finite samples must be dropped");
        assert_eq!(w.quantile_or(0.5, 0.0), 0.0);
        w.record(7.0);
        w.record(f64::NAN);
        assert_eq!(w.len(), 1);
        assert_eq!(w.quantile(0.99), Some(7.0));
        assert!(w.quantile_or(0.5, 0.0).is_finite());
    }

    fn two_pass(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn welford_single_value_is_exact() {
        for x in [0.0, 1.0, -3.5, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let mut w = Welford::new();
            w.push(x);
            assert_eq!(
                w.mean().to_bits(),
                x.to_bits(),
                "n=1 mean must be x, bit for bit"
            );
            assert_eq!(w.variance(), None);
        }
    }

    #[test]
    fn welford_matches_two_pass_on_benign_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var) = two_pass(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance().unwrap() - var).abs() < 1e-12);
        assert_eq!(w.len(), xs.len() as u64);
    }

    #[test]
    fn welford_survives_large_offsets() {
        // The classic catastrophic-cancellation case: tiny spread on a
        // huge offset. A naive sum-of-squares variance returns garbage
        // (often negative); Welford stays near the true 1.0.
        let offset = 1e9;
        let mut w = Welford::new();
        for x in [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            w.push(x);
        }
        let var = w.variance().unwrap();
        assert!((var - 30.0).abs() < 1e-3, "variance {var} far from 30");
        assert!(var >= 0.0);
    }

    #[test]
    fn t_quantiles_match_the_table() {
        // Standard two-sided 95% critical values (t_{0.975, df}).
        for (df, expect) in [
            (1u64, 12.706),
            (2, 4.303),
            (3, 3.182),
            (5, 2.571),
            (10, 2.228),
            (30, 2.042),
            (100, 1.984),
        ] {
            let got = t_quantile(0.975, df);
            assert!(
                (got - expect).abs() < 2e-3,
                "t(0.975, {df}) = {got}, table says {expect}"
            );
        }
        // One-sided 95% and 99% spot checks.
        assert!((t_quantile(0.95, 10) - 1.812).abs() < 2e-3);
        assert!((t_quantile(0.995, 7) - 3.499).abs() < 2e-3);
        // Symmetry and the median.
        assert_eq!(t_quantile(0.5, 4), 0.0);
        assert!((t_quantile(0.025, 10) + t_quantile(0.975, 10)).abs() < 1e-9);
    }

    #[test]
    fn t_cdf_is_monotone_and_symmetric() {
        for df in [1u64, 3, 17, 200] {
            let mut prev = 0.0;
            for i in -40..=40 {
                let t = i as f64 / 4.0;
                let p = t_cdf(t, df);
                assert!(p >= prev, "CDF must be monotone (df={df}, t={t})");
                assert!(
                    (p + t_cdf(-t, df) - 1.0).abs() < 1e-12,
                    "CDF must be symmetric (df={df}, t={t})"
                );
                prev = p;
            }
        }
    }

    /// Seeded Monte-Carlo coverage: across many repeated experiments on a
    /// known distribution, the 95% t-interval must contain the true mean
    /// ~95% of the time. Deterministic seed, so this never flakes.
    fn coverage<F: FnMut(&mut DetRng) -> f64>(
        seed: u64,
        trials: usize,
        n: usize,
        true_mean: f64,
        mut draw: F,
    ) -> f64 {
        let mut rng = DetRng::new(seed);
        let mut covered = 0usize;
        for _ in 0..trials {
            let mut w = Welford::new();
            for _ in 0..n {
                w.push(draw(&mut rng));
            }
            let ci = mean_ci(&w, 0.95).unwrap();
            if ci.lo() <= true_mean && true_mean <= ci.hi() {
                covered += 1;
            }
        }
        covered as f64 / trials as f64
    }

    #[test]
    fn ci_coverage_is_near_95_percent_on_normals() {
        // Box-Muller normals, mean 3, sd 2.
        let mut spare: Option<f64> = None;
        let cov = coverage(0xC0_FFEE, 2_000, 10, 3.0, move |rng| {
            let z = match spare.take() {
                Some(z) => z,
                None => {
                    let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
                    let u2 = rng.next_f64();
                    let r = (-2.0 * u1.ln()).sqrt();
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    spare = Some(r * theta.sin());
                    r * theta.cos()
                }
            };
            3.0 + 2.0 * z
        });
        assert!(
            (0.93..=0.97).contains(&cov),
            "normal coverage {cov} far from 0.95"
        );
    }

    #[test]
    fn ci_coverage_is_near_95_percent_on_uniforms() {
        // Uniform(0, 1), true mean 0.5. The t interval is exact only for
        // normals; for a bounded symmetric distribution at n = 12 it is
        // close, which is exactly the regime adaptive campaigns run in.
        let cov = coverage(0x0BAD_C0DE, 2_000, 12, 0.5, |rng| rng.next_f64());
        assert!(
            (0.92..=0.98).contains(&cov),
            "uniform coverage {cov} far from 0.95"
        );
    }

    #[test]
    fn stopping_rule_converges_caps_and_continues() {
        let rule = StoppingRule::new(6, 0.05);
        // Below min: always continue, even with zero spread.
        let mut w = Welford::new();
        w.push(10.0);
        assert_eq!(rule.decide(&w), StopDecision::Continue);
        // Tight data: converges right at min_replicates.
        w.push(10.0);
        assert_eq!(rule.decide(&w), StopDecision::Converged);
        // Noisy data: continues past min, caps at max.
        let mut noisy = Welford::new();
        for (i, x) in [1.0, 9.0, 2.0, 8.0, 3.0].iter().enumerate() {
            noisy.push(*x);
            if i >= 1 {
                assert_eq!(rule.decide(&noisy), StopDecision::Continue, "rep {}", i + 1);
            }
        }
        noisy.push(7.0);
        assert_eq!(rule.decide(&noisy), StopDecision::CapReached);
        // The decision is pure: same accumulator, same answer.
        assert_eq!(rule.decide(&noisy), rule.decide(&noisy.clone()));
    }

    #[test]
    fn stopping_rule_honours_a_cap_of_one() {
        for cap in [0, 1] {
            let rule = StoppingRule::new(cap, 0.05);
            assert_eq!((rule.min_replicates, rule.max_replicates), (1, 1));
            let mut w = Welford::new();
            assert_eq!(rule.decide(&w), StopDecision::Continue);
            w.push(10.0);
            assert_eq!(rule.decide(&w), StopDecision::CapReached);
        }
    }

    #[test]
    fn stopping_rule_zero_mean_constant_is_converged() {
        let rule = StoppingRule::new(8, 0.05);
        let mut w = Welford::new();
        w.push(0.0);
        w.push(0.0);
        assert_eq!(rule.decide(&w), StopDecision::Converged);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        // The vendored proptest stub only generates integers, so float
        // inputs are derived in-body: raw i64 draws scaled down to f64.

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 512, // pure arithmetic — cheap
                .. ProptestConfig::default()
            })]

            /// Welford must match the two-pass reference within an
            /// ULP-scale tolerance even on adversarial inputs: huge
            /// offsets, mixed magnitudes, sign flips.
            #[test]
            fn welford_matches_two_pass_reference(
                offset_raw in prop_oneof![Just(0i64), -100_000_000i64..100_000_001],
                scale_exp in -6i32..7,
                raw in proptest::collection::vec(-1_000_000i64..1_000_001, 2..64),
            ) {
                let offset = offset_raw as f64;
                let scale = 10f64.powi(scale_exp);
                let xs: Vec<f64> = raw
                    .iter()
                    .map(|&r| offset + scale * (r as f64 / 1e6))
                    .collect();
                let mut w = Welford::new();
                for &x in &xs {
                    w.push(x);
                }
                let (mean, var) = two_pass(&xs);
                // Tolerances scale with the data's magnitude: a few
                // hundred ULPs of the largest term involved. The variance
                // additionally pays an ULP(offset)·spread cross term —
                // each centered deviation `x - mean` is rounded at the
                // magnitude of the *uncentered* values.
                let mean_tol = 1e-12 * (offset.abs() + scale).max(1.0);
                prop_assert!(
                    (w.mean() - mean).abs() <= mean_tol,
                    "mean {} vs two-pass {} (tol {})", w.mean(), mean, mean_tol
                );
                let ulp_off = f64::EPSILON * (offset.abs() + scale);
                let var_tol = 1e-9 * (scale * scale).max(f64::MIN_POSITIVE)
                    + 1e-7 * var.abs()
                    + 4.0 * xs.len() as f64 * ulp_off * (scale + ulp_off);
                prop_assert!(
                    (w.variance().unwrap() - var).abs() <= var_tol,
                    "variance {} vs two-pass {} (tol {})",
                    w.variance().unwrap(), var, var_tol
                );
                prop_assert!(w.variance().unwrap() >= 0.0);
            }

            /// The quantile must invert the CDF everywhere.
            #[test]
            fn t_quantile_inverts_t_cdf(
                p_raw in 1u64..999,
                df in 1u64..200,
            ) {
                let p = p_raw as f64 / 1000.0;
                let t = t_quantile(p, df);
                let back = t_cdf(t, df);
                prop_assert!((back - p).abs() < 1e-9, "cdf(quantile({p})) = {back}");
            }

            /// Wider confidence must never shrink the interval.
            #[test]
            fn ci_widens_with_confidence(
                raw in proptest::collection::vec(-100_000i64..100_001, 3..20),
            ) {
                let mut w = Welford::new();
                for &r in &raw {
                    w.push(r as f64 / 1000.0);
                }
                let c90 = mean_ci(&w, 0.90).unwrap();
                let c99 = mean_ci(&w, 0.99).unwrap();
                prop_assert!(c99.half_width >= c90.half_width);
                prop_assert!(c90.half_width >= 0.0);
            }
        }
    }
}
