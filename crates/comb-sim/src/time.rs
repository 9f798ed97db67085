//! Virtual time for the simulation.
//!
//! All simulation time is integer nanoseconds since the start of the run.
//! Integer time keeps the event queue total-ordered and the whole simulation
//! bit-for-bit deterministic: there is no floating-point accumulation drift
//! and no platform-dependent rounding.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since an earlier instant. Panics in debug builds if `earlier`
    /// is actually later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self.0 >= earlier.0, "SimTime::since: earlier > self");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Seconds as a floating-point value, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from floating-point seconds, rounding to the nearest
    /// nanosecond. Intended for configuration, not for hot paths.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds as `f64`, for reporting.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds as `f64`, for reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }

    /// Duration needed to move `bytes` at `bytes_per_sec`, rounded up to a
    /// whole nanosecond. Returns zero for a zero-byte transfer.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // ceil(bytes * 1e9 / rate): in u64 while the product fits (every
        // transfer under ~18 GB), in u128 beyond that.
        if bytes <= u64::MAX / 1_000_000_000 {
            return SimDuration((bytes * 1_000_000_000).div_ceil(bytes_per_sec));
        }
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn for_bytes_is_exact_and_ceiled() {
        // 1000 bytes at 1 GB/s = 1000ns exactly.
        assert_eq!(
            SimDuration::for_bytes(1000, 1_000_000_000),
            SimDuration::from_nanos(1000)
        );
        // 1 byte at 3 bytes/sec: ceil(1e9/3) = 333_333_334.
        assert_eq!(
            SimDuration::for_bytes(1, 3),
            SimDuration::from_nanos(333_333_334)
        );
        assert_eq!(SimDuration::for_bytes(0, 100), SimDuration::ZERO);
    }

    /// The formula `for_bytes` computes, in u128 throughout.
    fn for_bytes_u128(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    #[test]
    fn for_bytes_matches_the_u128_formula_at_the_u64_limit() {
        const LIMIT: u64 = u64::MAX / 1_000_000_000;
        for bytes in LIMIT - 2..=LIMIT + 2 {
            for bytes_per_sec in [1, 3, 1_000_000_000, u64::MAX] {
                assert_eq!(
                    SimDuration::for_bytes(bytes, bytes_per_sec),
                    for_bytes_u128(bytes, bytes_per_sec),
                    "{bytes} bytes at {bytes_per_sec} B/s"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Byte counts near zero, around the u64 path's limit and
        /// anywhere; rates of one byte per second, small and anywhere.
        #[test]
        fn for_bytes_matches_the_u128_formula(
            bytes in prop_oneof![
                0u64..1 << 20,
                u64::MAX / 1_000_000_000 - 64..u64::MAX / 1_000_000_000 + 65,
                0u64..u64::MAX,
                Just(u64::MAX),
            ],
            bytes_per_sec in prop_oneof![Just(1u64), 1u64..10_000, 1u64..u64::MAX],
        ) {
            prop_assert_eq!(
                SimDuration::for_bytes(bytes, bytes_per_sec),
                for_bytes_u128(bytes, bytes_per_sec)
            );
        }
    }

    #[test]
    fn saturating_ops() {
        let small = SimDuration::from_nanos(5);
        let big = SimDuration::from_nanos(10);
        assert_eq!(small.saturating_sub(big), SimDuration::ZERO);
        assert_eq!(big.saturating_sub(small), SimDuration::from_nanos(5));
        let t0 = SimTime::from_nanos(5);
        let t1 = SimTime::from_nanos(10);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }
}
