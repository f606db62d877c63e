//! Simulation clock types.
//!
//! The simulator uses a 64-bit integer nanosecond clock. Integer time
//! keeps the event queue total-ordered and the simulation bit-for-bit
//! reproducible across platforms, which floating-point time cannot
//! guarantee.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Builds a time from fractional seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(round_u64(s.max(0.0) * 1e9))
    }

    /// Builds a time from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_u64(s.max(0.0) * 1e9))
    }

    /// Builds a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the duration by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration(round_u64(self.0 as f64 * k.max(0.0)))
    }

    /// True when the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// `y.round() as u64` — nearest integer, halves away from zero,
/// saturating at `0` and `u64::MAX`, NaN to `0` — without the `round`
/// call, which the baseline x86-64 target has no instruction for. On
/// `[0, 2^63)` the truncation `t` is exact and so is `y − t`, so
/// comparing that fraction with one half decides exactly what `round`
/// does, and both conversions are single `i64` instructions. Anywhere
/// else the saturating cast is the answer: NaN and negatives go to `0`,
/// and from 2^63 up every `f64` is an integer.
#[inline]
pub(crate) fn round_u64(y: f64) -> u64 {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if (0.0..TWO_POW_63).contains(&y) {
        let t = y as i64;
        (if y - t as f64 >= 0.5 { t + 1 } else { t }) as u64
    } else {
        y as u64
    }
}

/// Converts a transmission of `bits` at `rate_bps` into a duration.
///
/// Rates at or below zero yield an effectively infinite duration so that
/// a paused link never services packets, and a rate so small that the
/// quotient overflows the clock yields the same: added to any instant a
/// validated scenario reaches, it stays a `u64`.
pub fn tx_time(bits: f64, rate_bps: f64) -> SimDuration {
    const FOREVER: u64 = u64::MAX / 4;
    if rate_bps <= 0.0 {
        return SimDuration(FOREVER);
    }
    SimDuration(round_u64((bits / rate_bps) * 1e9).min(FOREVER))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimTime::from_millis(10);
        let b = a + SimDuration::from_millis(5);
        assert_eq!((b - a).as_millis_f64(), 5.0);
        assert_eq!(a.since(b), SimDuration::ZERO, "saturating subtraction");
    }

    #[test]
    fn tx_time_1500b_at_12mbps() {
        // 1500 B = 12000 bits at 12 Mbps -> 1 ms.
        let d = tx_time(12_000.0, 12_000_000.0);
        assert_eq!(d, SimDuration::from_millis(1));
    }

    #[test]
    fn tx_time_zero_rate_is_effectively_infinite() {
        assert!(tx_time(8.0, 0.0).as_secs_f64() > 1e6);
        // A vanishing rate is the same thing, not `u64::MAX` — which
        // wrapped `now + tx_time` into the past.
        assert_eq!(tx_time(12_000.0, 1e-294), tx_time(8.0, 0.0));
    }

    /// `round_u64` is `x.round() as u64` on ±0, the largest `f64` below
    /// one half and one half itself, halves and the powers of two where
    /// `f64` stops having fractions (2^52, 2^53) and where the casts
    /// change (2^63, 2^64) with their neighbours, the extremes, NaN,
    /// ±∞ and subnormals, each with both signs; and on 10^7 seeded bit
    /// patterns, each also scaled into the range where the fraction
    /// matters.
    #[test]
    fn round_u64_equals_round_then_cast() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |x: f64| {
            assert_eq!(
                round_u64(x),
                x.round() as u64,
                "x = {x:e} ({:#018x})",
                x.to_bits()
            );
        };
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            two(52),
            two(52) - 0.5,
            two(52) + 1.0,
            two(53),
            two(53) - 1.0,
            two(63),
            two(63) - 1024.0,
            two(64),
            two(64) - 2048.0,
            two(65),
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
        ];
        edges.extend(edges.clone().iter().map(|x| -x));
        edges.iter().copied().for_each(check);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..10_000_000 {
            let bits: u64 = rng.gen();
            check(f64::from_bits(bits));
            // The same bits as a value of magnitude 2^-113 .. 2^67, and
            // as a half-integer tie.
            let x = (bits >> 11) as f64 * two((bits & 127) as i32 - 60 - 53);
            check(if bits >> 63 == 0 { x } else { -x });
            check((bits >> 40) as f64 + 0.5);
        }
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10).mul_f64(2.5);
        assert_eq!(d.as_millis_f64(), 25.0);
    }
}
