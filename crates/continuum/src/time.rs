//! Logical simulation time.
//!
//! All simulation clocks are logical and measured in integer microseconds,
//! which keeps every experiment deterministic and reproducible bit-for-bit
//! regardless of the host machine. [`SimTime`] is an absolute instant,
//! [`SimDuration`] a span between instants.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(3_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the instant as microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) milliseconds since start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as (fractional) seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating duration since an earlier instant.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A span of simulation time, in microseconds.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::time::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 2_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond and saturating at zero for negative inputs.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Creates a span from fractional microseconds, rounding to the nearest
    /// integer microsecond and saturating at zero for negative inputs.
    pub fn from_micros_f64(us: f64) -> Self {
        SimDuration(us.max(0.0).round() as u64)
    }

    /// Returns the span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the span by a non-negative factor, rounding to the
    /// nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> Self {
        SimDuration::from_micros_f64(self.0 as f64 * factor)
    }

    /// Returns whether the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is after `self`; use
    /// [`SimTime::saturating_since`] when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + SimDuration::from_micros(250);
        assert_eq!(t2 - t, SimDuration::from_micros(250));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert!((SimDuration::from_millis(1).as_secs_f64() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(10));
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.mul_f64(1.5).as_micros(), 15);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SimTime::from_millis(1).to_string().is_empty());
        assert!(!SimDuration::from_millis(1).to_string().is_empty());
    }
}
