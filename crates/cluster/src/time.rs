//! Simulation time.
//!
//! The whole workspace measures time in **minutes** expressed as `f64`,
//! matching the units the paper reports (task durations, lease durations and
//! inter-arrival times are all given in minutes). [`Time`] is a thin wrapper
//! that provides total ordering (NaN is rejected at construction) so that
//! times can be used as keys in the simulator's event queue.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in minutes.
///
/// `Time` is totally ordered; constructing a `Time` from NaN panics, which
/// keeps the ordering well defined everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

impl Time {
    /// Time zero — the start of every simulation.
    pub const ZERO: Time = Time(0.0);

    /// A very large time used to mean "never" / "unbounded".
    pub const INFINITY: Time = Time(f64::INFINITY);

    /// Creates a time value from minutes.
    ///
    /// # Panics
    /// Panics if `minutes` is NaN.
    pub fn minutes(minutes: f64) -> Self {
        assert!(!minutes.is_nan(), "Time cannot be NaN");
        Time(minutes)
    }

    /// Creates a time value from hours.
    pub fn hours(hours: f64) -> Self {
        Self::minutes(hours * 60.0)
    }

    /// Creates a time value from seconds.
    pub fn seconds(seconds: f64) -> Self {
        Self::minutes(seconds / 60.0)
    }

    /// The value in minutes.
    pub fn as_minutes(self) -> f64 {
        self.0
    }

    /// The value in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 60.0
    }

    /// The value in GPU-seconds when interpreted as a duration.
    pub fn as_seconds(self) -> f64 {
        self.0 * 60.0
    }

    /// Returns `true` if this time is finite.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the maximum of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the minimum of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamps the value to be at least zero.
    pub fn clamp_non_negative(self) -> Time {
        if self.0 < 0.0 {
            Time::ZERO
        } else {
            self
        }
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN is rejected at construction, so partial_cmp never fails.
        self.0
            .partial_cmp(&other.0)
            .expect("Time is never NaN by construction")
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    fn mul(self, rhs: f64) -> Time {
        Time::minutes(self.0 * rhs)
    }
}

impl Div<f64> for Time {
    type Output = Time;
    fn div(self, rhs: f64) -> Time {
        Time::minutes(self.0 / rhs)
    }
}

impl Div<Time> for Time {
    type Output = f64;
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "{:.2}min", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(Time::hours(2.0).as_minutes(), 120.0);
        assert_eq!(Time::seconds(90.0).as_minutes(), 1.5);
        assert_eq!(Time::minutes(30.0).as_hours(), 0.5);
        assert_eq!(Time::minutes(1.0).as_seconds(), 60.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        let _ = Time::minutes(f64::NAN);
    }

    #[test]
    fn ordering_is_total() {
        let mut times = [
            Time::minutes(5.0),
            Time::ZERO,
            Time::INFINITY,
            Time::minutes(1.0),
        ];
        times.sort();
        assert_eq!(times[0], Time::ZERO);
        assert_eq!(times[3], Time::INFINITY);
    }

    #[test]
    fn arithmetic() {
        let t = Time::minutes(10.0) + Time::minutes(5.0);
        assert_eq!(t, Time::minutes(15.0));
        let d = t - Time::minutes(20.0);
        assert_eq!(d.clamp_non_negative(), Time::ZERO);
        assert_eq!((Time::minutes(10.0) * 3.0).as_minutes(), 30.0);
        assert_eq!((Time::minutes(10.0) / 2.0).as_minutes(), 5.0);
        assert_eq!(Time::minutes(10.0) / Time::minutes(4.0), 2.5);
    }

    #[test]
    fn min_max() {
        let a = Time::minutes(3.0);
        let b = Time::minutes(7.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display() {
        assert_eq!(Time::minutes(1.5).to_string(), "1.50min");
        assert_eq!(Time::INFINITY.to_string(), "∞");
    }
}
