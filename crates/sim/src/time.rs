//! Virtual time primitives.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! simulation. Integer time keeps event ordering exact and platform
//! independent, which is what makes whole-cluster runs bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any reachable simulation instant. `SimTime + SimDur`
    /// saturates here, so a sum equal to `MAX` means "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Builds an instant from fractional seconds, saturating at zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Builds an instant from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed span since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The start of the whole virtual second containing this instant.
    ///
    /// Monitor daemons publish a new sample once per second, so readers see
    /// the state as of the containing second's start.
    pub fn floor_to_second(self) -> SimTime {
        SimTime(self.0 - self.0 % 1_000_000_000)
    }
}

impl SimDur {
    /// The empty span.
    pub const ZERO: SimDur = SimDur(0);

    /// Builds a span from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDur(s * 1_000_000_000)
    }

    /// Builds a span from fractional seconds, saturating at zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDur((s.max(0.0) * 1e9).round() as u64)
    }

    /// Builds a span from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }

    /// Builds a span from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDur(us * 1_000)
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This span expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Integer division rounding down: how many `unit`s fit in this span.
    pub fn div_floor(self, unit: SimDur) -> u64 {
        assert!(unit.0 > 0, "division by zero-length span");
        self.0 / unit.0
    }

    /// Truncates this span down to a whole multiple of `unit`.
    ///
    /// Models clocks with limited granularity, e.g. `/proc` CPU accounting
    /// readable only in 10 ms ticks.
    pub fn quantize(self, unit: SimDur) -> SimDur {
        if unit.0 == 0 {
            return self;
        }
        SimDur(self.0 - self.0 % unit.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }

    /// Scales the span by a non-negative factor, rounding to nearest ns.
    pub fn mul_f64(self, f: f64) -> SimDur {
        assert!(f >= 0.0, "negative scale factor");
        SimDur((self.0 as f64 * f).round() as u64)
    }

    /// Minimum of two spans.
    pub fn min(self, other: SimDur) -> SimDur {
        SimDur(self.0.min(other.0))
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    /// Saturates at [`SimTime::MAX`]: an "infinite" span (`SimDur(u64::MAX)`,
    /// what `from_secs_f64(f64::INFINITY)` yields) must not wrap an instant
    /// into the past.
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        SimDur(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        assert!(self >= rhs, "negative duration: {self:?} - {rhs:?}");
        SimDur(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).0, 3_000_000_000);
        assert_eq!(SimTime::from_millis(10).0, 10_000_000);
        assert_eq!(SimTime::from_micros(7).0, 7_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_secs_f64(), 1.5);
        assert_eq!(SimDur::from_secs_f64(0.25).as_secs_f64(), 0.25);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDur::from_millis(500);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!((t - SimTime::from_secs(1)).as_millis_f64(), 500.0);
        let mut d = SimDur::from_millis(1);
        d += SimDur::from_millis(2);
        assert_eq!(d, SimDur::from_millis(3));
    }

    #[test]
    fn instant_plus_span_saturates_at_max() {
        let t = SimTime::from_secs(1) + SimDur::from_secs_f64(f64::INFINITY);
        assert_eq!(t, SimTime::MAX);
        let mut u = SimTime::from_secs(1);
        u += SimDur(u64::MAX);
        assert_eq!(u, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_elapsed_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(2)),
            SimDur::ZERO
        );
        assert_eq!(
            SimTime::from_secs(2).since(SimTime::from_secs(1)),
            SimDur::from_secs(1)
        );
    }

    #[test]
    fn quantize_models_proc_granularity() {
        let tick = SimDur::from_millis(10);
        assert_eq!(
            SimDur::from_millis(37).quantize(tick),
            SimDur::from_millis(30)
        );
        assert_eq!(SimDur::from_millis(9).quantize(tick), SimDur::ZERO);
        assert_eq!(
            SimDur::from_millis(40).quantize(tick),
            SimDur::from_millis(40)
        );
        // Zero tick means exact reading.
        assert_eq!(SimDur(123).quantize(SimDur::ZERO), SimDur(123));
    }

    #[test]
    fn floor_to_second() {
        let t = SimTime::from_millis(2750);
        assert_eq!(t.floor_to_second(), SimTime::from_secs(2));
        assert_eq!(
            SimTime::from_secs(3).floor_to_second(),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", SimDur::from_micros(12)), "12.0us");
        assert_eq!(format!("{}", SimDur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDur::from_secs(2)), "2.000s");
    }
}
