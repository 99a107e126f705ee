//! Simulation time: microseconds since session start.
//!
//! Wall-clock time never appears anywhere in the workspace — sessions
//! are fully deterministic and replayable. `SimTime` is a newtype over
//! microseconds (the libpcap timestamp resolution, so captures need no
//! conversion).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulation time (µs since session start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulation time (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since session start.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since session start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Split into the (seconds, microseconds) pair pcap timestamps use.
    pub fn to_pcap_parts(self) -> (u32, u32) {
        ((self.0 / 1_000_000) as u32, (self.0 % 1_000_000) as u32)
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// From a float second count (rounds to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1e6).round() as u64)
    }

    pub fn micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(1_500_000);
        let t2 = t + Duration::from_millis(500);
        assert_eq!(t2, SimTime(2_000_000));
        assert_eq!(t2.since(t), Duration(500_000));
        assert_eq!(t.since(t2), Duration::ZERO, "saturating");
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).micros(), 2_000_000);
        assert_eq!(Duration::from_secs_f64(0.0000015).micros(), 2, "rounds");
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(SimTime(3_250_000).to_pcap_parts(), (3, 250_000));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime(1_234_567).to_string(), "1.234567s");
    }
}
