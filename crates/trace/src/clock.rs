//! Pluggable time sources for span timestamps.
//!
//! Two clocks exist by design (DESIGN.md §7):
//!
//! * [`Clock::real`] — a monotonic wall clock (`std::time::Instant`),
//!   zeroed at tracer creation. Used by the CLI and bench binaries where
//!   human-meaningful durations matter.
//! * [`Clock::manual`] — a simulated clock that starts at zero and
//!   advances **only** when the instrumented code charges simulated time
//!   to it (e.g. the tuner's `hw_measure_s` accounting). Because every
//!   charge is a deterministic function of the session seed, traces taken
//!   on the manual clock are byte-identical across same-seed runs —
//!   timestamps included — which is what the determinism tests compare.

use std::time::Instant;

/// A time source for the tracer. See the [module docs](self).
#[derive(Debug, Clone)]
pub enum Clock {
    /// Monotonic wall clock; origin fixed at construction.
    Real {
        /// The instant that maps to `t_ns = 0`.
        origin: Instant,
    },
    /// Simulated clock: starts at 0, advances only via
    /// [`Clock::advance_ns`].
    Manual {
        /// Current simulated time, nanoseconds.
        now_ns: u64,
    },
}

impl Clock {
    /// A monotonic wall clock zeroed now.
    pub fn real() -> Self {
        Clock::Real {
            origin: Instant::now(),
        }
    }

    /// A simulated clock starting at zero.
    pub fn manual() -> Self {
        Clock::Manual { now_ns: 0 }
    }

    /// Nanoseconds since the clock's origin.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Real { origin } => origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            Clock::Manual { now_ns } => *now_ns,
        }
    }

    /// Advances a manual clock by `ns`; no-op on a real clock (wall time
    /// advances by itself).
    pub fn advance_ns(&mut self, ns: u64) {
        if let Clock::Manual { now_ns } = self {
            *now_ns = now_ns.saturating_add(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let mut c = Clock::manual();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(1_500);
        assert_eq!(c.now_ns(), 1_500);
        c.advance_ns(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX, "advance saturates");
    }

    #[test]
    fn real_clock_is_monotone() {
        let c = Clock::real();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        let mut c2 = c.clone();
        c2.advance_ns(1); // no-op on real clocks
        assert!(c2.now_ns() >= a);
    }
}
