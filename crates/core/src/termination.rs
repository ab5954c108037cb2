//! Stop conditions.
//!
//! The paper terminates on wall-clock time (90 s, checked by each thread
//! after every full block sweep — Algorithm 3 line 1). Generation and
//! evaluation budgets are additionally supported: evaluation budgets make
//! single-threaded runs deterministic, which the test suite relies on.

use std::time::{Duration, Instant};

/// When a run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Stop after this much wall-clock time (the paper's criterion),
    /// checked at block-generation granularity.
    WallTime(Duration),
    /// Stop after each thread has evolved its block this many generations.
    Generations(u64),
    /// Stop once the *global* evaluation counter reaches this budget,
    /// checked at block-generation granularity.
    Evaluations(u64),
}

impl Termination {
    /// Convenience constructor from milliseconds.
    pub fn wall_time_ms(ms: u64) -> Self {
        Termination::WallTime(Duration::from_millis(ms))
    }

    /// Should a thread stop, given the run start time, its own generation
    /// count, and the global evaluation count?
    #[inline]
    pub fn should_stop(&self, start: Instant, generations: u64, evaluations: u64) -> bool {
        match *self {
            Termination::WallTime(limit) => start.elapsed() >= limit,
            Termination::Generations(g) => generations >= g,
            Termination::Evaluations(e) => evaluations >= e,
        }
    }

    /// The evaluation budget when this is an evaluation-bounded stop,
    /// `None` otherwise. The engines use it for the *mid-sweep* budget
    /// check: wall-time and generation stops are only meaningful at sweep
    /// boundaries, but an evaluation budget can (and should) halt a sweep
    /// partway to keep the overshoot bound independent of the block size.
    #[inline]
    pub fn evaluation_budget(&self) -> Option<u64> {
        match *self {
            Termination::Evaluations(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::WallTime(d) => write!(f, "wall-time {:.1}s", d.as_secs_f64()),
            Termination::Generations(g) => write!(f, "{g} generations"),
            Termination::Evaluations(e) => write!(f, "{e} evaluations"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_budget() {
        let t = Termination::Generations(10);
        let start = Instant::now();
        assert!(!t.should_stop(start, 9, 0));
        assert!(t.should_stop(start, 10, 0));
    }

    #[test]
    fn evaluation_budget() {
        let t = Termination::Evaluations(1000);
        let start = Instant::now();
        assert!(!t.should_stop(start, 0, 999));
        assert!(t.should_stop(start, 0, 1000));
    }

    #[test]
    fn evaluation_budget_accessor() {
        assert_eq!(Termination::Evaluations(7).evaluation_budget(), Some(7));
        assert_eq!(Termination::Generations(7).evaluation_budget(), None);
        assert_eq!(Termination::wall_time_ms(7).evaluation_budget(), None);
    }

    #[test]
    fn wall_time_zero_stops_immediately() {
        let t = Termination::WallTime(Duration::ZERO);
        assert!(t.should_stop(Instant::now(), 0, 0));
    }

    #[test]
    fn wall_time_future_does_not_stop() {
        let t = Termination::WallTime(Duration::from_secs(3600));
        assert!(!t.should_stop(Instant::now(), u64::MAX, u64::MAX));
    }

    #[test]
    fn display() {
        assert_eq!(Termination::wall_time_ms(1500).to_string(), "wall-time 1.5s");
        assert_eq!(Termination::Generations(5).to_string(), "5 generations");
        assert_eq!(Termination::Evaluations(9).to_string(), "9 evaluations");
    }
}
