//! Machine failure (drop) traces.
//!
//! The ETC model's dynamic side: a machine drops at a given time and never
//! returns within the run (the paper's non-preemptive "unless it drops
//! from the grid" clause). Traces are either explicit or sampled.

use rand::Rng;

/// A set of machine-drop events (at most one per machine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureTrace {
    /// `(machine, time)` drop events, sorted by time.
    events: Vec<(usize, f64)>,
}

impl FailureTrace {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Explicit events. Later duplicates for the same machine are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics on duplicate machines, negative or non-finite times.
    pub fn new(mut events: Vec<(usize, f64)>) -> Self {
        for &(m, t) in &events {
            assert!(t.is_finite() && t >= 0.0, "bad failure time {t} for machine {m}");
        }
        events.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
        let mut seen = std::collections::HashSet::new();
        for &(m, _) in &events {
            assert!(seen.insert(m), "machine {m} fails twice");
        }
        Self { events }
    }

    /// Samples failures: each machine independently drops with probability
    /// `p_fail`, at a uniform time in `[0, horizon)`.
    pub fn sample(n_machines: usize, p_fail: f64, horizon: f64, rng: &mut impl Rng) -> Self {
        assert!((0.0..=1.0).contains(&p_fail), "p_fail out of range");
        assert!(horizon > 0.0, "horizon must be positive");
        let mut events = Vec::new();
        for m in 0..n_machines {
            if rng.gen_bool(p_fail) {
                events.push((m, rng.gen_range(0.0..horizon)));
            }
        }
        Self::new(events)
    }

    /// Drop events in time order.
    pub fn events(&self) -> &[(usize, f64)] {
        &self.events
    }

    /// Drop time of `machine`, if it fails.
    pub fn drop_time(&self, machine: usize) -> Option<f64> {
        self.events.iter().find(|&&(m, _)| m == machine).map(|&(_, t)| t)
    }

    /// Number of failing machines.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no machine fails.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn events_sorted_by_time() {
        let t = FailureTrace::new(vec![(2, 9.0), (0, 1.0), (1, 4.0)]);
        let times: Vec<f64> = t.events().iter().map(|&(_, t)| t).collect();
        assert_eq!(times, vec![1.0, 4.0, 9.0]);
    }

    #[test]
    fn drop_time_lookup() {
        let t = FailureTrace::new(vec![(3, 5.0)]);
        assert_eq!(t.drop_time(3), Some(5.0));
        assert_eq!(t.drop_time(0), None);
    }

    #[test]
    fn sampling_respects_probability_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(FailureTrace::sample(16, 0.0, 100.0, &mut rng).is_empty());
        let all = FailureTrace::sample(16, 1.0, 100.0, &mut rng);
        assert_eq!(all.len(), 16);
        for &(_, t) in all.events() {
            assert!((0.0..100.0).contains(&t));
        }
    }

    #[test]
    fn sampling_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        assert_eq!(
            FailureTrace::sample(8, 0.5, 10.0, &mut a),
            FailureTrace::sample(8, 0.5, 10.0, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "fails twice")]
    fn duplicate_machine_rejected() {
        FailureTrace::new(vec![(1, 2.0), (1, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "bad failure time")]
    fn negative_time_rejected() {
        FailureTrace::new(vec![(1, -2.0)]);
    }
}
