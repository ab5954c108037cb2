//! Cell update (sweep) policies within a block.
//!
//! The paper fixes the **line sweep** order in every block: each thread
//! visits its individuals in row-major index order, every generation. The
//! authors tried per-block alternative orders to reduce memory contention
//! and measured no improvement (§3.2); the alternatives are kept here so
//! that experiment can be rerun.

use rand::seq::SliceRandom;
use rand::Rng;

/// Order in which a thread visits the cells of its block each generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPolicy {
    /// Ascending index order (the paper's policy).
    LineSweep,
    /// Descending index order.
    ReverseLineSweep,
    /// A fresh uniform permutation every generation ("new random sweep").
    RandomSweep,
}

impl SweepPolicy {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            SweepPolicy::LineSweep => "line-sweep",
            SweepPolicy::ReverseLineSweep => "reverse-line-sweep",
            SweepPolicy::RandomSweep => "random-sweep",
        }
    }

    /// Fills `order` with the visit order for a block spanning
    /// `range` (global indices).
    pub fn order_into(
        self,
        range: std::ops::Range<usize>,
        order: &mut Vec<usize>,
        rng: &mut impl Rng,
    ) {
        order.clear();
        order.extend(range);
        match self {
            SweepPolicy::LineSweep => {}
            SweepPolicy::ReverseLineSweep => order.reverse(),
            SweepPolicy::RandomSweep => order.shuffle(rng),
        }
    }
}

impl std::fmt::Display for SweepPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn line_sweep_is_ascending() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut order = Vec::new();
        SweepPolicy::LineSweep.order_into(4..9, &mut order, &mut rng);
        assert_eq!(order, vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn reverse_is_descending() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut order = Vec::new();
        SweepPolicy::ReverseLineSweep.order_into(4..9, &mut order, &mut rng);
        assert_eq!(order, vec![8, 7, 6, 5, 4]);
    }

    #[test]
    fn random_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut order = Vec::new();
        SweepPolicy::RandomSweep.order_into(0..32, &mut order, &mut rng);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn random_differs_between_generations() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        SweepPolicy::RandomSweep.order_into(0..64, &mut a, &mut rng);
        SweepPolicy::RandomSweep.order_into(0..64, &mut b, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn buffer_reuse_clears_previous() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut order = vec![99, 98];
        SweepPolicy::LineSweep.order_into(0..3, &mut order, &mut rng);
        assert_eq!(order, vec![0, 1, 2]);
    }
}
