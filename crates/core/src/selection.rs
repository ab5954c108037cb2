//! Parent selection within a neighborhood.
//!
//! Selection operates on a *snapshot* of `(index, fitness)` pairs read
//! under brief per-individual read locks — it never holds two locks at
//! once, which is what makes the engine deadlock-free by construction.
//! The paper selects the **best 2** neighbors as parents (Table 1).

use rand::Rng;

/// Parent-selection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionOp {
    /// The two fittest cells of the neighborhood (the paper's policy).
    BestTwo,
    /// Two independent binary tournaments over the neighborhood.
    BinaryTournament,
    /// The evolved cell itself plus its best neighbor.
    CenterPlusBest,
}

impl SelectionOp {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            SelectionOp::BestTwo => "best-2",
            SelectionOp::BinaryTournament => "binary-tournament",
            SelectionOp::CenterPlusBest => "center+best",
        }
    }

    /// Picks two parents from the neighborhood snapshot; returns positions
    /// **into the snapshot** (not grid indices). The snapshot's entry 0 is
    /// the evolved cell itself. The two parents are distinct snapshot
    /// positions whenever the snapshot has ≥ 2 entries.
    ///
    /// # Panics
    ///
    /// Panics on an empty snapshot.
    pub fn select(self, snapshot: &[(u32, f64)], rng: &mut impl Rng) -> (usize, usize) {
        assert!(!snapshot.is_empty(), "empty neighborhood snapshot");
        if snapshot.len() == 1 {
            return (0, 0);
        }
        match self {
            SelectionOp::BestTwo => {
                let (mut b0, mut b1) = if snapshot[0].1 <= snapshot[1].1 { (0, 1) } else { (1, 0) };
                for i in 2..snapshot.len() {
                    let f = snapshot[i].1;
                    if f < snapshot[b0].1 {
                        b1 = b0;
                        b0 = i;
                    } else if f < snapshot[b1].1 {
                        b1 = i;
                    }
                }
                (b0, b1)
            }
            SelectionOp::BinaryTournament => {
                fn tournament(snapshot: &[(u32, f64)], rng: &mut impl Rng) -> usize {
                    let a = rng.gen_range(0..snapshot.len());
                    let b = rng.gen_range(0..snapshot.len());
                    if snapshot[a].1 <= snapshot[b].1 {
                        a
                    } else {
                        b
                    }
                }
                let p0 = tournament(snapshot, rng);
                let mut p1 = tournament(snapshot, rng);
                let mut tries = 0;
                while p1 == p0 && tries < 8 {
                    p1 = tournament(snapshot, rng);
                    tries += 1;
                }
                if p1 == p0 {
                    p1 = (p0 + 1) % snapshot.len();
                }
                (p0, p1)
            }
            SelectionOp::CenterPlusBest => {
                let mut best = 1;
                for i in 2..snapshot.len() {
                    if snapshot[i].1 < snapshot[best].1 {
                        best = i;
                    }
                }
                (0, best)
            }
        }
    }
}

impl std::fmt::Display for SelectionOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn snapshot() -> Vec<(u32, f64)> {
        // Cell 10 (self, fitness 5), neighbors with varying fitness.
        vec![(10, 5.0), (11, 3.0), (12, 9.0), (13, 1.0), (14, 4.0)]
    }

    #[test]
    fn best_two_finds_the_two_fittest() {
        let mut rng = SmallRng::seed_from_u64(0);
        let (p0, p1) = SelectionOp::BestTwo.select(&snapshot(), &mut rng);
        assert_eq!(snapshot()[p0].0, 13); // fitness 1.0
        assert_eq!(snapshot()[p1].0, 11); // fitness 3.0
        assert_ne!(p0, p1);
    }

    #[test]
    fn best_two_handles_ties_stably() {
        let snap = vec![(0, 2.0), (1, 2.0), (2, 2.0)];
        let mut rng = SmallRng::seed_from_u64(0);
        let (p0, p1) = SelectionOp::BestTwo.select(&snap, &mut rng);
        assert_ne!(p0, p1);
    }

    #[test]
    fn center_plus_best() {
        let mut rng = SmallRng::seed_from_u64(0);
        let (p0, p1) = SelectionOp::CenterPlusBest.select(&snapshot(), &mut rng);
        assert_eq!(p0, 0);
        assert_eq!(snapshot()[p1].0, 13);
    }

    #[test]
    fn tournament_returns_distinct_positions() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let (p0, p1) = SelectionOp::BinaryTournament.select(&snapshot(), &mut rng);
            assert_ne!(p0, p1);
            assert!(p0 < 5 && p1 < 5);
        }
    }

    #[test]
    fn tournament_prefers_fit_individuals() {
        let mut rng = SmallRng::seed_from_u64(7);
        let snap = snapshot();
        let mut wins = vec![0usize; snap.len()];
        for _ in 0..2000 {
            let (p0, _) = SelectionOp::BinaryTournament.select(&snap, &mut rng);
            wins[p0] += 1;
        }
        // The fittest (pos 3) must be selected more often than the least
        // fit (pos 2).
        assert!(wins[3] > wins[2]);
    }

    #[test]
    fn singleton_snapshot() {
        let mut rng = SmallRng::seed_from_u64(0);
        let snap = vec![(7, 1.0)];
        for op in [SelectionOp::BestTwo, SelectionOp::BinaryTournament, SelectionOp::CenterPlusBest]
        {
            assert_eq!(op.select(&snap, &mut rng), (0, 0), "{op}");
        }
    }

    #[test]
    #[should_panic(expected = "empty neighborhood")]
    fn empty_snapshot_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        SelectionOp::BestTwo.select(&[], &mut rng);
    }
}
