//! Population seeding strategies.
//!
//! Table 1 of the paper initializes the population randomly **except one
//! individual built by Min-min**. That is [`Seeding::MinMin`]; the other
//! strategies generalize it for ablation studies (heuristic seeding is a
//! common knob in the grid-scheduling GA literature, e.g. the Xhafa
//! baselines).

use etc_model::EtcInstance;
use heuristics::Heuristic;
use scheduling::Schedule;

/// How the initial population is built (the rest is always uniformly
/// random).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeding {
    /// All individuals random.
    Random,
    /// Individual 0 is the Min-min schedule (the paper's choice).
    MinMin,
    /// The first individuals are built by *every* deterministic heuristic
    /// (OLB, MET, MCT, Min-min, Max-min, Sufferage, Duplex), in that order.
    AllHeuristics,
}

impl Seeding {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Seeding::Random => "random",
            Seeding::MinMin => "min-min",
            Seeding::AllHeuristics => "all-heuristics",
        }
    }

    /// The deterministic schedules this strategy injects (possibly empty);
    /// the engine overwrites the first `len()` individuals with them.
    pub fn seeds(self, instance: &EtcInstance) -> Vec<Schedule> {
        match self {
            Seeding::Random => Vec::new(),
            Seeding::MinMin => vec![heuristics::min_min(instance)],
            Seeding::AllHeuristics => {
                Heuristic::all().iter().map(|h| h.schedule(instance)).collect()
            }
        }
    }
}

impl std::fmt::Display for Seeding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_injects_nothing() {
        let inst = EtcInstance::toy(8, 3);
        assert!(Seeding::Random.seeds(&inst).is_empty());
    }

    #[test]
    fn min_min_injects_the_min_min_schedule() {
        let inst = EtcInstance::toy(8, 3);
        let seeds = Seeding::MinMin.seeds(&inst);
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0], heuristics::min_min(&inst));
    }

    #[test]
    fn all_heuristics_injects_one_per_heuristic() {
        let inst = EtcInstance::toy(8, 3);
        let seeds = Seeding::AllHeuristics.seeds(&inst);
        assert_eq!(seeds.len(), Heuristic::all().len());
        // Min-min present among them.
        assert!(seeds.contains(&heuristics::min_min(&inst)));
    }

    #[test]
    fn names() {
        assert_eq!(Seeding::MinMin.to_string(), "min-min");
        assert_eq!(Seeding::AllHeuristics.to_string(), "all-heuristics");
    }
}
