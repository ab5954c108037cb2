//! Local Tabu Hill-climbing (LTH) — the memetic operator of the cMA+LTH
//! baseline (Xhafa, Alba, Dorronsoro & Duran, JMMA 2008).
//!
//! A short hill climb over *task-move* neighborhoods with a tabu memory on
//! recently moved tasks: each iteration examines moving a sample of tasks
//! off the most loaded machine and applies the best strictly improving
//! non-tabu move; the moved task then becomes tabu for `tabu_tenure`
//! iterations. Compared to H2LL it searches a wider move set (any target
//! machine, several source tasks) but costs more per iteration — exactly
//! the trade-off the PA-CGA paper's cheaper H2LL was designed around.

use etc_model::EtcInstance;
use rand::Rng;
use scheduling::Schedule;
use std::collections::VecDeque;

/// The LTH operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TabuHillClimb {
    /// Hill-climbing iterations per application.
    pub iterations: usize,
    /// How many candidate source tasks to sample from the most loaded
    /// machine per iteration.
    pub sample_tasks: usize,
    /// How long (in iterations) a moved task stays tabu.
    pub tabu_tenure: usize,
}

impl Default for TabuHillClimb {
    fn default() -> Self {
        Self { iterations: 5, sample_tasks: 4, tabu_tenure: 8 }
    }
}

impl TabuHillClimb {
    /// Applies the operator in place; returns the number of accepted
    /// moves. Never increases the makespan (only strictly improving moves
    /// are accepted).
    pub fn apply(
        &self,
        instance: &EtcInstance,
        schedule: &mut Schedule,
        rng: &mut impl Rng,
    ) -> usize {
        let n_machines = schedule.n_machines();
        if n_machines < 2 {
            return 0;
        }
        let etc = instance.etc();
        let mut tabu: VecDeque<usize> = VecDeque::with_capacity(self.tabu_tenure + 1);
        let mut moves = 0;

        for _ in 0..self.iterations {
            let loaded = schedule.most_loaded_machine();
            let makespan = schedule.completion(loaded);
            // Borrowed from the task index — no per-iteration allocation.
            let n_candidates = schedule.count_on(loaded);
            if n_candidates == 0 {
                break;
            }

            // Sample source tasks (without replacement when possible).
            let mut best: Option<(usize, usize, f64)> = None; // (task, machine, new CT)
            for _ in 0..self.sample_tasks.min(n_candidates) {
                // Same single gen_range draw as the retired slice-index
                // pick, so sampling stays bit-identical.
                let task =
                    schedule.random_task_on(loaded, rng).expect("source machine is non-empty");
                if tabu.contains(&task) {
                    continue;
                }
                for mac in 0..n_machines {
                    if mac == loaded {
                        continue;
                    }
                    let new_ct = schedule.completion(mac) + etc.etc_on(mac, task);
                    // Strictly improving: the destination stays below the
                    // current makespan.
                    if new_ct < makespan && best.is_none_or(|(_, _, b)| new_ct < b) {
                        best = Some((task, mac, new_ct));
                    }
                }
            }

            match best {
                Some((task, mac, _)) => {
                    schedule.move_task(instance, task, mac);
                    moves += 1;
                    tabu.push_back(task);
                    while tabu.len() > self.tabu_tenure {
                        tabu.pop_front();
                    }
                }
                None => {
                    // Hill climbing: no improving non-tabu move, stop early.
                    break;
                }
            }
        }
        moves
    }
}

impl std::fmt::Display for TabuHillClimb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LTH(iter={}, tabu={})", self.iterations, self.tabu_tenure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::{EtcInstance, EtcMatrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scheduling::check_schedule;

    #[test]
    fn never_increases_makespan() {
        let inst = EtcInstance::toy(32, 6);
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = Schedule::random(&inst, &mut rng);
            let before = s.makespan();
            TabuHillClimb::default().apply(&inst, &mut s, &mut rng);
            assert!(s.makespan() <= before + 1e-9);
            assert!(check_schedule(&inst, &s).is_ok());
        }
    }

    #[test]
    fn improves_degenerate_schedule() {
        let inst = EtcInstance::new("u", EtcMatrix::from_fn(16, 4, |_, _| 1.0));
        let mut s = Schedule::from_assignment(&inst, vec![0; 16]);
        let mut rng = SmallRng::seed_from_u64(1);
        let op = TabuHillClimb { iterations: 12, ..Default::default() };
        let moves = op.apply(&inst, &mut s, &mut rng);
        assert!(moves > 0);
        assert!(s.makespan() < 16.0);
    }

    #[test]
    fn tabu_prevents_immediate_repeat_move() {
        // Two machines, one hot task: after moving it, it is tabu; the
        // climb must stop rather than bounce it back.
        let inst =
            EtcInstance::new("hot", EtcMatrix::from_task_major(2, 2, vec![10.0, 10.0, 1.0, 1.0]));
        let mut s = Schedule::from_assignment(&inst, vec![0, 0]);
        let mut rng = SmallRng::seed_from_u64(3);
        let op = TabuHillClimb { iterations: 10, sample_tasks: 2, tabu_tenure: 10 };
        let moves = op.apply(&inst, &mut s, &mut rng);
        // Move task 0 (or 1) across once, then no improving move remains.
        assert!(moves <= 2, "bounced: {moves} moves");
        assert!(check_schedule(&inst, &s).is_ok());
    }

    #[test]
    fn single_machine_is_noop() {
        let inst = EtcInstance::toy(8, 1);
        let mut s = Schedule::from_assignment(&inst, vec![0; 8]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(TabuHillClimb::default().apply(&inst, &mut s, &mut rng), 0);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let inst = EtcInstance::toy(8, 3);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut s = Schedule::random(&inst, &mut rng);
        let before = s.clone();
        let op = TabuHillClimb { iterations: 0, ..Default::default() };
        op.apply(&inst, &mut s, &mut rng);
        assert_eq!(s, before);
    }
}
