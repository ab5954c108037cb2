//! Mutation operators.
//!
//! The paper's mutation **moves one randomly chosen task to a randomly
//! chosen machine** (Table 1, p_mut = 1.0). Swap and rebalance variants
//! are provided for ablation studies.

use etc_model::EtcInstance;
use rand::Rng;
use scheduling::{OffspringBatch, Schedule};

/// Mutation policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Move a random task to a random machine (the paper's operator).
    Move,
    /// Swap the machines of two random tasks.
    Swap,
    /// Move a random task *off the most loaded machine* to a random
    /// machine — a makespan-aware variant.
    Rebalance,
}

impl MutationOp {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::Move => "move",
            MutationOp::Swap => "swap",
            MutationOp::Rebalance => "rebalance",
        }
    }

    /// Mutates `schedule` in place.
    pub fn mutate(self, instance: &EtcInstance, schedule: &mut Schedule, rng: &mut impl Rng) {
        let n = schedule.n_tasks();
        let m = schedule.n_machines();
        match self {
            MutationOp::Move => {
                let t = rng.gen_range(0..n);
                let mac = rng.gen_range(0..m);
                schedule.move_task(instance, t, mac);
            }
            MutationOp::Swap => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                schedule.swap_tasks(instance, a, b);
            }
            MutationOp::Rebalance => {
                // O(1) pick via the task index (the retired tasks_on call
                // allocated and scanned every task).
                let loaded = schedule.most_loaded_machine();
                let Some(t) = schedule.random_task_on(loaded, rng) else {
                    return;
                };
                let mac = rng.gen_range(0..m);
                schedule.move_task(instance, t, mac);
            }
        }
    }

    /// Gene-level mutation against a batch slab row — the batched engine
    /// path. Consumes *exactly* the RNG draws of [`MutationOp::mutate`]
    /// in the same order (including the conditional draws of
    /// `Rebalance`), and leaves the row's genes exactly as `mutate` would
    /// leave a materialized schedule's assignment. Gene writes that don't
    /// change the assignment are skipped so an evaluated row is not
    /// marked stale by a no-op (matching `move_task`'s same-machine
    /// early return).
    pub fn mutate_row(
        self,
        instance: &EtcInstance,
        batch: &mut OffspringBatch,
        row: usize,
        rng: &mut impl Rng,
    ) {
        let n = instance.n_tasks();
        let m = instance.n_machines();
        match self {
            MutationOp::Move => {
                let t = rng.gen_range(0..n);
                let mac = rng.gen_range(0..m) as u32;
                if batch.genes(row)[t] != mac {
                    batch.genes_mut(row)[t] = mac;
                }
            }
            MutationOp::Swap => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if batch.genes(row)[a] != batch.genes(row)[b] {
                    batch.genes_mut(row).swap(a, b);
                }
            }
            MutationOp::Rebalance => {
                // Needs this row's completion times; a stale row gets the
                // immediate single-row evaluation.
                batch.evaluate_row(instance, row);
                let loaded = batch.most_loaded(row) as u32;
                // Replays random_task_on's single draw: count the tasks
                // on the loaded machine, draw `k`, take the k-th in
                // ascending task order.
                let count = batch.genes(row).iter().filter(|&&g| g == loaded).count();
                if count == 0 {
                    return;
                }
                let k = rng.gen_range(0..count);
                let t = batch
                    .genes(row)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &g)| g == loaded)
                    .nth(k)
                    .map(|(t, _)| t)
                    .expect("k < count");
                let mac = rng.gen_range(0..m) as u32;
                if batch.genes(row)[t] != mac {
                    batch.genes_mut(row)[t] = mac;
                }
            }
        }
    }
}

impl std::fmt::Display for MutationOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::EtcInstance;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scheduling::check_schedule;

    #[test]
    fn all_mutations_preserve_validity() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(4);
        for op in [MutationOp::Move, MutationOp::Swap, MutationOp::Rebalance] {
            let mut s = Schedule::random(&inst, &mut rng);
            for _ in 0..500 {
                op.mutate(&inst, &mut s, &mut rng);
            }
            assert!(check_schedule(&inst, &s).is_ok(), "{op}");
        }
    }

    #[test]
    fn move_changes_at_most_one_task() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(8);
        let s0 = Schedule::random(&inst, &mut rng);
        let mut s = s0.clone();
        MutationOp::Move.mutate(&inst, &mut s, &mut rng);
        let diffs = s0.assignment().iter().zip(s.assignment()).filter(|(a, b)| a != b).count();
        assert!(diffs <= 1);
    }

    #[test]
    fn swap_changes_at_most_two_tasks() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(8);
        let s0 = Schedule::random(&inst, &mut rng);
        let mut s = s0.clone();
        MutationOp::Swap.mutate(&inst, &mut s, &mut rng);
        let diffs = s0.assignment().iter().zip(s.assignment()).filter(|(a, b)| a != b).count();
        assert!(diffs == 0 || diffs == 2, "diffs = {diffs}");
    }

    #[test]
    fn mutate_row_matches_mutate_draw_for_draw() {
        let inst = EtcInstance::toy(24, 5);
        let mut setup = SmallRng::seed_from_u64(17);
        for op in [MutationOp::Move, MutationOp::Swap, MutationOp::Rebalance] {
            for seed in 0..50 {
                let s0 = Schedule::random(&inst, &mut setup);
                let mut s = s0.clone();
                let mut r1 = SmallRng::seed_from_u64(seed);
                op.mutate(&inst, &mut s, &mut r1);

                let mut batch = OffspringBatch::new(&inst, 1);
                let row = batch.push_parent(s0.assignment(), s0.completion_times(), s0.makespan());
                let mut r2 = SmallRng::seed_from_u64(seed);
                op.mutate_row(&inst, &mut batch, row, &mut r2);
                batch.evaluate(&inst);

                assert_eq!(s.assignment(), batch.genes(row), "{op} seed {seed}");
                assert_eq!(s.makespan().to_bits(), batch.fitness(row).to_bits(), "{op}");
                // Both paths must leave the RNG in the same state.
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{op} seed {seed}");
            }
        }
    }

    #[test]
    fn rebalance_moves_from_most_loaded() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(8);
        let s0 = Schedule::random(&inst, &mut rng);
        let loaded = s0.most_loaded_machine();
        let mut s = s0.clone();
        MutationOp::Rebalance.mutate(&inst, &mut s, &mut rng);
        // The changed task (if any) must have been on the most loaded machine.
        for t in 0..inst.n_tasks() {
            if s.machine_of(t) != s0.machine_of(t) {
                assert_eq!(s0.machine_of(t), loaded);
            }
        }
    }
}
