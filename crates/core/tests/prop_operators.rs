//! Property tests on the PA-CGA operators: every operator must preserve
//! the schedule invariant, and H2LL must never worsen the makespan.

use etc_model::{Consistency, EtcGenerator, EtcInstance, GeneratorParams, Heterogeneity};
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::local_search::H2ll;
use pa_cga_core::mutation::MutationOp;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scheduling::{check_schedule, OffspringBatch, Schedule};

const N_TASKS: usize = 40;
const N_MACHINES: usize = 7;

fn instance(seed: u64, consistency: Consistency) -> EtcInstance {
    EtcGenerator::new(GeneratorParams {
        n_tasks: N_TASKS,
        n_machines: N_MACHINES,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency,
        seed,
    })
    .generate()
}

fn consistency_strategy() -> impl Strategy<Value = Consistency> {
    prop_oneof![
        Just(Consistency::Consistent),
        Just(Consistency::SemiConsistent),
        Just(Consistency::Inconsistent),
    ]
}

proptest! {
    #[test]
    fn crossover_offspring_always_valid(
        inst_seed in 0u64..20,
        rng_seed in 0u64..1000,
        consistency in consistency_strategy(),
        a1 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
        a2 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        let inst = instance(inst_seed, consistency);
        let p1 = Schedule::from_assignment(&inst, a1);
        let p2 = Schedule::from_assignment(&inst, a2);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        for op in CrossoverOp::all() {
            let off = op.recombine(&inst, &p1, &p2, &mut rng);
            prop_assert!(check_schedule(&inst, &off).is_ok(), "{op}");
            // Every gene from a parent.
            for t in 0..N_TASKS {
                let g = off.machine_of(t);
                prop_assert!(g == p1.machine_of(t) || g == p2.machine_of(t));
            }
        }
    }

    #[test]
    fn mutation_preserves_validity(
        inst_seed in 0u64..20,
        rng_seed in 0u64..1000,
        assignment in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        let inst = instance(inst_seed, Consistency::Inconsistent);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        for op in [MutationOp::Move, MutationOp::Swap, MutationOp::Rebalance] {
            let mut s = Schedule::from_assignment(&inst, assignment.clone());
            op.mutate(&inst, &mut s, &mut rng);
            prop_assert!(check_schedule(&inst, &s).is_ok(), "{op}");
        }
    }

    #[test]
    fn h2ll_never_increases_makespan(
        inst_seed in 0u64..20,
        rng_seed in 0u64..1000,
        iterations in 0usize..20,
        n_candidates in proptest::option::of(1usize..N_MACHINES + 2),
        consistency in consistency_strategy(),
        assignment in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        let inst = instance(inst_seed, consistency);
        let mut s = Schedule::from_assignment(&inst, assignment);
        let before = s.makespan();
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let op = H2ll { iterations, n_candidates };
        op.apply(&inst, &mut s, &mut rng);
        prop_assert!(s.makespan() <= before * (1.0 + 1e-12) + 1e-9,
            "H2LL worsened makespan: {before} -> {}", s.makespan());
        prop_assert!(check_schedule(&inst, &s).is_ok());
    }

    #[test]
    fn h2ll_accepted_moves_strictly_improve_or_hold(
        inst_seed in 0u64..10,
        rng_seed in 0u64..200,
        assignment in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        // Makespan after each single iteration is monotonically
        // non-increasing.
        let inst = instance(inst_seed, Consistency::Inconsistent);
        let mut s = Schedule::from_assignment(&inst, assignment);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let op = H2ll::with_iterations(1);
        let mut last = s.makespan();
        for _ in 0..10 {
            op.apply(&inst, &mut s, &mut rng);
            let now = s.makespan();
            prop_assert!(now <= last + 1e-9);
            last = now;
        }
    }

    #[test]
    fn h2ll_indexed_is_trace_identical_to_scan_reference(
        rng_seed in 0u64..300,
        assignment in proptest::collection::vec(0u32..3, 24),
    ) {
        // Same seed -> same moves: applied one iteration at a time, the
        // indexed implementation and the frozen pre-index scan must pick
        // the same task, the same target machine, and consume the same
        // randomness at every step (the toy instance has no ready times,
        // so the empty-most-loaded-machine divergence cannot trigger).
        let inst = EtcInstance::toy(24, 3);
        let mut indexed = Schedule::from_assignment(&inst, assignment.clone());
        let mut scan = Schedule::from_assignment(&inst, assignment);
        let mut rng_a = SmallRng::seed_from_u64(rng_seed);
        let mut rng_b = SmallRng::seed_from_u64(rng_seed);
        let op = H2ll::with_iterations(1);
        let mut scratch = Vec::new();
        for step in 0..30 {
            let ma = op.apply(&inst, &mut indexed, &mut rng_a);
            let mb = op.apply_scan_with_scratch(&inst, &mut scan, &mut rng_b, &mut scratch);
            prop_assert_eq!(ma, mb, "move count diverged at step {}", step);
            prop_assert_eq!(indexed.assignment(), scan.assignment(),
                "assignments diverged at step {}", step);
        }
        prop_assert_eq!(&indexed, &scan);
    }

    #[test]
    fn operator_pipeline_preserves_validity(
        inst_seed in 0u64..10,
        rng_seed in 0u64..200,
        a1 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
        a2 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        // The full breeding pipeline: crossover -> mutation -> H2LL.
        let inst = instance(inst_seed, Consistency::SemiConsistent);
        let p1 = Schedule::from_assignment(&inst, a1);
        let p2 = Schedule::from_assignment(&inst, a2);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mut off = CrossoverOp::TwoPoint.recombine(&inst, &p1, &p2, &mut rng);
        MutationOp::Move.mutate(&inst, &mut off, &mut rng);
        H2ll::with_iterations(10).apply(&inst, &mut off, &mut rng);
        prop_assert!(check_schedule(&inst, &off).is_ok());
    }

    /// Delta differential (ISSUE 6): after every operator in the breeding
    /// pipeline, the incrementally maintained CT vector and the O(1)
    /// tracked-argmax makespan are bit-identical to a from-scratch
    /// rebuild, for all operator variants.
    #[test]
    fn pipeline_delta_state_matches_oracle_after_every_operator(
        inst_seed in 0u64..10,
        rng_seed in 0u64..300,
        consistency in consistency_strategy(),
        a1 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
        a2 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        let inst_for_check = instance(inst_seed, consistency);
        let inst = &inst_for_check;
        let oracle_check = |s: &Schedule, ctx: &str| {
            let oracle = Schedule::from_assignment(inst, s.assignment().to_vec());
            for m in 0..N_MACHINES {
                assert_eq!(s.completion(m).to_bits(), oracle.completion(m).to_bits(),
                    "{ctx}: CT[{m}] diverged");
            }
            assert_eq!(s.makespan().to_bits(), s.makespan_full().to_bits(), "{ctx}: argmax");
            assert_eq!(s.makespan().to_bits(), oracle.makespan_full().to_bits(), "{ctx}");
        };
        let p1 = Schedule::from_assignment(inst, a1);
        let p2 = Schedule::from_assignment(inst, a2);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        for xop in CrossoverOp::all() {
            let mut off = xop.recombine(inst, &p1, &p2, &mut rng);
            oracle_check(&off, "after crossover");
            for mop in [MutationOp::Move, MutationOp::Swap, MutationOp::Rebalance] {
                mop.mutate(inst, &mut off, &mut rng);
                oracle_check(&off, "after mutation");
            }
            H2ll::with_iterations(5).apply(inst, &mut off, &mut rng);
            oracle_check(&off, "after H2LL");
        }
    }

    /// Batched-path differential: the gene-level compose/mutate variants
    /// plus the slab evaluation produce offspring bit-identical (genes,
    /// CT, fitness) to the schedule-level operators fed the same RNG
    /// stream.
    #[test]
    fn batched_gene_path_is_bitwise_identical_to_schedule_path(
        inst_seed in 0u64..10,
        rng_seed in 0u64..300,
        consistency in consistency_strategy(),
        a1 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
        a2 in proptest::collection::vec(0u32..N_MACHINES as u32, N_TASKS),
    ) {
        let inst = instance(inst_seed, consistency);
        let p1 = Schedule::from_assignment(&inst, a1);
        let p2 = Schedule::from_assignment(&inst, a2);
        for xop in CrossoverOp::all() {
            for mop in [MutationOp::Move, MutationOp::Swap, MutationOp::Rebalance] {
                // Schedule path.
                let mut r1 = SmallRng::seed_from_u64(rng_seed);
                let mut off = xop.recombine(&inst, &p1, &p2, &mut r1);
                mop.mutate(&inst, &mut off, &mut r1);
                // Gene/slab path, same RNG stream.
                let mut r2 = SmallRng::seed_from_u64(rng_seed);
                let mut batch = OffspringBatch::new(&inst, 1);
                let row = batch.push_parent(
                    p1.assignment(), p1.completion_times(), p1.makespan());
                xop.compose_into(p2.assignment(), batch.genes_mut(row), &mut r2);
                mop.mutate_row(&inst, &mut batch, row, &mut r2);
                batch.evaluate(&inst);
                prop_assert_eq!(off.assignment(), batch.genes(row), "{} + {}", xop, mop);
                prop_assert_eq!(
                    off.makespan().to_bits(), batch.fitness(row).to_bits(),
                    "{} + {}", xop, mop);
                for m in 0..N_MACHINES {
                    prop_assert_eq!(
                        off.completion(m).to_bits(),
                        batch.completion_row(row)[m].to_bits());
                }
                prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "RNG streams diverged");
            }
        }
    }
}
