//! Per-operator micro-benchmarks on the paper's 512×16 instance class:
//! crossover variants, mutation variants, and H2LL at 5/10 iterations.
//! These are the costs that set the evaluations-per-second currency of
//! Figure 4.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use etc_model::braun_instance;
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::local_search::H2ll;
use pa_cga_core::mutation::MutationOp;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scheduling::Schedule;

fn bench_crossover(c: &mut Criterion) {
    let inst = braun_instance("u_c_hihi.0");
    let mut rng = SmallRng::seed_from_u64(1);
    let p1 = Schedule::random(&inst, &mut rng);
    let p2 = Schedule::random(&inst, &mut rng);
    let mut offspring = p1.clone();

    let mut group = c.benchmark_group("crossover");
    for op in CrossoverOp::all() {
        group.bench_with_input(BenchmarkId::from_parameter(op.name()), &op, |b, &op| {
            b.iter(|| {
                op.recombine_into(&inst, &p1, &p2, &mut offspring, &mut rng);
                black_box(offspring.makespan())
            })
        });
    }
    group.finish();
}

fn bench_mutation(c: &mut Criterion) {
    let inst = braun_instance("u_c_hihi.0");
    let mut rng = SmallRng::seed_from_u64(2);
    let mut s = Schedule::random(&inst, &mut rng);

    let mut group = c.benchmark_group("mutation");
    for op in [MutationOp::Move, MutationOp::Swap, MutationOp::Rebalance] {
        group.bench_with_input(BenchmarkId::from_parameter(op.name()), &op, |b, &op| {
            b.iter(|| {
                op.mutate(&inst, &mut s, &mut rng);
                black_box(s.makespan())
            })
        });
    }
    group.finish();
}

fn bench_h2ll(c: &mut Criterion) {
    let inst = braun_instance("u_i_hihi.0");
    let mut rng = SmallRng::seed_from_u64(3);
    let base = Schedule::random(&inst, &mut rng);
    let mut scratch = Vec::new();

    let mut group = c.benchmark_group("h2ll");
    for iters in [1usize, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &iters| {
            let op = H2ll::with_iterations(iters);
            let mut s = base.clone();
            b.iter(|| {
                s.copy_from(&base);
                black_box(op.apply_with_scratch(&inst, &mut s, &mut rng, &mut scratch))
            })
        });
    }
    group.finish();
}

/// The frozen pre-index H2LL (full machine sort + O(T) count and pick
/// scans per iteration), A/B against `h2ll` above in the same run —
/// `BENCH_*.json` records the `h2ll_scan/N ÷ h2ll/N` speedup.
fn bench_h2ll_scan(c: &mut Criterion) {
    let inst = braun_instance("u_i_hihi.0");
    let mut rng = SmallRng::seed_from_u64(3);
    let base = Schedule::random(&inst, &mut rng);
    let mut scratch = Vec::new();

    let mut group = c.benchmark_group("h2ll_scan");
    for iters in [1usize, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &iters| {
            let op = H2ll::with_iterations(iters);
            let mut s = base.clone();
            b.iter(|| {
                s.copy_from(&base);
                black_box(op.apply_scan_with_scratch(&inst, &mut s, &mut rng, &mut scratch))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crossover, bench_mutation, bench_h2ll, bench_h2ll_scan);
criterion_main!(benches);
