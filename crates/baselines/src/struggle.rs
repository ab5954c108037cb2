//! Struggle GA (Xhafa, BIOMA 2006 — ref \[19\] of the PA-CGA paper).
//!
//! A steady-state panmictic GA whose replacement operator is the
//! distinguishing feature: the offspring *struggles* against the most
//! **similar** individual of the population and replaces it only when
//! fitter. Similarity between two schedules is the fraction of tasks
//! assigned to the same machine. Struggle replacement preserves diversity
//! in a panmictic population much like cellular structure does spatially.

use etc_model::EtcInstance;
use pa_cga_core::config::Termination;
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::individual::Individual;
use pa_cga_core::mutation::MutationOp;
use pa_cga_core::rng::stream_rng;
use pa_cga_core::trace::{RunOutcome, ThreadTrace};
use rand::Rng;
use scheduling::Schedule;
use std::time::Instant;

/// Struggle GA parameterization (defaults follow the baseline paper's
/// magnitudes: steady-state, binary tournament, one-point crossover, move
/// mutation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StruggleConfig {
    /// Population size (panmictic).
    pub pop_size: usize,
    /// Crossover probability.
    pub p_crossover: f64,
    /// Mutation probability.
    pub p_mutation: f64,
    /// Crossover operator.
    pub crossover: CrossoverOp,
    /// Mutation operator.
    pub mutation: MutationOp,
    /// Stop condition. `Generations` counts `pop_size` offspring as one
    /// generation (steady-state convention).
    pub termination: Termination,
    /// Master seed.
    pub seed: u64,
    /// Seed one individual with Min-min (same courtesy as PA-CGA).
    pub seed_min_min: bool,
    /// Record per-generation traces.
    pub record_traces: bool,
}

impl Default for StruggleConfig {
    fn default() -> Self {
        Self {
            pop_size: 256,
            p_crossover: 0.8,
            p_mutation: 0.4,
            crossover: CrossoverOp::OnePoint,
            mutation: MutationOp::Move,
            termination: Termination::Evaluations(100_000),
            seed: 0,
            seed_min_min: true,
            record_traces: false,
        }
    }
}

/// Fraction of tasks the two schedules assign to the same machine
/// (1.0 = identical assignment).
pub fn similarity(a: &Schedule, b: &Schedule) -> f64 {
    debug_assert_eq!(a.n_tasks(), b.n_tasks());
    let same = a.assignment().iter().zip(b.assignment()).filter(|(x, y)| x == y).count();
    same as f64 / a.n_tasks() as f64
}

/// The Struggle GA engine.
#[derive(Debug)]
pub struct StruggleGa<'a> {
    instance: &'a EtcInstance,
    config: StruggleConfig,
}

/// Sequential engine: one weight-1 portfolio slot per run.
impl pa_cga_core::runner::Runnable for StruggleGa<'_> {
    fn run_once(&self) -> RunOutcome {
        self.run()
    }
}

impl<'a> StruggleGa<'a> {
    /// Binds a configuration to an instance.
    pub fn new(instance: &'a EtcInstance, config: StruggleConfig) -> Self {
        assert!(config.pop_size >= 2, "population too small");
        assert!((0.0..=1.0).contains(&config.p_crossover), "p_crossover out of range");
        assert!((0.0..=1.0).contains(&config.p_mutation), "p_mutation out of range");
        Self { instance, config }
    }

    /// Runs to termination.
    pub fn run(&self) -> RunOutcome {
        self.run_with_population().0
    }

    /// Runs to termination, also returning the final population (for
    /// diversity studies).
    pub fn run_with_population(&self) -> (RunOutcome, Vec<Individual>) {
        let cfg = &self.config;
        let instance = self.instance;
        let mut rng = stream_rng(cfg.seed, 0);

        let mut pop: Vec<Individual> = (0..cfg.pop_size)
            .map(|_| Individual::new(Schedule::random(instance, &mut rng)))
            .collect();
        if cfg.seed_min_min {
            pop[0] = Individual::new(heuristics::min_min(instance));
        }
        let mut evaluations = cfg.pop_size as u64;
        let mut offspring = pop[0].clone();
        let mut trace = ThreadTrace::default();
        let start = Instant::now();
        let mut generations = 0u64;
        let mut replacements = 0u64;

        loop {
            // One steady-state "generation": pop_size struggle steps.
            for _ in 0..cfg.pop_size {
                let p1 = binary_tournament(&pop, &mut rng);
                let p2 = binary_tournament(&pop, &mut rng);
                if rng.gen_bool(cfg.p_crossover) {
                    cfg.crossover.recombine_into(
                        instance,
                        &pop[p1].schedule,
                        &pop[p2].schedule,
                        &mut offspring.schedule,
                        &mut rng,
                    );
                } else {
                    offspring.schedule.copy_from(&pop[p1].schedule);
                }
                if rng.gen_bool(cfg.p_mutation) {
                    cfg.mutation.mutate(instance, &mut offspring.schedule, &mut rng);
                }
                offspring.evaluate();
                evaluations += 1;

                // Struggle replacement: fight the most similar individual.
                let rival = most_similar(&pop, &offspring.schedule);
                if offspring.fitness < pop[rival].fitness {
                    pop[rival].copy_from(&offspring);
                    replacements += 1;
                }
            }
            generations += 1;

            if cfg.record_traces {
                let sum: f64 = pop.iter().map(|i| i.fitness).sum();
                let best = pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min);
                trace.push(sum / pop.len() as f64, best);
            }
            if cfg.termination.should_stop(start, generations, evaluations) {
                break;
            }
        }

        let best = pop
            .iter()
            .min_by(|a, b| a.fitness.partial_cmp(&b.fitness).expect("finite fitness"))
            .expect("population is non-empty")
            .clone();
        (
            RunOutcome {
                best,
                evaluations,
                generations: vec![generations],
                replacements: vec![replacements],
                elapsed: start.elapsed(),
                traces: vec![trace],
            },
            pop,
        )
    }
}

fn binary_tournament(pop: &[Individual], rng: &mut impl Rng) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if pop[a].fitness <= pop[b].fitness {
        a
    } else {
        b
    }
}

fn most_similar(pop: &[Individual], schedule: &Schedule) -> usize {
    let mut best = 0;
    let mut best_sim = f64::NEG_INFINITY;
    for (i, ind) in pop.iter().enumerate() {
        let s = similarity(&ind.schedule, schedule);
        if s > best_sim {
            best_sim = s;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduling::check_schedule;

    fn config(evals: u64) -> StruggleConfig {
        StruggleConfig {
            pop_size: 32,
            termination: Termination::Evaluations(evals),
            seed: 9,
            record_traces: true,
            ..StruggleConfig::default()
        }
    }

    #[test]
    fn similarity_bounds() {
        let inst = EtcInstance::toy(8, 3);
        let a = Schedule::round_robin(&inst);
        assert_eq!(similarity(&a, &a), 1.0);
        let b = Schedule::from_assignment(&inst, vec![2, 2, 0, 2, 2, 2, 0, 2]);
        let s = similarity(&a, &b);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn similarity_counts_matches() {
        let inst = EtcInstance::toy(4, 3);
        let a = Schedule::from_assignment(&inst, vec![0, 1, 2, 0]);
        let b = Schedule::from_assignment(&inst, vec![0, 1, 0, 1]);
        assert_eq!(similarity(&a, &b), 0.5);
    }

    #[test]
    fn deterministic_runs() {
        let inst = EtcInstance::toy(24, 4);
        let a = StruggleGa::new(&inst, config(2000)).run();
        let b = StruggleGa::new(&inst, config(2000)).run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn improves_and_stays_valid() {
        let inst = EtcInstance::toy(24, 4);
        let out = StruggleGa::new(&inst, config(3000)).run();
        assert!(check_schedule(&inst, &out.best.schedule).is_ok());
        assert!(out.best.makespan() <= heuristics::min_min(&inst).makespan());
        // Best trace is monotone: struggle replacement never discards the
        // population best in favor of a worse offspring.
        for w in out.traces[0].block_best.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn evaluation_budget_respected() {
        let inst = EtcInstance::toy(24, 4);
        let out = StruggleGa::new(&inst, config(500)).run();
        assert!(out.evaluations >= 500);
        assert!(out.evaluations <= 500 + 32 + 32);
    }

    #[test]
    #[should_panic(expected = "population too small")]
    fn tiny_population_rejected() {
        let inst = EtcInstance::toy(4, 2);
        StruggleGa::new(&inst, StruggleConfig { pop_size: 1, ..StruggleConfig::default() });
    }
}
