//! cMA+LTH — synchronous cellular memetic algorithm with local tabu
//! hill-climbing (Xhafa, Alba, Dorronsoro & Duran, JMMA 2008; ref \[20\]).
//!
//! A classic *synchronous* cellular GA (auxiliary population swapped per
//! generation) whose breeding loop ends with the [`TabuHillClimb`] memetic
//! step. Reuses PA-CGA's grid, neighborhood, selection, crossover and
//! mutation implementations so Table 2 compares algorithms, not
//! implementations.

use crate::lth::TabuHillClimb;
use etc_model::EtcInstance;
use pa_cga_core::config::Termination;
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::grid::GridTopology;
use pa_cga_core::individual::Individual;
use pa_cga_core::mutation::MutationOp;
use pa_cga_core::neighborhood::{NeighborhoodShape, NeighborhoodTable};
use pa_cga_core::rng::stream_rng;
use pa_cga_core::selection::SelectionOp;
use pa_cga_core::trace::{RunOutcome, ThreadTrace};
use rand::Rng;
use scheduling::Schedule;
use std::time::Instant;

/// cMA+LTH parameterization (defaults follow the baseline paper's
/// magnitudes: 16×16 grid, L5, binary tournament, one-point crossover 0.8,
/// move mutation 0.4, short LTH each offspring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmaLthConfig {
    /// Grid columns.
    pub grid_width: usize,
    /// Grid rows.
    pub grid_height: usize,
    /// Neighborhood shape.
    pub neighborhood: NeighborhoodShape,
    /// Parent selection.
    pub selection: SelectionOp,
    /// Crossover operator and probability.
    pub crossover: CrossoverOp,
    /// Crossover probability.
    pub p_crossover: f64,
    /// Mutation operator.
    pub mutation: MutationOp,
    /// Mutation probability.
    pub p_mutation: f64,
    /// The memetic LTH step.
    pub local_search: TabuHillClimb,
    /// Stop condition.
    pub termination: Termination,
    /// Master seed.
    pub seed: u64,
    /// Seed one individual with Min-min.
    pub seed_min_min: bool,
    /// Record per-generation traces.
    pub record_traces: bool,
}

impl Default for CmaLthConfig {
    fn default() -> Self {
        Self {
            grid_width: 16,
            grid_height: 16,
            neighborhood: NeighborhoodShape::L5,
            selection: SelectionOp::BinaryTournament,
            crossover: CrossoverOp::OnePoint,
            p_crossover: 0.8,
            mutation: MutationOp::Move,
            p_mutation: 0.4,
            local_search: TabuHillClimb::default(),
            termination: Termination::Evaluations(100_000),
            seed: 0,
            seed_min_min: true,
            record_traces: false,
        }
    }
}

/// The cMA+LTH engine.
#[derive(Debug)]
pub struct CmaLth<'a> {
    instance: &'a EtcInstance,
    config: CmaLthConfig,
}

/// Sequential engine: one weight-1 portfolio slot per run.
impl pa_cga_core::runner::Runnable for CmaLth<'_> {
    fn run_once(&self) -> RunOutcome {
        self.run()
    }
}

impl<'a> CmaLth<'a> {
    /// Binds a configuration to an instance.
    pub fn new(instance: &'a EtcInstance, config: CmaLthConfig) -> Self {
        assert!(config.grid_width > 0 && config.grid_height > 0, "grid must be non-empty");
        assert!((0.0..=1.0).contains(&config.p_crossover), "p_crossover out of range");
        assert!((0.0..=1.0).contains(&config.p_mutation), "p_mutation out of range");
        Self { instance, config }
    }

    /// Runs to termination.
    pub fn run(&self) -> RunOutcome {
        let cfg = &self.config;
        let instance = self.instance;
        let grid = GridTopology::new(cfg.grid_width, cfg.grid_height);
        let table = NeighborhoodTable::new(grid, cfg.neighborhood);
        let mut rng = stream_rng(cfg.seed, 0);

        let mut pop: Vec<Individual> = (0..grid.len())
            .map(|_| Individual::new(Schedule::random(instance, &mut rng)))
            .collect();
        if cfg.seed_min_min {
            pop[0] = Individual::new(heuristics::min_min(instance));
        }
        let mut aux = pop.clone();
        let mut evaluations = pop.len() as u64;
        let mut offspring = pop[0].clone();
        let mut snapshot: Vec<(u32, f64)> = Vec::with_capacity(cfg.neighborhood.size());
        let mut trace = ThreadTrace::default();
        let start = Instant::now();
        let mut generations = 0u64;
        let mut replacements = 0u64;

        loop {
            for i in 0..pop.len() {
                snapshot.clear();
                for &nb in table.neighbors(i) {
                    snapshot.push((nb, pop[nb as usize].fitness));
                }
                let (s0, s1) = cfg.selection.select(&snapshot, &mut rng);
                let p1 = &pop[snapshot[s0].0 as usize];
                let p2 = &pop[snapshot[s1].0 as usize];

                if rng.gen_bool(cfg.p_crossover) {
                    cfg.crossover.recombine_into(
                        instance,
                        &p1.schedule,
                        &p2.schedule,
                        &mut offspring.schedule,
                        &mut rng,
                    );
                } else {
                    offspring.schedule.copy_from(&p1.schedule);
                }
                if rng.gen_bool(cfg.p_mutation) {
                    cfg.mutation.mutate(instance, &mut offspring.schedule, &mut rng);
                }
                // The memetic step.
                cfg.local_search.apply(instance, &mut offspring.schedule, &mut rng);
                offspring.evaluate();
                evaluations += 1;

                if offspring.fitness < pop[i].fitness {
                    aux[i].copy_from(&offspring);
                    replacements += 1;
                } else {
                    aux[i].copy_from(&pop[i]);
                }
            }
            std::mem::swap(&mut pop, &mut aux);
            generations += 1;

            if cfg.record_traces {
                let sum: f64 = pop.iter().map(|ind| ind.fitness).sum();
                let best = pop.iter().map(|ind| ind.fitness).fold(f64::INFINITY, f64::min);
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
        RunOutcome {
            best,
            evaluations,
            generations: vec![generations],
            replacements: vec![replacements],
            elapsed: start.elapsed(),
            traces: vec![trace],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduling::check_schedule;

    fn config(evals: u64) -> CmaLthConfig {
        CmaLthConfig {
            grid_width: 6,
            grid_height: 6,
            termination: Termination::Evaluations(evals),
            seed: 17,
            record_traces: true,
            ..CmaLthConfig::default()
        }
    }

    #[test]
    fn deterministic() {
        let inst = EtcInstance::toy(24, 4);
        let a = CmaLth::new(&inst, config(2000)).run();
        let b = CmaLth::new(&inst, config(2000)).run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn valid_and_improves_min_min() {
        let inst = EtcInstance::toy(24, 4);
        let out = CmaLth::new(&inst, config(4000)).run();
        assert!(check_schedule(&inst, &out.best.schedule).is_ok());
        assert!(out.best.makespan() <= heuristics::min_min(&inst).makespan());
    }

    #[test]
    fn best_trace_monotone() {
        let inst = EtcInstance::toy(24, 4);
        let out = CmaLth::new(&inst, config(3000)).run();
        for w in out.traces[0].block_best.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn budget_respected() {
        let inst = EtcInstance::toy(24, 4);
        let out = CmaLth::new(&inst, config(700)).run();
        assert!(out.evaluations >= 700);
        assert!(out.evaluations <= 700 + 2 * 36);
    }
}
