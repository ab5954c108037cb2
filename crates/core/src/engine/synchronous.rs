//! The sequential **synchronous** cellular GA.
//!
//! Offspring are written to an auxiliary population and swapped in all at
//! once per generation, so every selection decision sees the *previous*
//! generation. The paper (§3.1, citing \[1\], \[14\]) notes the asynchronous
//! model converges faster; the `async_vs_sync` harness reproduces that
//! comparison against [`super::PaCga`] with one thread.

use crate::config::PaCgaConfig;
use crate::engine::parallel::EVAL_FLUSH_EVERY;
use crate::grid::GridTopology;
use crate::neighborhood::NeighborhoodTable;
use crate::rng::stream_rng;
use crate::trace::{RunOutcome, ThreadTrace};
use etc_model::EtcInstance;
use rand::Rng;
use scheduling::OffspringBatch;
use std::time::Instant;

/// Sequential synchronous cellular GA sharing the PA-CGA operator set and
/// configuration type (`threads` is ignored; the model is sequential by
/// definition).
#[derive(Debug)]
pub struct SyncCga<'a> {
    instance: &'a EtcInstance,
    config: PaCgaConfig,
}

impl<'a> SyncCga<'a> {
    /// Binds a validated configuration to an instance.
    pub fn new(instance: &'a EtcInstance, config: PaCgaConfig) -> Self {
        config.validate();
        Self { instance, config }
    }

    /// Runs to termination.
    pub fn run(&self) -> RunOutcome {
        self.run_with_population().0
    }

    /// Runs to termination, also returning the final population (for
    /// diversity studies and invariant audits).
    pub fn run_with_population(&self) -> (RunOutcome, Vec<crate::individual::Individual>) {
        self.run_internal(None)
    }

    /// Warm-start: evolves an existing population (fitness trusted as
    /// cached; initial evaluations not re-charged — same contract as
    /// [`crate::engine::PaCga::run_seeded`]).
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not match the configured population size.
    pub fn run_seeded(
        &self,
        initial: Vec<crate::individual::Individual>,
    ) -> (RunOutcome, Vec<crate::individual::Individual>) {
        assert_eq!(
            initial.len(),
            self.config.population_size(),
            "warm-start population size mismatch"
        );
        self.run_internal(Some(initial))
    }

    fn run_internal(
        &self,
        initial: Option<Vec<crate::individual::Individual>>,
    ) -> (RunOutcome, Vec<crate::individual::Individual>) {
        let cfg = &self.config;
        let instance = self.instance;
        let grid = GridTopology::new(cfg.grid_width, cfg.grid_height);
        let table = NeighborhoodTable::new(grid, cfg.neighborhood);
        let mut rng = stream_rng(cfg.seed, 0);

        let warm = initial.is_some();
        let mut pop = initial.unwrap_or_else(|| super::init_population(instance, cfg));
        let mut aux = pop.clone();
        // A warm-started population was already evaluated by its producer.
        let mut evaluations = if warm { 0 } else { pop.len() as u64 };
        let mut snapshot: Vec<(u32, f64)> = Vec::with_capacity(cfg.neighborhood.size());
        let mut ls_scratch: Vec<usize> = Vec::with_capacity(instance.n_machines());
        let mut offspring = pop[0].clone();
        let mut batch = OffspringBatch::new(instance, cfg.eval_batch);
        // Per-row stage-3 metadata: run local search on this row?
        let mut meta: Vec<bool> = Vec::with_capacity(cfg.eval_batch);
        let mut trace = ThreadTrace::default();
        let start = Instant::now();
        let mut generations = 0u64;
        let mut replacements = 0u64;
        let budget = cfg.termination.evaluation_budget();
        // Cells evolved since the last mid-sweep budget check (same
        // cadence as the parallel engine's sharded flush).
        let mut since_check = 0u64;

        'run: loop {
            // Chunked like the parallel engine (DESIGN.md §9): stage 1
            // draws selection + gene-level variation per cell, stage 2
            // evaluates the chunk in one cache-hot slab pass, stage 3 runs
            // H2LL and replacement. eval_batch = 1 collapses to the
            // retired per-offspring loop draw for draw. The synchronous
            // model is unaffected by within-chunk staleness — selection
            // always reads the immutable OLD population.
            let mut kbase = 0;
            while kbase < pop.len() {
                let chunk = (pop.len() - kbase).min(cfg.eval_batch);
                batch.clear();
                meta.clear();

                for j in 0..chunk {
                    let i = kbase + j;
                    snapshot.clear();
                    for &nb in table.neighbors(i) {
                        snapshot.push((nb, pop[nb as usize].fitness));
                    }
                    let (s0, s1) = cfg.selection.select(&snapshot, &mut rng);
                    let p1 = &pop[snapshot[s0].0 as usize];
                    let row = batch.push_parent(
                        p1.schedule.assignment(),
                        p1.schedule.completion_times(),
                        p1.fitness,
                    );
                    if rng.gen_bool(cfg.p_crossover) {
                        let g2 = pop[snapshot[s1].0 as usize].schedule.assignment();
                        cfg.crossover.compose_into(g2, batch.genes_mut(row), &mut rng);
                    }
                    if rng.gen_bool(cfg.p_mutation) {
                        cfg.mutation.mutate_row(instance, &mut batch, row, &mut rng);
                    }
                    let ls = cfg.local_search.is_some() && rng.gen_bool(cfg.p_local_search);
                    meta.push(ls);
                }

                batch.evaluate(instance);

                for (j, &ls) in meta.iter().enumerate() {
                    let i = kbase + j;
                    let fitness = if ls {
                        batch.materialize_into(instance, j, &mut offspring.schedule);
                        offspring.fitness = batch.fitness(j);
                        cfg.local_search.expect("ls flag implies operator").apply_with_scratch(
                            instance,
                            &mut offspring.schedule,
                            &mut rng,
                            &mut ls_scratch,
                        );
                        if cfg.delta_eval {
                            offspring.evaluate()
                        } else {
                            offspring.fitness = offspring.schedule.makespan_full();
                            offspring.fitness
                        }
                    } else if cfg.delta_eval {
                        batch.fitness(j)
                    } else {
                        batch.oracle_fitness(instance, j)
                    };
                    evaluations += 1;

                    // Synchronous: the decision reads the OLD population,
                    // the result lands in the auxiliary one.
                    if cfg.replacement.accepts(pop[i].fitness, fitness) {
                        if ls {
                            aux[i].copy_from(&offspring);
                        } else {
                            // Deferred-index install (see the parallel
                            // engine): re-indexed once at run exit.
                            batch.materialize_into_deferred(instance, j, &mut aux[i].schedule);
                            aux[i].fitness = fitness;
                        }
                        replacements += 1;
                    } else {
                        aux[i].copy_from(&pop[i]);
                    }

                    // Mid-sweep evaluation-budget check, every
                    // EVAL_FLUSH_EVERY cells: cells not yet evolved this
                    // sweep carry over unchanged, the partial sweep counts
                    // no generation and records no trace point. A check
                    // firing on the sweep's last cell is a completed sweep
                    // — skip the early exit and let the boundary stop
                    // check see it.
                    since_check += 1;
                    if since_check >= EVAL_FLUSH_EVERY {
                        since_check = 0;
                        if budget.is_some_and(|b| evaluations >= b) && i + 1 < pop.len() {
                            for jj in i + 1..pop.len() {
                                aux[jj].copy_from(&pop[jj]);
                            }
                            std::mem::swap(&mut pop, &mut aux);
                            break 'run;
                        }
                    }
                }
                kbase += chunk;
            }
            std::mem::swap(&mut pop, &mut aux);
            generations += 1;

            // Periodic drift correction (see the parallel engine): rebuild
            // cached CT vectors from scratch every K generations.
            if cfg.renormalize_every > 0 && generations.is_multiple_of(cfg.renormalize_every) {
                for ind in &mut pop {
                    ind.schedule.renormalize(instance);
                    ind.evaluate();
                }
            }

            if cfg.record_traces {
                let sum: f64 = pop.iter().map(|ind| ind.fitness).sum();
                let best = pop.iter().map(|ind| ind.fitness).fold(f64::INFINITY, f64::min);
                trace.push(sum / pop.len() as f64, best);
            }
            if cfg.termination.should_stop(start, generations, evaluations) {
                break;
            }
        }

        // Re-index any cells still carrying a deferred-index install.
        for ind in &mut pop {
            ind.schedule.ensure_index();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Termination;
    use scheduling::check_schedule;

    fn config(gens: u64) -> PaCgaConfig {
        PaCgaConfig::builder()
            .grid(6, 6)
            .threads(1)
            .local_search_iterations(5)
            .termination(Termination::Generations(gens))
            .seed(42)
            .record_traces(true)
            .build()
    }

    #[test]
    fn deterministic() {
        let inst = EtcInstance::toy(48, 6);
        let a = SyncCga::new(&inst, config(10)).run();
        let b = SyncCga::new(&inst, config(10)).run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn exact_evaluation_count() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(10)).run();
        assert_eq!(out.evaluations, 36 + 10 * 36);
        assert_eq!(out.generations, vec![10]);
    }

    #[test]
    fn best_schedule_is_valid_and_beats_min_min_seed() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(20)).run();
        assert!(check_schedule(&inst, &out.best.schedule).is_ok());
        assert!(out.best.makespan() <= heuristics::min_min(&inst).makespan());
    }

    #[test]
    fn periodic_renormalize_keeps_population_exact() {
        let inst = EtcInstance::toy(48, 6);
        let cfg = PaCgaConfig::builder()
            .grid(6, 6)
            .threads(1)
            .local_search_iterations(5)
            .termination(Termination::Generations(9))
            .renormalize_every(2)
            .seed(5)
            .record_traces(true)
            .build();
        let (_, pop) = SyncCga::new(&inst, cfg).run_with_population();
        for ind in &pop {
            assert!(check_schedule(&inst, &ind.schedule).is_ok());
            assert_eq!(ind.fitness, ind.schedule.makespan());
        }
    }

    #[test]
    fn evaluation_budget_overshoot_bounded_by_flush_interval() {
        let inst = EtcInstance::toy(48, 6);
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(1)
            .termination(crate::config::Termination::Evaluations(400))
            .seed(2)
            .build();
        let out = SyncCga::new(&inst, cfg).run();
        assert!(out.evaluations >= 400);
        assert!(
            out.evaluations <= 400 + EVAL_FLUSH_EVERY,
            "overshoot {} exceeds the flush interval",
            out.evaluations - 400
        );
        assert!(check_schedule(&inst, &out.best.schedule).is_ok());
    }

    #[test]
    fn budget_landing_on_sweep_boundary_counts_the_completed_sweep() {
        let inst = EtcInstance::toy(48, 6);
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(1)
            .termination(crate::config::Termination::Evaluations(512))
            .seed(5)
            .record_traces(true)
            .build();
        let out = SyncCga::new(&inst, cfg).run();
        assert_eq!(out.evaluations, 512);
        assert_eq!(out.generations, vec![1]);
        assert_eq!(out.traces[0].len(), 1);
    }

    #[test]
    fn traces_have_one_thread() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(8)).run();
        assert_eq!(out.traces.len(), 1);
        assert_eq!(out.traces[0].len(), 8);
    }

    #[test]
    fn population_best_monotone_with_replace_if_better() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(15)).run();
        for w in out.traces[0].block_best.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
