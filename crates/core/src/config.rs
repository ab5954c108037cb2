//! Run configuration (the paper's Table 1) and its builder.

use crate::crossover::CrossoverOp;
use crate::local_search::H2ll;
use crate::mutation::MutationOp;
use crate::neighborhood::NeighborhoodShape;
use crate::replacement::ReplacementPolicy;
use crate::seeding::Seeding;
use crate::selection::SelectionOp;
use crate::sweep::SweepPolicy;
pub use crate::termination::Termination;
use std::time::Duration;

/// Full PA-CGA parameterization.
///
/// [`PaCgaConfig::paper`] reproduces Table 1 of the paper; everything is
/// overridable through [`PaCgaConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct PaCgaConfig {
    /// Grid columns (population width).
    pub grid_width: usize,
    /// Grid rows (population height).
    pub grid_height: usize,
    /// Number of worker threads (blocks). The paper sweeps 1–4.
    pub threads: usize,
    /// Neighborhood shape (paper: L5).
    pub neighborhood: NeighborhoodShape,
    /// Parent selection (paper: best 2).
    pub selection: SelectionOp,
    /// Recombination operator (paper: opx and tpx; tpx adopted).
    pub crossover: CrossoverOp,
    /// Recombination probability `p_comb` (paper: 1.0).
    pub p_crossover: f64,
    /// Mutation operator (paper: move).
    pub mutation: MutationOp,
    /// Mutation probability `p_mut` (paper: 1.0).
    pub p_mutation: f64,
    /// H2LL local search; `None` disables it (Figure 4's "0 iteration").
    pub local_search: Option<H2ll>,
    /// Local-search probability `p_ser` (paper: 1.0).
    pub p_local_search: f64,
    /// Replacement policy (paper: replace if better).
    pub replacement: ReplacementPolicy,
    /// Cell visit order within a block (paper: fixed line sweep).
    pub sweep: SweepPolicy,
    /// Stop condition (paper: 90 s wall time).
    pub termination: Termination,
    /// Block sweeps between periodic [`scheduling::Schedule::renormalize`]
    /// passes over the population, discarding the floating-point drift
    /// that incremental `CT` updates accumulate over long asynchronous
    /// runs. `0` disables the pass entirely.
    pub renormalize_every: u64,
    /// Offspring evaluated per batched pass over the ETC slab
    /// ([`scheduling::OffspringBatch`], DESIGN.md §9). `1` reproduces the
    /// per-offspring engine loop exactly (same RNG draw order); larger
    /// batches trade snapshot freshness *within* a batch for cache-hot
    /// evaluation, the same relaxation the asynchronous model already
    /// makes across thread blocks.
    pub eval_batch: usize,
    /// `true` (default): offspring fitness comes from the incremental
    /// delta path — the slab's cached completion times and the schedule's
    /// O(1) tracked-argmax makespan. `false`: every offspring is
    /// re-derived from scratch (fresh build + full fold), the oracle
    /// path. The canonical-CT invariant makes the two modes byte-identical
    /// (the `delta_toggle` test pins that); the toggle exists to prove it.
    pub delta_eval: bool,
    /// Master seed; derives population-init and per-thread RNG streams.
    pub seed: u64,
    /// How the initial population is seeded (paper: Min-min, 1 ind).
    pub seeding: Seeding,
    /// Record per-generation traces (block mean / block best) for the
    /// Figure 4/6 harnesses.
    pub record_traces: bool,
}

impl PaCgaConfig {
    /// The paper's Table 1 parameterization (tpx, 10 H2LL iterations,
    /// 3 threads, 90 s). Prefer scaling the time budget down for local
    /// experimentation.
    pub fn paper() -> Self {
        Self {
            grid_width: 16,
            grid_height: 16,
            threads: 3,
            neighborhood: NeighborhoodShape::L5,
            selection: SelectionOp::BestTwo,
            crossover: CrossoverOp::TwoPoint,
            p_crossover: 1.0,
            mutation: MutationOp::Move,
            p_mutation: 1.0,
            local_search: Some(H2ll::with_iterations(10)),
            p_local_search: 1.0,
            replacement: ReplacementPolicy::ReplaceIfBetter,
            sweep: SweepPolicy::LineSweep,
            termination: Termination::WallTime(Duration::from_secs(90)),
            renormalize_every: 1000,
            eval_batch: 16,
            delta_eval: true,
            seed: 0,
            seeding: Seeding::MinMin,
            record_traces: false,
        }
    }

    /// Builder starting from the paper defaults.
    pub fn builder() -> PaCgaConfigBuilder {
        PaCgaConfigBuilder { config: Self::paper() }
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.grid_width * self.grid_height
    }

    /// Panics with a helpful message on invalid combinations.
    pub fn validate(&self) {
        assert!(self.grid_width > 0 && self.grid_height > 0, "grid must be non-empty");
        assert!(self.threads > 0, "need at least one thread");
        assert!(
            self.threads <= self.population_size(),
            "threads ({}) exceed population ({})",
            self.threads,
            self.population_size()
        );
        for (name, p) in [
            ("p_crossover", self.p_crossover),
            ("p_mutation", self.p_mutation),
            ("p_local_search", self.p_local_search),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} outside [0, 1]");
        }
        assert!(self.eval_batch >= 1, "eval_batch must be at least 1");
    }

    /// One-line human-readable summary (harness headers).
    pub fn summary(&self) -> String {
        format!(
            "{}x{} pop, {} thread(s), {} nbhd, {} sel, {} p={}, {} p={}, {} p_ser={}, {}, stop: {}",
            self.grid_width,
            self.grid_height,
            self.threads,
            self.neighborhood,
            self.selection,
            self.crossover,
            self.p_crossover,
            self.mutation,
            self.p_mutation,
            self.local_search.map(|ls| ls.to_string()).unwrap_or_else(|| "no-LS".into()),
            self.p_local_search,
            self.replacement,
            self.termination
        )
    }
}

/// Fluent builder over [`PaCgaConfig::paper`] defaults.
#[derive(Debug, Clone)]
pub struct PaCgaConfigBuilder {
    config: PaCgaConfig,
}

impl PaCgaConfigBuilder {
    /// Grid dimensions.
    pub fn grid(mut self, width: usize, height: usize) -> Self {
        self.config.grid_width = width;
        self.config.grid_height = height;
        self
    }

    /// Worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Neighborhood shape.
    pub fn neighborhood(mut self, shape: NeighborhoodShape) -> Self {
        self.config.neighborhood = shape;
        self
    }

    /// Selection operator.
    pub fn selection(mut self, op: SelectionOp) -> Self {
        self.config.selection = op;
        self
    }

    /// Crossover operator.
    pub fn crossover(mut self, op: CrossoverOp) -> Self {
        self.config.crossover = op;
        self
    }

    /// Crossover probability.
    pub fn p_crossover(mut self, p: f64) -> Self {
        self.config.p_crossover = p;
        self
    }

    /// Mutation operator.
    pub fn mutation(mut self, op: MutationOp) -> Self {
        self.config.mutation = op;
        self
    }

    /// Mutation probability.
    pub fn p_mutation(mut self, p: f64) -> Self {
        self.config.p_mutation = p;
        self
    }

    /// H2LL iteration count; 0 disables local search entirely.
    pub fn local_search_iterations(mut self, iterations: usize) -> Self {
        self.config.local_search =
            if iterations == 0 { None } else { Some(H2ll::with_iterations(iterations)) };
        self
    }

    /// Full local-search operator override.
    pub fn local_search(mut self, ls: Option<H2ll>) -> Self {
        self.config.local_search = ls;
        self
    }

    /// Local search probability (`p_ser`).
    pub fn p_local_search(mut self, p: f64) -> Self {
        self.config.p_local_search = p;
        self
    }

    /// Replacement policy.
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.config.replacement = policy;
        self
    }

    /// Sweep policy.
    pub fn sweep(mut self, policy: SweepPolicy) -> Self {
        self.config.sweep = policy;
        self
    }

    /// Stop condition.
    pub fn termination(mut self, t: Termination) -> Self {
        self.config.termination = t;
        self
    }

    /// Block sweeps between periodic drift-correcting renormalize passes
    /// (0 disables).
    pub fn renormalize_every(mut self, sweeps: u64) -> Self {
        self.config.renormalize_every = sweeps;
        self
    }

    /// Offspring per batched evaluation pass (1 reproduces the
    /// per-offspring loop exactly).
    pub fn eval_batch(mut self, batch: usize) -> Self {
        self.config.eval_batch = batch;
        self
    }

    /// Whether offspring fitness uses the incremental delta path (`true`,
    /// default) or the from-scratch oracle recompute (`false`).
    pub fn delta_eval(mut self, on: bool) -> Self {
        self.config.delta_eval = on;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Whether one individual is seeded with Min-min (shorthand for
    /// `seeding(Seeding::MinMin)` / `seeding(Seeding::Random)`).
    pub fn seed_min_min(mut self, on: bool) -> Self {
        self.config.seeding = if on { Seeding::MinMin } else { Seeding::Random };
        self
    }

    /// Full seeding-strategy override.
    pub fn seeding(mut self, seeding: Seeding) -> Self {
        self.config.seeding = seeding;
        self
    }

    /// Whether to record per-generation traces.
    pub fn record_traces(mut self, on: bool) -> Self {
        self.config.record_traces = on;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> PaCgaConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_1() {
        let c = PaCgaConfig::paper();
        assert_eq!(c.population_size(), 256);
        assert_eq!(c.neighborhood, NeighborhoodShape::L5);
        assert_eq!(c.selection, SelectionOp::BestTwo);
        assert_eq!(c.crossover, CrossoverOp::TwoPoint);
        assert_eq!(c.p_crossover, 1.0);
        assert_eq!(c.mutation, MutationOp::Move);
        assert_eq!(c.p_mutation, 1.0);
        assert_eq!(c.local_search.unwrap().iterations, 10);
        assert_eq!(c.replacement, ReplacementPolicy::ReplaceIfBetter);
        assert_eq!(c.sweep, SweepPolicy::LineSweep);
        assert_eq!(c.termination, Termination::WallTime(Duration::from_secs(90)));
        assert_eq!(c.renormalize_every, 1000);
        assert_eq!(c.seeding, Seeding::MinMin);
    }

    #[test]
    fn builder_overrides() {
        let c = PaCgaConfig::builder()
            .grid(8, 4)
            .threads(2)
            .local_search_iterations(0)
            .termination(Termination::Generations(5))
            .seed(99)
            .build();
        assert_eq!(c.population_size(), 32);
        assert_eq!(c.threads, 2);
        assert!(c.local_search.is_none());
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn summary_mentions_key_parameters() {
        let s = PaCgaConfig::paper().summary();
        assert!(s.contains("16x16"));
        assert!(s.contains("tpx"));
        assert!(s.contains("H2LL"));
    }

    #[test]
    fn summary_renders_the_full_line() {
        // Full-line assertion: guards every slot against label/argument
        // drift (a literal `"p_ser"` once rendered as `p_ser p=1`).
        let s = PaCgaConfig::paper().summary();
        assert_eq!(
            s,
            "16x16 pop, 3 thread(s), L5 nbhd, best-2 sel, tpx p=1, move p=1, \
             H2LL(iter=10) p_ser=1, replace-if-better, stop: wall-time 90.0s"
        );
        assert!(!s.contains("p_ser p="), "p_ser must label its own value");
    }

    #[test]
    fn batch_and_delta_defaults() {
        let c = PaCgaConfig::paper();
        assert_eq!(c.eval_batch, 16);
        assert!(c.delta_eval);
        let c = PaCgaConfig::builder()
            .grid(4, 4)
            .threads(1)
            .eval_batch(1)
            .delta_eval(false)
            .termination(Termination::Generations(1))
            .build();
        assert_eq!(c.eval_batch, 1);
        assert!(!c.delta_eval);
    }

    #[test]
    #[should_panic(expected = "eval_batch")]
    fn zero_batch_rejected() {
        PaCgaConfig::builder().grid(4, 4).threads(1).eval_batch(0).build();
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn too_many_threads_rejected() {
        PaCgaConfig::builder().grid(2, 2).threads(5).build();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_probability_rejected() {
        PaCgaConfig::builder().p_mutation(1.5).build();
    }
}
