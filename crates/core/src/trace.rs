//! Per-run observability: per-thread generation traces and the run
//! outcome record consumed by the experiment harnesses.

use crate::individual::Individual;
use std::time::Duration;

/// What one thread recorded at each of its block generations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadTrace {
    /// Mean fitness of the thread's block after each generation.
    pub block_mean: Vec<f64>,
    /// Best fitness within the block after each generation.
    pub block_best: Vec<f64>,
}

impl ThreadTrace {
    /// Number of recorded generations.
    pub fn len(&self) -> usize {
        self.block_mean.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.block_mean.is_empty()
    }

    /// Appends one generation's record.
    pub fn push(&mut self, mean: f64, best: f64) {
        self.block_mean.push(mean);
        self.block_best.push(best);
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The best individual found (over the whole population at the end —
    /// with replace-if-better the population best is the run best).
    pub best: Individual,
    /// Total number of fitness evaluations performed (initial population
    /// included), the paper's Figure 4 currency.
    pub evaluations: u64,
    /// Generations completed by each thread (asynchronous: these differ).
    pub generations: Vec<u64>,
    /// Offspring accepted by the replacement policy, per thread — the
    /// "useful work" counter behind the evaluation totals.
    pub replacements: Vec<u64>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-thread traces (empty unless `record_traces` was set).
    pub traces: Vec<ThreadTrace>,
}

impl RunOutcome {
    /// Mean generations per thread.
    pub fn mean_generations(&self) -> f64 {
        if self.generations.is_empty() {
            return 0.0;
        }
        self.generations.iter().sum::<u64>() as f64 / self.generations.len() as f64
    }

    /// Population-level mean-makespan trace, averaging the per-thread
    /// block means at each generation index over the threads that reached
    /// it (Figure 6's series for one run).
    pub fn population_mean_trace(&self) -> Vec<f64> {
        let max_len = self.traces.iter().map(ThreadTrace::len).max().unwrap_or(0);
        let mut out = Vec::with_capacity(max_len);
        for g in 0..max_len {
            let mut sum = 0.0;
            let mut count = 0usize;
            for t in &self.traces {
                if let Some(&v) = t.block_mean.get(g) {
                    sum += v;
                    count += 1;
                }
            }
            out.push(sum / count as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::EtcInstance;
    use scheduling::Schedule;

    fn dummy_outcome() -> RunOutcome {
        let inst = EtcInstance::toy(4, 2);
        RunOutcome {
            best: Individual::new(Schedule::round_robin(&inst)),
            evaluations: 100,
            generations: vec![10, 12, 11],
            replacements: vec![3, 4, 5],
            elapsed: Duration::from_millis(5),
            traces: vec![
                ThreadTrace { block_mean: vec![10.0, 8.0], block_best: vec![9.0, 7.0] },
                ThreadTrace { block_mean: vec![20.0], block_best: vec![18.0] },
            ],
        }
    }

    #[test]
    fn mean_generations() {
        assert!((dummy_outcome().mean_generations() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn population_trace_averages_available_threads() {
        let trace = dummy_outcome().population_mean_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0], 15.0); // (10+20)/2
        assert_eq!(trace[1], 8.0); // only thread 0 reached generation 1
    }

    #[test]
    fn thread_trace_push() {
        let mut t = ThreadTrace::default();
        assert!(t.is_empty());
        t.push(5.0, 4.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.block_best, vec![4.0]);
    }

    #[test]
    fn empty_traces_empty_population_trace() {
        let mut o = dummy_outcome();
        o.traces.clear();
        assert!(o.population_mean_trace().is_empty());
        o.generations.clear();
        assert_eq!(o.mean_generations(), 0.0);
    }
}
