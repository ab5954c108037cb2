//! Multi-batch arrivals — the "batch scheduling in grids" mode.
//!
//! Tasks arrive in batches over time (parameter-sweep users submitting
//! jobs); each batch is scheduled *on arrival* against the machine ready
//! times left by earlier batches. Any [`Rescheduler`] doubles as the
//! per-batch scheduling policy (same signature: tasks + machines + ready
//! times → placement), so MCT and PA-CGA can be compared directly.

use crate::reschedule::Rescheduler;
use etc_model::EtcInstance;

/// One batch: an arrival time and the task ids it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArrival {
    /// When the batch is submitted.
    pub time: f64,
    /// Task ids (indices into the instance) in this batch.
    pub tasks: Vec<usize>,
}

/// Per-batch outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Submission time.
    pub arrival: f64,
    /// When the batch's last task finished.
    pub completion: f64,
    /// `completion − arrival`: the user-visible batch latency.
    pub latency: f64,
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Stats per batch, in arrival order.
    pub batches: Vec<BatchStats>,
    /// Time the final task finished.
    pub makespan: f64,
    /// Final per-machine availability times.
    pub machine_free_at: Vec<f64>,
}

impl BatchReport {
    /// Mean batch latency.
    pub fn mean_latency(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.latency).sum::<f64>() / self.batches.len() as f64
    }
}

/// Drives a batch-arrival scenario over an instance.
#[derive(Debug, Clone)]
pub struct BatchSimulator<'a> {
    instance: &'a EtcInstance,
    batches: Vec<BatchArrival>,
}

impl<'a> BatchSimulator<'a> {
    /// Creates the simulator.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are unsorted, a task id is out of range or
    /// appears twice, or a batch is empty.
    pub fn new(instance: &'a EtcInstance, batches: Vec<BatchArrival>) -> Self {
        let mut seen = vec![false; instance.n_tasks()];
        let mut last = 0.0f64;
        for (i, b) in batches.iter().enumerate() {
            assert!(b.time.is_finite() && b.time >= last, "batch {i} arrival out of order");
            assert!(!b.tasks.is_empty(), "batch {i} is empty");
            last = b.time;
            for &t in &b.tasks {
                assert!(t < instance.n_tasks(), "batch {i}: task {t} out of range");
                assert!(!seen[t], "task {t} appears in two batches");
                seen[t] = true;
            }
        }
        Self { instance, batches }
    }

    /// Splits all instance tasks into `n_batches` equal contiguous batches
    /// arriving `interval` apart (starting at 0).
    pub fn equal_batches(instance: &'a EtcInstance, n_batches: usize, interval: f64) -> Self {
        assert!(n_batches > 0 && n_batches <= instance.n_tasks(), "bad batch count");
        let n = instance.n_tasks();
        let base = n / n_batches;
        let extra = n % n_batches;
        let mut batches = Vec::with_capacity(n_batches);
        let mut start = 0;
        for b in 0..n_batches {
            let size = base + usize::from(b < extra);
            batches.push(BatchArrival {
                time: b as f64 * interval,
                tasks: (start..start + size).collect(),
            });
            start += size;
        }
        Self::new(instance, batches)
    }

    /// Runs the scenario, scheduling each batch with `policy` on arrival.
    pub fn run(&self, policy: &dyn Rescheduler) -> BatchReport {
        let instance = self.instance;
        let n_machines = instance.n_machines();
        let all: Vec<usize> = (0..n_machines).collect();
        let mut free_at: Vec<f64> = instance.ready_times().to_vec();
        let mut stats = Vec::with_capacity(self.batches.len());

        for batch in &self.batches {
            // Machines can't start batch work before the batch exists.
            let ready: Vec<f64> = free_at.iter().map(|&f| f.max(batch.time)).collect();
            let placement = policy.reschedule(instance, &batch.tasks, &all, &ready);
            assert_eq!(placement.len(), batch.tasks.len(), "policy returned wrong arity");

            let mut completion = batch.time;
            let mut cursor = ready;
            for (&t, &m) in batch.tasks.iter().zip(&placement) {
                cursor[m] += instance.etc().etc_on(m, t);
                completion = completion.max(cursor[m]);
            }
            free_at = cursor;
            stats.push(BatchStats {
                arrival: batch.time,
                completion,
                latency: completion - batch.time,
            });
        }

        let makespan = free_at.iter().copied().fold(0.0f64, f64::max);
        BatchReport { batches: stats, makespan, machine_free_at: free_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reschedule::{MctRescheduler, PaCgaRescheduler};

    fn inst() -> EtcInstance {
        EtcInstance::toy(24, 4)
    }

    #[test]
    fn equal_batches_partition_all_tasks() {
        let inst = inst();
        let sim = BatchSimulator::equal_batches(&inst, 5, 10.0);
        let total: usize = sim.batches.iter().map(|b| b.tasks.len()).sum();
        assert_eq!(total, 24);
        assert_eq!(sim.batches[0].time, 0.0);
        assert_eq!(sim.batches[4].time, 40.0);
    }

    #[test]
    fn single_batch_equals_static_scheduling() {
        let inst = inst();
        let sim = BatchSimulator::equal_batches(&inst, 1, 0.0);
        let report = sim.run(&MctRescheduler);
        // Same placement as MCT on the whole instance.
        let mct = heuristics::mct(&inst);
        assert!((report.makespan - mct.makespan()).abs() < 1e-9);
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.mean_latency(), report.makespan);
    }

    #[test]
    fn later_batches_cannot_start_before_arrival() {
        let inst = inst();
        // Huge inter-arrival gap: every batch finds idle machines, so each
        // batch's completion is ≥ its own arrival.
        let sim = BatchSimulator::equal_batches(&inst, 3, 1_000.0);
        let report = sim.run(&MctRescheduler);
        for b in &report.batches {
            assert!(b.completion >= b.arrival);
            assert!(b.latency >= 0.0);
        }
        // With gaps longer than any batch, overall makespan is set by the
        // last batch.
        assert_eq!(report.makespan, report.batches[2].completion);
    }

    #[test]
    fn congestion_raises_latency() {
        let inst = inst();
        let sparse =
            BatchSimulator::equal_batches(&inst, 4, 10_000.0).run(&MctRescheduler).mean_latency();
        let congested =
            BatchSimulator::equal_batches(&inst, 4, 0.0).run(&MctRescheduler).mean_latency();
        assert!(
            congested >= sparse,
            "back-to-back batches ({congested}) should wait at least as long as sparse ({sparse})"
        );
    }

    #[test]
    fn pa_cga_policy_not_worse_than_mct_on_makespan() {
        let inst = inst();
        let mct = BatchSimulator::equal_batches(&inst, 2, 1.0).run(&MctRescheduler);
        let pa = BatchSimulator::equal_batches(&inst, 2, 1.0)
            .run(&PaCgaRescheduler { evaluations: 3_000, ..Default::default() });
        assert!(pa.makespan <= mct.makespan * 1.01, "pa {} vs mct {}", pa.makespan, mct.makespan);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn unsorted_arrivals_rejected() {
        let inst = inst();
        BatchSimulator::new(
            &inst,
            vec![
                BatchArrival { time: 5.0, tasks: vec![0] },
                BatchArrival { time: 1.0, tasks: vec![1] },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "two batches")]
    fn duplicate_task_rejected() {
        let inst = inst();
        BatchSimulator::new(
            &inst,
            vec![
                BatchArrival { time: 0.0, tasks: vec![0, 1] },
                BatchArrival { time: 1.0, tasks: vec![1] },
            ],
        );
    }
}
