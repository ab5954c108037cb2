//! A complete scheduling problem instance: ETC matrix + machine ready
//! times + a human-readable name.

use crate::matrix::EtcMatrix;
use crate::ranges::EtcRange;

/// A static independent-task scheduling instance under the ETC model.
///
/// Ready times (`ready[m]`) state when machine `m` finishes previously
/// assigned work; the paper's benchmark instances use all-zero ready times
/// but the model (paper §2.1) includes them, so the substrate carries them
/// end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct EtcInstance {
    name: String,
    etc: EtcMatrix,
    ready: Vec<f64>,
}

impl EtcInstance {
    /// Creates an instance with all-zero ready times.
    pub fn new(name: impl Into<String>, etc: EtcMatrix) -> Self {
        let ready = vec![0.0; etc.n_machines()];
        Self { name: name.into(), etc, ready }
    }

    /// Creates an instance with explicit per-machine ready times.
    ///
    /// # Panics
    ///
    /// Panics if `ready.len() != etc.n_machines()` or any ready time is
    /// negative or non-finite.
    pub fn with_ready_times(name: impl Into<String>, etc: EtcMatrix, ready: Vec<f64>) -> Self {
        assert_eq!(ready.len(), etc.n_machines(), "one ready time per machine");
        for (m, &r) in ready.iter().enumerate() {
            assert!(r.is_finite() && r >= 0.0, "ready[{m}] = {r} must be non-negative and finite");
        }
        Self { name: name.into(), etc, ready }
    }

    /// Instance name (e.g. `u_c_hihi.0`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ETC matrix.
    pub fn etc(&self) -> &EtcMatrix {
        &self.etc
    }

    /// Number of tasks.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.etc.n_tasks()
    }

    /// Number of machines.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.etc.n_machines()
    }

    /// Ready time of machine `m`.
    #[inline]
    pub fn ready(&self, machine: usize) -> f64 {
        self.ready[machine]
    }

    /// All ready times.
    pub fn ready_times(&self) -> &[f64] {
        &self.ready
    }

    /// The range of processing times (`p_j`) in the instance, as printed in
    /// the paper's Blazewicz notation.
    pub fn etc_range(&self) -> EtcRange {
        EtcRange { min: self.etc.min_etc(), max: self.etc.max_etc() }
    }

    /// A trivially small instance for documentation examples and tests:
    /// `n_tasks` tasks, `n_machines` machines, `ETC[t][m] = (t+1)·(m+1)`.
    pub fn toy(n_tasks: usize, n_machines: usize) -> Self {
        let etc = EtcMatrix::from_fn(n_tasks, n_machines, |t, m| ((t + 1) * (m + 1)) as f64);
        Self::new(format!("toy_{n_tasks}x{n_machines}"), etc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_zero_ready_times() {
        let inst = EtcInstance::toy(4, 3);
        assert_eq!(inst.n_tasks(), 4);
        assert_eq!(inst.n_machines(), 3);
        assert!(inst.ready_times().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn toy_entries() {
        let inst = EtcInstance::toy(2, 2);
        assert_eq!(inst.etc().etc(0, 0), 1.0);
        assert_eq!(inst.etc().etc(1, 1), 4.0);
        assert_eq!(inst.name(), "toy_2x2");
    }

    #[test]
    fn explicit_ready_times() {
        let etc = EtcMatrix::from_task_major(1, 2, vec![1.0, 2.0]);
        let inst = EtcInstance::with_ready_times("r", etc, vec![5.0, 0.0]);
        assert_eq!(inst.ready(0), 5.0);
        assert_eq!(inst.ready(1), 0.0);
    }

    #[test]
    fn etc_range() {
        let inst = EtcInstance::toy(3, 3);
        let r = inst.etc_range();
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "one ready time per machine")]
    fn mismatched_ready_times_panic() {
        let etc = EtcMatrix::from_task_major(1, 2, vec![1.0, 2.0]);
        EtcInstance::with_ready_times("r", etc, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ready_time_panics() {
        let etc = EtcMatrix::from_task_major(1, 1, vec![1.0]);
        EtcInstance::with_ready_times("r", etc, vec![-1.0]);
    }
}
