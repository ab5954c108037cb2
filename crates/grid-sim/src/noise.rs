//! Estimation-error (noise) models.
//!
//! The ETC model assumes "the computing time needed to perform a task is
//! known" (paper §2.1, the standard literature assumption). Real grids
//! deliver *estimates*; this module perturbs actual runtimes around the
//! ETC values so the robustness of an optimized schedule can be measured:
//! the realized makespan of a schedule under noise, versus the makespan it
//! promised.
//!
//! The multiplicative noise factor is drawn per `(task, machine)` pair
//! from a log-uniform distribution over `[1/(1+ε), 1+ε]` — symmetric in
//! log space, mean-preserving in order of magnitude, bounded (no negative
//! or absurd runtimes). Draws are deterministic per seed *and* per pair,
//! so a given world re-runs identically regardless of visit order.

use crate::report::SimReport;
use crate::reschedule::Rescheduler;
use crate::simulator::Simulator;
use etc_model::{EtcInstance, EtcMatrix};
use pa_cga_core::rng::{derive_seed, splitmix64};
use scheduling::Schedule;

/// Bounded multiplicative runtime noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relative half-width ε ≥ 0: factors span `[1/(1+ε), 1+ε]`.
    pub epsilon: f64,
    /// World seed: one seed = one fixed "reality".
    pub seed: u64,
}

impl NoiseModel {
    /// A noise model with the given half-width and seed.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "epsilon must be non-negative");
        Self { epsilon, seed }
    }

    /// The deterministic noise factor for a `(task, machine)` pair.
    pub fn factor(&self, task: usize, machine: usize) -> f64 {
        if self.epsilon == 0.0 {
            return 1.0;
        }
        // Hash (seed, task, machine) into a uniform in [0, 1).
        let h = splitmix64(derive_seed(self.seed, ((task as u64) << 32) | machine as u64));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        // Log-uniform over [1/(1+eps), 1+eps].
        let span = (1.0 + self.epsilon).ln();
        ((2.0 * u - 1.0) * span).exp()
    }

    /// Materializes the *actual* instance of this noisy world: same
    /// dimensions and ready times, each ETC entry multiplied by its
    /// factor.
    pub fn realize(&self, instance: &EtcInstance) -> EtcInstance {
        let etc = EtcMatrix::from_fn(instance.n_tasks(), instance.n_machines(), |t, m| {
            instance.etc().etc(t, m) * self.factor(t, m)
        });
        EtcInstance::with_ready_times(
            format!("{}+noise(eps={},seed={})", instance.name(), self.epsilon, self.seed),
            etc,
            instance.ready_times().to_vec(),
        )
    }
}

/// Executes a schedule (optimized against the *estimated* instance) in the
/// noisy world and reports what actually happened, plus the promise gap.
pub fn run_under_noise(
    estimated: &EtcInstance,
    schedule: &Schedule,
    noise: &NoiseModel,
    policy: &dyn Rescheduler,
) -> (SimReport, f64) {
    let actual = noise.realize(estimated);
    // Rebuild the schedule against actual runtimes: same assignment, real
    // completion times.
    let realized = Schedule::from_assignment(&actual, schedule.assignment().to_vec());
    let report = Simulator::new(&actual).run(&realized, policy);
    let promised = schedule.makespan();
    let gap = report.makespan / promised - 1.0;
    (report, gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reschedule::MctRescheduler;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_noise_is_identity() {
        let inst = EtcInstance::toy(12, 3);
        let noise = NoiseModel::new(0.0, 7);
        assert_eq!(noise.factor(3, 1), 1.0);
        let actual = noise.realize(&inst);
        assert_eq!(actual.etc(), inst.etc());
    }

    #[test]
    fn factors_bounded_and_deterministic() {
        let noise = NoiseModel::new(0.5, 3);
        for t in 0..50 {
            for m in 0..8 {
                let f = noise.factor(t, m);
                assert!((1.0 / 1.5 - 1e-12..=1.5 + 1e-12).contains(&f), "factor {f}");
                assert_eq!(f, noise.factor(t, m), "deterministic per pair");
            }
        }
    }

    #[test]
    fn different_seeds_are_different_worlds() {
        let a = NoiseModel::new(0.3, 1);
        let b = NoiseModel::new(0.3, 2);
        let differing = (0..100).filter(|&t| a.factor(t, 0) != b.factor(t, 0)).count();
        assert!(differing > 90);
    }

    #[test]
    fn realized_makespan_within_noise_envelope() {
        let inst = EtcInstance::toy(24, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let s = Schedule::random(&inst, &mut rng);
        let noise = NoiseModel::new(0.25, 11);
        let (report, gap) = run_under_noise(&inst, &s, &noise, &MctRescheduler);
        assert!(report.validate().is_ok());
        // Every runtime is within ±25%, so the realized makespan is too.
        assert!(gap.abs() <= 0.25 + 1e-9, "gap {gap}");
    }

    #[test]
    fn gap_is_zero_without_noise() {
        let inst = EtcInstance::toy(24, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let s = Schedule::random(&inst, &mut rng);
        let (_, gap) = run_under_noise(&inst, &s, &NoiseModel::new(0.0, 0), &MctRescheduler);
        assert!(gap.abs() < 1e-12);
    }

    #[test]
    fn larger_epsilon_larger_spread() {
        let small = NoiseModel::new(0.1, 9);
        let large = NoiseModel::new(1.0, 9);
        let spread = |n: &NoiseModel| -> f64 {
            let fs: Vec<f64> = (0..200).map(|t| n.factor(t, 0)).collect();
            let max = fs.iter().cloned().fold(f64::MIN, f64::max);
            let min = fs.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(spread(&large) > spread(&small));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_rejected() {
        NoiseModel::new(-0.1, 0);
    }
}
