//! Range-based ETC instance generation (Braun et al., 2001).
//!
//! Each task draws a baseline `τ(t) ~ U(1, φ_t)`; each entry is then
//! `ETC[t][m] = τ(t) · U(1, φ_m)`. Consistency is imposed afterwards:
//!
//! * **consistent** — sort every task row ascending (machine 0 becomes the
//!   uniformly fastest machine);
//! * **semi-consistent** — in every even-indexed task row, sort the values
//!   sitting at even-indexed machine columns (the even×even sub-matrix
//!   becomes consistent, the rest stays inconsistent);
//! * **inconsistent** — leave the draws untouched.
//!
//! Generation is fully deterministic given [`GeneratorParams::seed`].

use crate::consistency::Consistency;
use crate::heterogeneity::Heterogeneity;
use crate::instance::EtcInstance;
use crate::matrix::EtcMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the range-based generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorParams {
    /// Number of independent tasks (512 in the paper's benchmark).
    pub n_tasks: usize,
    /// Number of heterogeneous machines (16 in the paper's benchmark).
    pub n_machines: usize,
    /// Task heterogeneity level (`φ_t` bound).
    pub task_heterogeneity: Heterogeneity,
    /// Machine heterogeneity level (`φ_m` bound).
    pub machine_heterogeneity: Heterogeneity,
    /// Consistency class imposed after generation.
    pub consistency: Consistency,
    /// RNG seed; equal seeds give byte-identical instances.
    pub seed: u64,
}

impl GeneratorParams {
    /// Benchmark-sized parameters (512×16) for a given class combination.
    pub fn benchmark(
        consistency: Consistency,
        task_heterogeneity: Heterogeneity,
        machine_heterogeneity: Heterogeneity,
        seed: u64,
    ) -> Self {
        Self {
            n_tasks: 512,
            n_machines: 16,
            task_heterogeneity,
            machine_heterogeneity,
            consistency,
            seed,
        }
    }

    /// The canonical Braun-style instance name, e.g. `u_c_hilo.0`.
    /// `k` numbers instances of the same class.
    pub fn braun_name(&self, k: usize) -> String {
        format!(
            "u_{}_{}{}.{}",
            self.consistency.code(),
            self.task_heterogeneity.code(),
            self.machine_heterogeneity.code(),
            k
        )
    }
}

/// The range-based generator. Thin wrapper so callers can reuse parameters
/// while varying seeds (`k`-numbered instances of a class).
#[derive(Debug, Clone)]
pub struct EtcGenerator {
    params: GeneratorParams,
}

impl EtcGenerator {
    /// Creates a generator from parameters.
    pub fn new(params: GeneratorParams) -> Self {
        assert!(params.n_tasks > 0 && params.n_machines > 0, "non-empty dimensions");
        Self { params }
    }

    /// The parameters this generator uses.
    pub fn params(&self) -> &GeneratorParams {
        &self.params
    }

    /// Generates the instance, naming it with the Braun convention.
    pub fn generate(&self) -> EtcInstance {
        self.generate_named(self.params.braun_name(0))
    }

    /// Generates the instance with an explicit name.
    pub fn generate_named(&self, name: impl Into<String>) -> EtcInstance {
        let p = &self.params;
        let mut rng = SmallRng::seed_from_u64(p.seed);
        let phi_t = p.task_heterogeneity.task_phi();
        let phi_m = p.machine_heterogeneity.machine_phi();

        let mut values = Vec::with_capacity(p.n_tasks * p.n_machines);
        for _t in 0..p.n_tasks {
            let tau: f64 = rng.gen_range(1.0..phi_t);
            for _m in 0..p.n_machines {
                let f: f64 = rng.gen_range(1.0..phi_m);
                values.push(tau * f);
            }
        }

        match p.consistency {
            Consistency::Consistent => {
                for t in 0..p.n_tasks {
                    let row = &mut values[t * p.n_machines..(t + 1) * p.n_machines];
                    row.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                }
            }
            Consistency::SemiConsistent => {
                for t in (0..p.n_tasks).step_by(2) {
                    let row = &mut values[t * p.n_machines..(t + 1) * p.n_machines];
                    let mut evens: Vec<f64> = row.iter().copied().step_by(2).collect();
                    evens.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    for (i, v) in evens.into_iter().enumerate() {
                        row[2 * i] = v;
                    }
                }
            }
            Consistency::Inconsistent => {}
        }

        let etc = EtcMatrix::from_task_major(p.n_tasks, p.n_machines, values);
        EtcInstance::new(name, etc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::{classify, has_consistent_submatrix, is_consistent};

    fn params(c: Consistency, seed: u64) -> GeneratorParams {
        GeneratorParams {
            n_tasks: 64,
            n_machines: 8,
            task_heterogeneity: Heterogeneity::High,
            machine_heterogeneity: Heterogeneity::High,
            consistency: c,
            seed,
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = EtcGenerator::new(params(Consistency::Inconsistent, 7)).generate();
        let b = EtcGenerator::new(params(Consistency::Inconsistent, 7)).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = EtcGenerator::new(params(Consistency::Inconsistent, 7)).generate();
        let b = EtcGenerator::new(params(Consistency::Inconsistent, 8)).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn consistent_instances_are_consistent() {
        let inst = EtcGenerator::new(params(Consistency::Consistent, 1)).generate();
        assert!(is_consistent(inst.etc()));
    }

    #[test]
    fn inconsistent_instances_are_inconsistent() {
        let inst = EtcGenerator::new(params(Consistency::Inconsistent, 1)).generate();
        assert_eq!(classify(inst.etc()), Consistency::Inconsistent);
    }

    #[test]
    fn semi_consistent_instances_classify_correctly() {
        let inst = EtcGenerator::new(params(Consistency::SemiConsistent, 1)).generate();
        assert!(!is_consistent(inst.etc()));
        assert!(has_consistent_submatrix(inst.etc()));
        assert_eq!(classify(inst.etc()), Consistency::SemiConsistent);
    }

    #[test]
    fn entries_respect_phi_bounds() {
        let p = GeneratorParams {
            n_tasks: 128,
            n_machines: 8,
            task_heterogeneity: Heterogeneity::Low,
            machine_heterogeneity: Heterogeneity::Low,
            consistency: Consistency::Inconsistent,
            seed: 3,
        };
        let inst = EtcGenerator::new(p).generate();
        let max_possible = p.task_heterogeneity.task_phi() * p.machine_heterogeneity.machine_phi();
        for (_, _, v) in inst.etc().entries() {
            assert!(v >= 1.0 && v <= max_possible, "entry {v} outside [1, {max_possible}]");
        }
    }

    #[test]
    fn high_heterogeneity_spreads_wider_than_low() {
        let hi = EtcGenerator::new(GeneratorParams {
            task_heterogeneity: Heterogeneity::High,
            machine_heterogeneity: Heterogeneity::High,
            ..params(Consistency::Inconsistent, 5)
        })
        .generate();
        let lo = EtcGenerator::new(GeneratorParams {
            task_heterogeneity: Heterogeneity::Low,
            machine_heterogeneity: Heterogeneity::Low,
            ..params(Consistency::Inconsistent, 5)
        })
        .generate();
        assert!(hi.etc_range().spread() > lo.etc_range().spread());
    }

    #[test]
    fn braun_name_format() {
        let p = params(Consistency::SemiConsistent, 0);
        assert_eq!(p.braun_name(0), "u_s_hihi.0");
        let p2 = GeneratorParams {
            task_heterogeneity: Heterogeneity::Low,
            machine_heterogeneity: Heterogeneity::High,
            consistency: Consistency::Consistent,
            ..p
        };
        assert_eq!(p2.braun_name(3), "u_c_lohi.3");
    }

    #[test]
    fn benchmark_dimensions() {
        let p = GeneratorParams::benchmark(
            Consistency::Consistent,
            Heterogeneity::High,
            Heterogeneity::Low,
            42,
        );
        assert_eq!(p.n_tasks, 512);
        assert_eq!(p.n_machines, 16);
    }
}
