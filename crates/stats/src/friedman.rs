//! Friedman rank test for comparing k algorithms over n problem instances
//! — the appropriate omnibus test for Table 2's layout (each instance is a
//! block, each algorithm a treatment). Lower values rank better
//! (makespans). The p-value uses the χ² approximation with k−1 degrees of
//! freedom, computed via the regularized lower incomplete gamma function.

/// Result of a Friedman test.
#[derive(Debug, Clone)]
pub struct FriedmanResult {
    /// Mean rank per algorithm (1 = best possible).
    pub mean_ranks: Vec<f64>,
    /// The Friedman χ² statistic.
    pub chi_square: f64,
    /// Degrees of freedom (k − 1).
    pub dof: usize,
    /// Approximate p-value of the null "all algorithms perform alike".
    pub p_value: f64,
}

impl FriedmanResult {
    /// Index of the best (lowest mean rank) algorithm.
    pub fn best(&self) -> usize {
        let mut best = 0;
        for i in 1..self.mean_ranks.len() {
            if self.mean_ranks[i] < self.mean_ranks[best] {
                best = i;
            }
        }
        best
    }
}

/// Regularized lower incomplete gamma function P(a, x), by series
/// expansion (x < a+1) or continued fraction (x ≥ a+1). Standard
/// Numerical-Recipes formulation; accurate to ~1e-10 for our range.
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain");
    if x == 0.0 {
        return 0.0;
    }
    let ln_gamma_a = ln_gamma(a);
    if x < a + 1.0 {
        // Series representation.
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma_a).exp()
    } else {
        // Continued fraction for Q(a, x); P = 1 − Q.
        let mut b = x + 1.0 - a;
        let mut c = 1e308;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        1.0 - (-x + a * x.ln() - ln_gamma_a).exp() * h
    }
}

/// Lanczos log-gamma (g = 7, n = 9), |ε| < 1e-13 for positive arguments.
#[allow(clippy::excessive_precision)]
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Survival function of the χ² distribution with `dof` degrees of freedom.
pub fn chi_square_sf(x: f64, dof: usize) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    (1.0 - gamma_p(dof as f64 / 2.0, x / 2.0)).clamp(0.0, 1.0)
}

/// Runs the Friedman test. `scores[block][algorithm]`, lower = better.
///
/// # Panics
///
/// Panics with fewer than 2 algorithms or 2 blocks, or ragged input.
pub fn friedman_test(scores: &[Vec<f64>]) -> FriedmanResult {
    let n = scores.len();
    assert!(n >= 2, "need at least two blocks (instances)");
    let k = scores[0].len();
    assert!(k >= 2, "need at least two algorithms");

    let mut rank_sums = vec![0.0; k];
    for row in scores {
        assert_eq!(row.len(), k, "ragged score matrix");
        // Average ranks with ties.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("finite scores"));
        let mut i = 0;
        while i < k {
            let mut j = i;
            while j + 1 < k && row[order[j + 1]] == row[order[i]] {
                j += 1;
            }
            let avg_rank = (i + j + 2) as f64 / 2.0;
            for &idx in &order[i..=j] {
                rank_sums[idx] += avg_rank;
            }
            i = j + 1;
        }
    }

    let mean_ranks: Vec<f64> = rank_sums.iter().map(|&r| r / n as f64).collect();
    let nf = n as f64;
    let kf = k as f64;
    let sum_r2: f64 = rank_sums.iter().map(|&r| r * r).sum();
    let chi_square = 12.0 / (nf * kf * (kf + 1.0)) * sum_r2 - 3.0 * nf * (kf + 1.0);
    let dof = k - 1;
    FriedmanResult { mean_ranks, chi_square, dof, p_value: chi_square_sf(chi_square, dof) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn chi_square_sf_reference_values() {
        // χ²(df=1): SF(3.841) ≈ 0.05; χ²(df=2): SF(5.991) ≈ 0.05.
        assert!((chi_square_sf(3.841, 1) - 0.05).abs() < 1e-3);
        assert!((chi_square_sf(5.991, 2) - 0.05).abs() < 1e-3);
        assert_eq!(chi_square_sf(0.0, 3), 1.0);
        assert!(chi_square_sf(100.0, 3) < 1e-10);
    }

    #[test]
    fn clear_winner_detected() {
        // Algorithm 0 always best, 2 always worst, across 12 blocks.
        let scores: Vec<Vec<f64>> =
            (0..12).map(|i| vec![1.0 + i as f64, 5.0 + i as f64, 9.0 + i as f64]).collect();
        let r = friedman_test(&scores);
        assert_eq!(r.best(), 0);
        assert!((r.mean_ranks[0] - 1.0).abs() < 1e-12);
        assert!((r.mean_ranks[2] - 3.0).abs() < 1e-12);
        // Perfect separation over 12 blocks: χ² = 12·2 = 24, p ≈ 6e-6.
        assert!((r.chi_square - 24.0).abs() < 1e-9);
        assert!(r.p_value < 1e-4, "p = {}", r.p_value);
    }

    #[test]
    fn identical_algorithms_not_significant() {
        let scores: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64; 3]).collect();
        let r = friedman_test(&scores);
        // All tied: every mean rank is 2, χ² = 0, p = 1.
        for &mr in &r.mean_ranks {
            assert!((mr - 2.0).abs() < 1e-12);
        }
        assert!(r.chi_square.abs() < 1e-9);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn mixed_results_moderate_p() {
        // Two algorithms trading wins 50/50 should be far from significant.
        let scores: Vec<Vec<f64>> =
            (0..10).map(|i| if i % 2 == 0 { vec![1.0, 2.0] } else { vec![2.0, 1.0] }).collect();
        let r = friedman_test(&scores);
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    #[should_panic(expected = "two blocks")]
    fn single_block_rejected() {
        friedman_test(&[vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rejected() {
        friedman_test(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
