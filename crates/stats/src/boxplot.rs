//! Notched box-plot statistics (Figure 5).
//!
//! MATLAB's notched box plot — the one in the paper — draws notches at
//! `median ± 1.57 · IQR / √n` (McGill, Tukey & Larsen 1978). When two
//! boxes' notches do **not** overlap, their true medians differ at roughly
//! 95% confidence; the paper uses exactly this criterion to conclude
//! "tpx/10 performs better than opx/5 for all instances".

use crate::quartiles::Quartiles;

/// McGill/Tukey notch half-width constant.
pub const NOTCH_CONSTANT: f64 = 1.57;

/// Whisker reach in IQR multiples (Tukey's 1.5 rule).
pub const WHISKER_IQR_FACTOR: f64 = 1.5;

/// Full box-plot statistics of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotStats {
    /// Sample size.
    pub n: usize,
    /// Quartiles (box body).
    pub quartiles: Quartiles,
    /// Lower notch bound `median − 1.57·IQR/√n`.
    pub notch_lo: f64,
    /// Upper notch bound `median + 1.57·IQR/√n`.
    pub notch_hi: f64,
    /// Lowest sample value within `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest sample value within `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Values outside the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxplotStats {
    /// Computes box-plot statistics of a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values.
    pub fn from_sample(sample: &[f64]) -> Self {
        let quartiles = Quartiles::from_sample(sample);
        let n = sample.len();
        let iqr = quartiles.iqr();
        let half_notch = NOTCH_CONSTANT * iqr / (n as f64).sqrt();
        let fence_lo = quartiles.q1 - WHISKER_IQR_FACTOR * iqr;
        let fence_hi = quartiles.q3 + WHISKER_IQR_FACTOR * iqr;

        let mut whisker_lo = f64::INFINITY;
        let mut whisker_hi = f64::NEG_INFINITY;
        let mut outliers = Vec::new();
        for &x in sample {
            if x < fence_lo || x > fence_hi {
                outliers.push(x);
            } else {
                whisker_lo = whisker_lo.min(x);
                whisker_hi = whisker_hi.max(x);
            }
        }
        // Degenerate case: everything is an outlier only if IQR is NaN,
        // impossible for finite input — whiskers always exist because the
        // quartiles themselves lie inside the fences.
        outliers.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self {
            n,
            quartiles,
            notch_lo: quartiles.median - half_notch,
            notch_hi: quartiles.median + half_notch,
            whisker_lo,
            whisker_hi,
            outliers,
        }
    }

    /// The paper's significance criterion: `true` when the notches of the
    /// two samples do **not** overlap, i.e. the true medians differ with
    /// ≈95% confidence.
    pub fn medians_differ(&self, other: &BoxplotStats) -> bool {
        self.notch_hi < other.notch_lo || other.notch_hi < self.notch_lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notch_width_formula() {
        let sample: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let b = BoxplotStats::from_sample(&sample);
        // q1=3, median=5, q3=7, iqr=4, n=9 -> half notch = 1.57*4/3.
        let expect = 1.57 * 4.0 / 3.0;
        assert!((b.notch_hi - (5.0 + expect)).abs() < 1e-12);
        assert!((b.notch_lo - (5.0 - expect)).abs() < 1e-12);
    }

    #[test]
    fn whiskers_without_outliers() {
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = BoxplotStats::from_sample(&sample);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 5.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn outlier_detected() {
        let sample = [1.0, 2.0, 3.0, 4.0, 100.0];
        let b = BoxplotStats::from_sample(&sample);
        assert_eq!(b.outliers, vec![100.0]);
        assert!(b.whisker_hi < 100.0);
    }

    #[test]
    fn clearly_separated_samples_differ() {
        let a: Vec<f64> = (0..30).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..30).map(|i| 20.0 + (i % 5) as f64 * 0.1).collect();
        let sa = BoxplotStats::from_sample(&a);
        let sb = BoxplotStats::from_sample(&b);
        assert!(sa.medians_differ(&sb));
        assert!(sb.medians_differ(&sa));
    }

    #[test]
    fn overlapping_samples_do_not_differ() {
        let a: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..10).map(|i| i as f64 + 0.5).collect();
        let sa = BoxplotStats::from_sample(&a);
        let sb = BoxplotStats::from_sample(&b);
        assert!(!sa.medians_differ(&sb));
    }

    #[test]
    fn identical_samples_never_differ() {
        let a = [3.0, 3.0, 3.0, 3.0];
        let sa = BoxplotStats::from_sample(&a);
        assert!(!sa.medians_differ(&sa.clone()));
    }
}
