//! Quartiles with linear interpolation (type-7, the MATLAB/NumPy default —
//! matching the tool the paper used to draw Figure 5).

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

/// Type-7 quantile of **sorted** data.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl Quartiles {
    /// Computes quartiles of a sample (unsorted input accepted).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values.
    pub fn from_sample(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "empty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample values"));
        Self {
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Arbitrary type-7 percentile of a sample, `p` in `[0, 1]`.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample values"));
    quantile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_length_median_exact() {
        let q = Quartiles::from_sample(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.iqr(), 2.0);
    }

    #[test]
    fn even_length_interpolates() {
        let q = Quartiles::from_sample(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(q.median, 2.5);
        assert_eq!(q.q1, 1.75);
        assert_eq!(q.q3, 3.25);
    }

    #[test]
    fn unsorted_input_ok() {
        let q = Quartiles::from_sample(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(q.median, 3.0);
    }

    #[test]
    fn single_element() {
        let q = Quartiles::from_sample(&[7.0]);
        assert_eq!(q.q1, 7.0);
        assert_eq!(q.median, 7.0);
        assert_eq!(q.q3, 7.0);
        assert_eq!(q.iqr(), 0.0);
    }

    #[test]
    fn percentile_extremes() {
        let s = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 30.0);
        assert_eq!(percentile(&s, 0.5), 20.0);
    }

    #[test]
    fn matches_numpy_type7_reference() {
        // numpy.percentile([15, 20, 35, 40, 50], 25) == 20.0 (type 7)
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.25), 20.0);
        // numpy.percentile(..., 40) == 29.0
        assert!((percentile(&s, 0.40) - 29.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_panics() {
        Quartiles::from_sample(&[]);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_percentile_panics() {
        percentile(&[1.0], 1.5);
    }
}
