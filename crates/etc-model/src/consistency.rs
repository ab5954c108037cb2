//! Consistency classes of ETC matrices (Ali et al., 2000).
//!
//! An ETC matrix is **consistent** when machine speed order is uniform: if
//! machine `a` runs *some* task faster than machine `b`, it runs *every*
//! task faster. **Inconsistent** matrices have no such order. A
//! **semi-consistent** matrix is inconsistent overall but contains a
//! consistent sub-matrix (conventionally the even rows × even columns).
//!
//! The PA-CGA paper's benchmark instances span all three classes
//! (`u_c_*`, `u_i_*`, `u_s_*`), and its headline result is that PA-CGA wins
//! most clearly on the inconsistent, highly heterogeneous instances.

use crate::matrix::EtcMatrix;

/// Consistency class of an ETC matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// `c` — a uniform machine speed order exists (Blazewicz `Q`).
    Consistent,
    /// `i` — machine speed order varies per task (Blazewicz `R`).
    Inconsistent,
    /// `s` — inconsistent, but the even-row × even-column sub-matrix is
    /// consistent (Blazewicz `R`).
    SemiConsistent,
}

impl Consistency {
    /// The one-letter code used in Braun instance names (`u_c_hihi.0`…).
    pub fn code(self) -> char {
        match self {
            Consistency::Consistent => 'c',
            Consistency::Inconsistent => 'i',
            Consistency::SemiConsistent => 's',
        }
    }

    /// Parses a Braun instance-name code.
    pub fn from_code(c: char) -> Option<Self> {
        match c {
            'c' => Some(Consistency::Consistent),
            'i' => Some(Consistency::Inconsistent),
            's' => Some(Consistency::SemiConsistent),
            _ => None,
        }
    }

    /// All three classes, in the order the paper tabulates them.
    pub fn all() -> [Consistency; 3] {
        [Consistency::Consistent, Consistency::SemiConsistent, Consistency::Inconsistent]
    }
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Consistency::Consistent => "consistent",
            Consistency::Inconsistent => "inconsistent",
            Consistency::SemiConsistent => "semi-consistent",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for Consistency {
    type Err = String;

    /// Accepts the one-letter Braun code (`c`/`s`/`i`) and the full class
    /// name (`consistent`, `semi-consistent`, `inconsistent`) — the shared
    /// spelling for CLI flags and service requests.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "c" | "consistent" => Ok(Consistency::Consistent),
            "s" | "semi-consistent" | "semi" => Ok(Consistency::SemiConsistent),
            "i" | "inconsistent" => Ok(Consistency::Inconsistent),
            other => Err(format!("bad consistency {other:?} (c|s|i)")),
        }
    }
}

/// Returns `true` if machine `a` is never slower than machine `b` on any
/// task (ties allowed).
fn dominates(etc: &EtcMatrix, a: usize, b: usize) -> bool {
    (0..etc.n_tasks()).all(|t| etc.etc(t, a) <= etc.etc(t, b))
}

/// Checks full consistency: for every machine pair, one machine dominates
/// the other across all tasks.
pub fn is_consistent(etc: &EtcMatrix) -> bool {
    let m = etc.n_machines();
    for a in 0..m {
        for b in (a + 1)..m {
            if !dominates(etc, a, b) && !dominates(etc, b, a) {
                return false;
            }
        }
    }
    true
}

/// Checks that the even-row × even-column sub-matrix is consistent.
pub fn has_consistent_submatrix(etc: &EtcMatrix) -> bool {
    let machines: Vec<usize> = (0..etc.n_machines()).step_by(2).collect();
    let tasks: Vec<usize> = (0..etc.n_tasks()).step_by(2).collect();
    for (i, &a) in machines.iter().enumerate() {
        for &b in &machines[i + 1..] {
            let a_dom = tasks.iter().all(|&t| etc.etc(t, a) <= etc.etc(t, b));
            let b_dom = tasks.iter().all(|&t| etc.etc(t, b) <= etc.etc(t, a));
            if !a_dom && !b_dom {
                return false;
            }
        }
    }
    true
}

/// Fraction of machine pairs that are consistently ordered across all
/// tasks — 1.0 for consistent matrices, typically near 0 for inconsistent
/// ones with many tasks. Useful as a diagnostic.
pub fn consistency_degree(etc: &EtcMatrix) -> f64 {
    let m = etc.n_machines();
    if m < 2 {
        return 1.0;
    }
    let mut ordered = 0usize;
    let mut pairs = 0usize;
    for a in 0..m {
        for b in (a + 1)..m {
            pairs += 1;
            if dominates(etc, a, b) || dominates(etc, b, a) {
                ordered += 1;
            }
        }
    }
    ordered as f64 / pairs as f64
}

/// Classifies a matrix into the strongest class it satisfies.
pub fn classify(etc: &EtcMatrix) -> Consistency {
    if is_consistent(etc) {
        Consistency::Consistent
    } else if has_consistent_submatrix(etc) {
        Consistency::SemiConsistent
    } else {
        Consistency::Inconsistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent_matrix() -> EtcMatrix {
        // Machine 0 fastest everywhere, then 1, then 2.
        EtcMatrix::from_task_major(
            3,
            3,
            vec![
                1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 9.0,
            ],
        )
    }

    fn inconsistent_matrix() -> EtcMatrix {
        // Machine 0 faster on task 0, machine 1 faster on task 1.
        EtcMatrix::from_task_major(
            2,
            2,
            vec![
                1.0, 2.0, //
                5.0, 3.0,
            ],
        )
    }

    #[test]
    fn consistent_detected() {
        assert!(is_consistent(&consistent_matrix()));
        assert_eq!(classify(&consistent_matrix()), Consistency::Consistent);
        assert_eq!(consistency_degree(&consistent_matrix()), 1.0);
    }

    #[test]
    fn inconsistent_detected() {
        assert!(!is_consistent(&inconsistent_matrix()));
        assert_eq!(consistency_degree(&inconsistent_matrix()), 0.0);
    }

    #[test]
    fn semi_consistent_detected() {
        // 3 tasks × 4 machines. Even rows (0,2) × even cols (0,2) consistent,
        // full matrix inconsistent via odd entries.
        let etc = EtcMatrix::from_task_major(
            3,
            4,
            vec![
                1.0, 9.0, 2.0, 1.0, //
                5.0, 1.0, 1.0, 9.0, //
                3.0, 2.0, 4.0, 1.5,
            ],
        );
        assert!(!is_consistent(&etc));
        assert!(has_consistent_submatrix(&etc));
        assert_eq!(classify(&etc), Consistency::SemiConsistent);
    }

    #[test]
    fn single_machine_is_consistent() {
        let etc = EtcMatrix::from_task_major(3, 1, vec![1.0, 2.0, 3.0]);
        assert!(is_consistent(&etc));
        assert_eq!(consistency_degree(&etc), 1.0);
    }

    #[test]
    fn row_sorted_matrix_is_consistent() {
        let etc = inconsistent_matrix().row_sorted();
        assert!(is_consistent(&etc));
    }

    #[test]
    fn codes_round_trip() {
        for c in Consistency::all() {
            assert_eq!(Consistency::from_code(c.code()), Some(c));
        }
        assert_eq!(Consistency::from_code('x'), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Consistency::Consistent.to_string(), "consistent");
        assert_eq!(Consistency::SemiConsistent.to_string(), "semi-consistent");
        assert_eq!(Consistency::Inconsistent.to_string(), "inconsistent");
    }

    #[test]
    fn from_str_accepts_codes_and_long_names() {
        for c in Consistency::all() {
            assert_eq!(c.code().to_string().parse::<Consistency>().unwrap(), c);
            assert_eq!(c.to_string().parse::<Consistency>().unwrap(), c);
        }
        assert!("x".parse::<Consistency>().unwrap_err().contains("c|s|i"));
    }

    #[test]
    fn degree_partial() {
        // 3 machines: 0 dominates 1 and 2; 1 vs 2 mixed -> 2/3 ordered.
        let etc = EtcMatrix::from_task_major(
            2,
            3,
            vec![
                1.0, 2.0, 3.0, //
                1.0, 5.0, 4.0,
            ],
        );
        let d = consistency_degree(&etc);
        assert!((d - 2.0 / 3.0).abs() < 1e-12, "degree {d}");
    }
}
