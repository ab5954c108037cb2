//! Task and machine heterogeneity levels for the range-based generator.
//!
//! Braun et al. generate an ETC entry as `τ(t) · U(1, φ_m)` where
//! `τ(t) ~ U(1, φ_t)`. The `φ` upper bounds encode heterogeneity:
//! high task heterogeneity uses `φ_t = 3000`, low uses `100`;
//! high machine heterogeneity uses `φ_m = 1000`, low uses `10`.
//! These are the published constants behind the `hihi/hilo/lohi/lolo`
//! instance families the PA-CGA paper evaluates on.

/// A heterogeneity level (applies to tasks or machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heterogeneity {
    /// `lo` in instance names.
    Low,
    /// `hi` in instance names.
    High,
}

/// Upper bound of the task-heterogeneity multiplier `φ_t`.
pub const TASK_PHI_HIGH: f64 = 3000.0;
/// Upper bound of the task-heterogeneity multiplier `φ_t` (low).
pub const TASK_PHI_LOW: f64 = 100.0;
/// Upper bound of the machine-heterogeneity multiplier `φ_m`.
pub const MACHINE_PHI_HIGH: f64 = 1000.0;
/// Upper bound of the machine-heterogeneity multiplier `φ_m` (low).
pub const MACHINE_PHI_LOW: f64 = 10.0;

impl Heterogeneity {
    /// The `φ_t` upper bound for this level.
    pub fn task_phi(self) -> f64 {
        match self {
            Heterogeneity::High => TASK_PHI_HIGH,
            Heterogeneity::Low => TASK_PHI_LOW,
        }
    }

    /// The `φ_m` upper bound for this level.
    pub fn machine_phi(self) -> f64 {
        match self {
            Heterogeneity::High => MACHINE_PHI_HIGH,
            Heterogeneity::Low => MACHINE_PHI_LOW,
        }
    }

    /// The two-letter code used in instance names.
    pub fn code(self) -> &'static str {
        match self {
            Heterogeneity::High => "hi",
            Heterogeneity::Low => "lo",
        }
    }

    /// Parses a two-letter instance-name code.
    pub fn from_code(code: &str) -> Option<Self> {
        match code {
            "hi" => Some(Heterogeneity::High),
            "lo" => Some(Heterogeneity::Low),
            _ => None,
        }
    }

    /// Both levels, high first (the paper's table order).
    pub fn all() -> [Heterogeneity; 2] {
        [Heterogeneity::High, Heterogeneity::Low]
    }
}

impl std::fmt::Display for Heterogeneity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl std::str::FromStr for Heterogeneity {
    type Err = String;

    /// Accepts the instance-name code (`hi`/`lo`) and the long spelling
    /// (`high`/`low`) — the shared spelling for CLI flags and service
    /// requests.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hi" | "high" => Ok(Heterogeneity::High),
            "lo" | "low" => Ok(Heterogeneity::Low),
            other => Err(format!("bad heterogeneity {other:?} (hi|lo)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_constants() {
        assert_eq!(Heterogeneity::High.task_phi(), 3000.0);
        assert_eq!(Heterogeneity::Low.task_phi(), 100.0);
        assert_eq!(Heterogeneity::High.machine_phi(), 1000.0);
        assert_eq!(Heterogeneity::Low.machine_phi(), 10.0);
    }

    #[test]
    fn codes_round_trip() {
        for h in Heterogeneity::all() {
            assert_eq!(Heterogeneity::from_code(h.code()), Some(h));
        }
        assert_eq!(Heterogeneity::from_code("xx"), None);
    }

    #[test]
    fn display_matches_code() {
        assert_eq!(Heterogeneity::High.to_string(), "hi");
        assert_eq!(Heterogeneity::Low.to_string(), "lo");
    }

    #[test]
    fn from_str_accepts_codes_and_long_names() {
        assert_eq!("hi".parse::<Heterogeneity>().unwrap(), Heterogeneity::High);
        assert_eq!("high".parse::<Heterogeneity>().unwrap(), Heterogeneity::High);
        assert_eq!("lo".parse::<Heterogeneity>().unwrap(), Heterogeneity::Low);
        assert_eq!("low".parse::<Heterogeneity>().unwrap(), Heterogeneity::Low);
        assert!("medium".parse::<Heterogeneity>().unwrap_err().contains("hi|lo"));
    }
}
