//! Replacement policies.
//!
//! The paper replaces the current individual with the offspring only when
//! the offspring **improves** the fitness ("replace if better", Table 1).

/// When the offspring may replace the current individual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Replace only on strict improvement (the paper's policy).
    ReplaceIfBetter,
    /// Replace on improvement or tie — keeps genetic drift alive on
    /// plateaus.
    ReplaceIfBetterOrEqual,
    /// Always replace (generational pressure only from selection).
    Always,
}

impl ReplacementPolicy {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::ReplaceIfBetter => "replace-if-better",
            ReplacementPolicy::ReplaceIfBetterOrEqual => "replace-if-better-or-equal",
            ReplacementPolicy::Always => "always",
        }
    }

    /// Should an offspring with fitness `offspring` replace a current
    /// individual with fitness `current`? (Lower fitness is better.)
    #[inline]
    pub fn accepts(self, current: f64, offspring: f64) -> bool {
        match self {
            ReplacementPolicy::ReplaceIfBetter => offspring < current,
            ReplacementPolicy::ReplaceIfBetterOrEqual => offspring <= current,
            ReplacementPolicy::Always => true,
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_if_better_is_strict() {
        let p = ReplacementPolicy::ReplaceIfBetter;
        assert!(p.accepts(10.0, 9.0));
        assert!(!p.accepts(10.0, 10.0));
        assert!(!p.accepts(10.0, 11.0));
    }

    #[test]
    fn better_or_equal_accepts_ties() {
        let p = ReplacementPolicy::ReplaceIfBetterOrEqual;
        assert!(p.accepts(10.0, 10.0));
        assert!(p.accepts(10.0, 9.0));
        assert!(!p.accepts(10.0, 11.0));
    }

    #[test]
    fn always_accepts_everything() {
        let p = ReplacementPolicy::Always;
        assert!(p.accepts(10.0, 999.0));
    }
}
