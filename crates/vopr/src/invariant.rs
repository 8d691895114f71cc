//! The invariant registry: every correctness property the VOPR harness
//! asserts is a *named, counted* check. Counting matters as much as
//! passing — an invariant that executed zero times proves nothing, so
//! the report gates on execution counts for the required set, not just
//! on the absence of violations.

use std::collections::BTreeMap;

/// The invariants whose execution count must be ≥ 1 for a run to pass:
/// each one names a distinct correctness property of the pipeline, and
/// a run that never exercised one of them has a coverage hole, not a
/// clean bill.
pub const REQUIRED_INVARIANTS: &[&str] = &[
    "model_admission_agreement",
    "watermark_agreement",
    "watermark_monotone",
    "window_tiling",
    "stream_one_shot_identity",
    "pipeline_inline_equivalence",
    "delivery_accounting",
    "eviction_safety",
    "backpressure_bound",
    "birth_equivalence",
    "tenant_isolation",
    "coverage_sanity",
    "arena_high_water",
    "dead_rank_visible",
];

/// One observed violation, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub scenario: &'static str,
    pub invariant: &'static str,
    pub seed: u64,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] invariant `{}` violated (seed {}): {}",
            self.scenario, self.invariant, self.seed, self.message
        )
    }
}

/// Counts every invariant execution and records every violation. One
/// tracker spans one suite run; the driver merges trackers across
/// seeds.
#[derive(Debug, Default)]
pub struct InvariantTracker {
    counts: BTreeMap<&'static str, u64>,
    violations: Vec<Violation>,
    scenario: &'static str,
    seed: u64,
}

impl InvariantTracker {
    pub fn new() -> InvariantTracker {
        InvariantTracker::default()
    }

    /// Set the scenario context stamped onto subsequent violations.
    pub fn enter(&mut self, scenario: &'static str, seed: u64) {
        self.scenario = scenario;
        self.seed = seed;
    }

    /// Execute one invariant: count it, record a violation if it failed.
    /// The message closure only runs on failure.
    pub fn check(&mut self, invariant: &'static str, ok: bool, message: impl FnOnce() -> String) {
        *self.counts.entry(invariant).or_insert(0) += 1;
        if !ok {
            self.violations.push(Violation {
                scenario: self.scenario,
                invariant,
                seed: self.seed,
                message: message(),
            });
        }
    }

    /// Execute one invariant expressed as a `Result` check.
    pub fn check_result(&mut self, invariant: &'static str, result: Result<(), String>) {
        let ok = result.is_ok();
        self.check(invariant, ok, || result.err().unwrap_or_default());
    }

    /// Record a scenario panic as a violation (a deterministic harness
    /// never panics; a canary mutation may).
    pub fn record_panic(&mut self, scenario: &'static str, seed: u64, message: String) {
        self.violations.push(Violation { scenario, invariant: "no_panic", seed, message });
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Required invariants that never executed in this tracker.
    pub fn missing_required(&self) -> Vec<&'static str> {
        REQUIRED_INVARIANTS
            .iter()
            .filter(|name| self.counts.get(*name).copied().unwrap_or(0) == 0)
            .copied()
            .collect()
    }

    /// Fold another tracker's counts and violations into this one.
    pub fn merge(&mut self, other: InvariantTracker) {
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
        self.violations.extend(other.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_violations_carry_context() {
        let mut t = InvariantTracker::new();
        t.enter("clean_solo", 42);
        t.check("window_tiling", true, String::new);
        t.check("window_tiling", false, || "hole at window 3".to_string());
        assert_eq!(t.counts().get("window_tiling"), Some(&2));
        assert_eq!(t.violations().len(), 1);
        let v = &t.violations()[0];
        assert_eq!((v.scenario, v.invariant, v.seed), ("clean_solo", "window_tiling", 42));
        assert!(v.to_string().contains("hole at window 3"));
    }

    #[test]
    fn missing_required_lists_unexecuted_invariants_only() {
        let mut t = InvariantTracker::new();
        for name in REQUIRED_INVARIANTS {
            t.check(name, true, String::new);
        }
        assert!(t.missing_required().is_empty());
        let fresh = InvariantTracker::new();
        assert_eq!(fresh.missing_required().len(), REQUIRED_INVARIANTS.len());
    }

    #[test]
    fn merge_folds_counts_and_violations() {
        let mut a = InvariantTracker::new();
        a.check("delivery_accounting", true, String::new);
        let mut b = InvariantTracker::new();
        b.enter("hostile_solo", 7);
        b.check("delivery_accounting", false, || "off by one".to_string());
        a.merge(b);
        assert_eq!(a.counts().get("delivery_accounting"), Some(&2));
        assert_eq!(a.violations().len(), 1);
    }
}
