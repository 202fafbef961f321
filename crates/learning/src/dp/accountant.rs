//! Per-entity privacy-budget accounting.
//!
//! The paper splits a device's total budget as `ε = ε_g + ε_e + C·ε_y^k`
//! (Appendix B, Remark 1) and argues that, because the counter releases are not
//! needed for learning, `ε_e` and `ε_y` can be made negligibly small so that
//! `ε ≈ ε_g`. [`PrivacyBudget`] encodes that split; [`BudgetAccountant`] tracks
//! cumulative spend per device under basic (sequential) composition so a
//! deployment can refuse releases that would exceed a per-device ceiling.

use super::Epsilon;
use crate::{LearningError, Result};
use std::collections::BTreeMap;

/// The per-checkin privacy budget split across the three kinds of release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    /// Budget for the averaged-gradient release (ε_g, Eq. 10).
    pub gradient: Epsilon,
    /// Budget for the misclassification-count release (ε_e, Eq. 11).
    pub error_count: Epsilon,
    /// Budget for each per-class label-count release (ε_y^k, Eq. 12).
    pub label_count: Epsilon,
}

impl PrivacyBudget {
    /// A fully non-private budget (all mechanisms add no noise).
    pub fn non_private() -> Self {
        PrivacyBudget {
            gradient: Epsilon::NonPrivate,
            error_count: Epsilon::NonPrivate,
            label_count: Epsilon::NonPrivate,
        }
    }

    /// Splits a total ε following the paper's guidance: almost everything goes to
    /// the gradient, and a small `monitor_fraction` (of the total) is divided
    /// between the error counter and the `num_classes` label counters.
    pub fn split_total(total: Epsilon, num_classes: usize, monitor_fraction: f64) -> Result<Self> {
        let monitor_fraction = monitor_fraction.clamp(0.0, 0.5);
        match total {
            Epsilon::NonPrivate => Ok(Self::non_private()),
            Epsilon::Finite(eps) => {
                if eps <= 0.0 || !eps.is_finite() {
                    return Err(LearningError::InvalidEpsilon(eps));
                }
                let monitor = eps * monitor_fraction;
                let gradient = eps - monitor;
                // Error counter and the C label counters share the monitor budget.
                let per_counter = monitor / (1.0 + num_classes.max(1) as f64);
                let eps_or_non_private = |v: f64| {
                    if v > 0.0 {
                        Epsilon::Finite(v)
                    } else {
                        // A zero monitoring budget means those counters are simply
                        // not protected by a finite ε; callers that set
                        // monitor_fraction = 0 should not release counters at all.
                        Epsilon::NonPrivate
                    }
                };
                Ok(PrivacyBudget {
                    gradient: Epsilon::Finite(gradient),
                    error_count: eps_or_non_private(per_counter),
                    label_count: eps_or_non_private(per_counter),
                })
            }
        }
    }

    /// Total ε consumed by one checkin that releases the gradient, the error count,
    /// and `num_classes` label counts: `ε_g + ε_e + C·ε_y`.
    pub fn total_per_checkin(&self, num_classes: usize) -> f64 {
        let finite = |e: Epsilon| match e {
            Epsilon::Finite(v) => v,
            Epsilon::NonPrivate => 0.0,
        };
        finite(self.gradient)
            + finite(self.error_count)
            + num_classes as f64 * finite(self.label_count)
    }

    /// `true` when every component is non-private (no noise anywhere).
    pub fn is_non_private(&self) -> bool {
        !self.gradient.is_private()
            && !self.error_count.is_private()
            && !self.label_count.is_private()
    }
}

/// Tracks cumulative ε spend per entity (device) under basic composition.
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    ceiling: f64,
    // A BTreeMap so the ledger iterates in entity order: these entries reach
    // snapshots and acks, and their order must not vary run to run.
    spent: BTreeMap<String, f64>,
}

impl BudgetAccountant {
    /// Creates an accountant with a per-entity ceiling (use `f64::INFINITY` for
    /// unlimited tracking-only accounting).
    pub fn new(ceiling: f64) -> Self {
        BudgetAccountant {
            ceiling,
            spent: BTreeMap::new(),
        }
    }

    /// The configured per-entity ceiling.
    pub fn ceiling(&self) -> f64 {
        self.ceiling
    }

    /// Total ε spent so far by `entity` (zero if never seen).
    pub fn spent(&self, entity: &str) -> f64 {
        *self.spent.get(entity).unwrap_or(&0.0)
    }

    /// Remaining budget for `entity`.
    pub fn remaining(&self, entity: &str) -> f64 {
        (self.ceiling - self.spent(entity)).max(0.0)
    }

    /// Records a spend of `cost` for `entity`, failing if it would exceed the
    /// ceiling. A cost of zero (non-private release) always succeeds.
    pub fn charge(&mut self, entity: &str, cost: f64) -> Result<()> {
        if cost < 0.0 || !cost.is_finite() {
            return Err(LearningError::InvalidEpsilon(cost));
        }
        let current = self.spent(entity);
        if current + cost > self.ceiling + 1e-12 {
            return Err(LearningError::BudgetExhausted {
                spent: current,
                requested: cost,
                total: self.ceiling,
            });
        }
        self.add(entity, cost);
        Ok(())
    }

    /// Records a spend of `cost` for `entity` *unconditionally* and reports
    /// whether the entity has now reached (or exceeded) the ceiling.
    ///
    /// Unlike [`BudgetAccountant::charge`], this never refuses: it is meant for
    /// server-side ledgers, where the ε was already spent on the device by the
    /// time its checkin arrives — refusing to record would under-count the true
    /// spend. Callers use the returned flag to stop querying the entity.
    pub fn record(&mut self, entity: &str, cost: f64) -> Result<bool> {
        if cost < 0.0 || !cost.is_finite() {
            return Err(LearningError::InvalidEpsilon(cost));
        }
        let spent = self.add(entity, cost);
        // Slack scaled to the ceiling: a tiny ceiling must not read as already
        // exhausted before anything was spent.
        let slack = 1e-12 * self.ceiling.abs().min(1.0);
        Ok(spent >= self.ceiling - slack)
    }

    /// Adds `cost` to `entity`'s spend (from `0.0` for a new entity) and
    /// returns the new total. The key is copied only when the entity is new.
    fn add(&mut self, entity: &str, cost: f64) -> f64 {
        match self.spent.get_mut(entity) {
            Some(spent) => {
                *spent += cost;
                *spent
            }
            None => {
                let spent = 0.0 + cost;
                self.spent.insert(entity.to_owned(), spent);
                spent
            }
        }
    }

    /// Rebuilds the ledger from persisted `(entity, spent)` pairs, replacing any
    /// prior entries for the same entities. Spends beyond the ceiling are kept
    /// as-is (they record history, not permission).
    pub fn restore_spent<I, S>(&mut self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        for (entity, spent) in entries {
            if spent < 0.0 || !spent.is_finite() {
                return Err(LearningError::InvalidEpsilon(spent));
            }
            self.spent.insert(entity.into(), spent);
        }
        Ok(())
    }

    /// Iterator over `(entity, spent)` pairs in ascending entity order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.spent.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Resets the recorded spend for every entity (e.g. when a new collection
    /// epoch starts with a fresh budget).
    pub fn reset(&mut self) {
        self.spent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_private_budget() {
        let b = PrivacyBudget::non_private();
        assert!(b.is_non_private());
        assert_eq!(b.total_per_checkin(10), 0.0);
    }

    #[test]
    fn split_total_allocates_most_to_gradient() {
        let total = Epsilon::finite(1.0).unwrap();
        let b = PrivacyBudget::split_total(total, 10, 0.01).unwrap();
        match b.gradient {
            Epsilon::Finite(g) => assert!((g - 0.99).abs() < 1e-12),
            _ => panic!("gradient budget should be finite"),
        }
        // Total per checkin never exceeds the requested total.
        assert!(b.total_per_checkin(10) <= 1.0 + 1e-9);
        assert!(!b.is_non_private());
    }

    #[test]
    fn split_total_non_private_passthrough_and_zero_monitor() {
        assert!(PrivacyBudget::split_total(Epsilon::NonPrivate, 3, 0.1)
            .unwrap()
            .is_non_private());
        let b = PrivacyBudget::split_total(Epsilon::finite(2.0).unwrap(), 3, 0.0).unwrap();
        assert!(b.gradient.is_private());
        assert!(!b.error_count.is_private());
    }

    #[test]
    fn accountant_tracks_and_enforces_ceiling() {
        let mut acc = BudgetAccountant::new(1.0);
        acc.charge("dev-1", 0.4).unwrap();
        acc.charge("dev-1", 0.4).unwrap();
        assert!((acc.spent("dev-1") - 0.8).abs() < 1e-12);
        assert!((acc.remaining("dev-1") - 0.2).abs() < 1e-12);
        let err = acc.charge("dev-1", 0.4).unwrap_err();
        assert!(matches!(err, LearningError::BudgetExhausted { .. }));
        // Other devices are unaffected.
        acc.charge("dev-2", 0.9).unwrap();
        assert_eq!(acc.iter().count(), 2);
    }

    #[test]
    fn accountant_rejects_invalid_costs_and_resets() {
        let mut acc = BudgetAccountant::new(10.0);
        assert!(acc.charge("d", -1.0).is_err());
        assert!(acc.charge("d", f64::NAN).is_err());
        acc.charge("d", 1.0).unwrap();
        acc.reset();
        assert_eq!(acc.spent("d"), 0.0);
        assert_eq!(acc.iter().count(), 0);
    }

    #[test]
    fn charge_checkin_uses_budget_split() {
        let total = Epsilon::finite(0.5).unwrap();
        let budget = PrivacyBudget::split_total(total, 3, 0.1).unwrap();
        let per_checkin = budget.total_per_checkin(3);
        let mut acc = BudgetAccountant::new(5.0);
        acc.charge("dev", per_checkin).unwrap();
        assert!((acc.spent("dev") - per_checkin).abs() < 1e-12);
        // Ten checkins fit within a ceiling of 5.0 for a per-checkin cost of 0.5.
        for _ in 0..9 {
            acc.charge("dev", per_checkin).unwrap();
        }
        assert!(acc.charge("dev", per_checkin).is_err());
    }

    #[test]
    fn record_counts_past_ceiling_and_flags_exhaustion() {
        let mut acc = BudgetAccountant::new(1.0);
        assert!(!acc.record("dev", 0.6).unwrap());
        // The recording that crosses the ceiling reports exhaustion but still
        // lands in the ledger — the spend already happened on the device.
        assert!(acc.record("dev", 0.6).unwrap());
        assert!((acc.spent("dev") - 1.2).abs() < 1e-12);
        assert_eq!(acc.remaining("dev"), 0.0);
        // Exactly at the ceiling counts as exhausted.
        let mut exact = BudgetAccountant::new(1.0);
        assert!(exact.record("d", 1.0).unwrap());
        assert!(acc.record("dev", f64::NAN).is_err());
        assert!(acc.record("dev", -0.1).is_err());
        // A ceiling smaller than the absolute slack must not read as
        // pre-exhausted before anything was spent.
        let mut tiny = BudgetAccountant::new(1e-13);
        assert!(!tiny.record("d", 0.0).unwrap());
        assert!(tiny.record("d", 1e-13).unwrap());
    }

    #[test]
    fn restore_spent_rebuilds_the_ledger() {
        let mut acc = BudgetAccountant::new(2.0);
        acc.charge("a", 0.5).unwrap();
        acc.restore_spent([("a".to_string(), 1.5), ("b".to_string(), 3.0)])
            .unwrap();
        assert_eq!(acc.spent("a"), 1.5);
        // Past-ceiling history is restored verbatim.
        assert_eq!(acc.spent("b"), 3.0);
        assert_eq!(acc.iter().count(), 2);
        assert!(acc
            .restore_spent([("c".to_string(), f64::INFINITY)])
            .is_err());
    }

    #[test]
    fn iter_reports_entities() {
        let mut acc = BudgetAccountant::new(f64::INFINITY);
        acc.charge("a", 1.0).unwrap();
        acc.charge("b", 2.0).unwrap();
        let mut entries: Vec<(String, f64)> = acc.iter().map(|(k, v)| (k.to_string(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(entries[0], ("a".to_string(), 1.0));
        assert_eq!(entries[1], ("b".to_string(), 2.0));
    }
}
