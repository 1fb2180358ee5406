//! Privacy-budget bookkeeping.
//!
//! AGM-DP (Algorithm 3) splits a global privacy budget ε among the learning
//! procedures for the three parameter sets and relies on *sequential
//! composition*: running mechanisms with budgets ε₁, …, ε_k on the same input
//! yields (Σ εᵢ)-differential privacy. [`PrivacyBudget`] is a small accountant
//! that enforces the total; [`BudgetSplit`] captures the concrete splits used
//! in Section 5 for the TriCycLe- and FCL-based instantiations.

use serde::Serialize;

use crate::error::PrivacyError;
use crate::Result;

/// A sequential-composition budget accountant.
///
/// Mechanism invocations call [`PrivacyBudget::spend`] before running; once
/// the total is exhausted further spends fail, which surfaces composition bugs
/// in tests instead of silently over-spending ε.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
    /// Neumaier–Kahan compensation for `spent`: accumulating many small ε's
    /// with a plain `+=` drifts by one ulp per spend, which after thousands of
    /// spends can either overshoot `total` or silently under-count ε. The
    /// carry keeps `spent + carry` equal to the exact sum of all spends to
    /// within one final rounding.
    carry: f64,
}

impl PrivacyBudget {
    /// Creates an accountant with the given total ε.
    pub fn new(total_epsilon: f64) -> Result<Self> {
        if !(total_epsilon.is_finite() && total_epsilon > 0.0) {
            return Err(PrivacyError::InvalidEpsilon(total_epsilon));
        }
        Ok(Self {
            total: total_epsilon,
            spent: 0.0,
            carry: 0.0,
        })
    }

    /// The total budget ε.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ε spent so far (compensated running sum).
    #[must_use]
    pub fn spent(&self) -> f64 {
        self.spent + self.carry
    }

    /// ε still available.
    #[must_use]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent()).max(0.0)
    }

    /// Records an ε expenditure, failing if it would exceed the total.
    ///
    /// Spends accumulate through a Neumaier–Kahan compensated sum so that
    /// thousands of tiny ε's cannot drift past `total` (or under-count it);
    /// a tiny tolerance additionally absorbs the rounding of splitting ε into
    /// fractions that do not sum exactly to the total.
    ///
    /// ```
    /// use agmdp_privacy::PrivacyBudget;
    ///
    /// let mut budget = PrivacyBudget::new(1.0).unwrap();
    /// budget.spend(0.25).unwrap();
    /// budget.spend(0.5).unwrap();
    /// assert!((budget.remaining() - 0.25).abs() < 1e-12);
    /// // Over-spending is an error, not a silent privacy violation.
    /// assert!(budget.spend(0.5).is_err());
    /// ```
    pub fn spend(&mut self, epsilon: f64) -> Result<()> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(PrivacyError::InvalidEpsilon(epsilon));
        }
        // Neumaier update: `sum` absorbs the addend, `step_carry` recovers the
        // low-order bits lost to rounding whichever operand was smaller.
        let sum = self.spent + epsilon;
        let step_carry = if self.spent.abs() >= epsilon.abs() {
            (self.spent - sum) + epsilon
        } else {
            (epsilon - sum) + self.spent
        };
        let carry = self.carry + step_carry;
        let tolerance = 1e-9 * self.total;
        if sum + carry > self.total + tolerance {
            return Err(PrivacyError::BudgetExceeded {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent = sum;
        self.carry = carry;
        Ok(())
    }
}

/// The ε split used by an AGM-DP run (Section 4 / Section 5 of the paper).
///
/// * `attributes` — ε_X for `LearnAttributesDP`.
/// * `correlations` — ε_F for `LearnCorrelationsDP`.
/// * `degree_sequence` — ε_S for the noisy degree sequence.
/// * `triangles` — ε_Δ for the Ladder triangle-count estimate
///   (zero for structural models that do not need a triangle count, e.g. FCL).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BudgetSplit {
    /// ε_X for the attribute distribution.
    pub attributes: f64,
    /// ε_F for the attribute–edge correlations.
    pub correlations: f64,
    /// ε_S for the degree sequence.
    pub degree_sequence: f64,
    /// ε_Δ for the triangle count.
    pub triangles: f64,
}

impl BudgetSplit {
    /// The even four-way split used for AGM-DP-TriCycLe in Section 5:
    /// ε_X = ε_F = ε_S = ε_Δ = ε / 4.
    pub fn even_tricycle(total_epsilon: f64) -> Result<Self> {
        if !(total_epsilon.is_finite() && total_epsilon > 0.0) {
            return Err(PrivacyError::InvalidEpsilon(total_epsilon));
        }
        let q = total_epsilon / 4.0;
        Ok(Self {
            attributes: q,
            correlations: q,
            degree_sequence: q,
            triangles: q,
        })
    }

    /// The split used for AGM-DP-FCL in Section 5: half the budget for the
    /// degree sequence, the rest split evenly between Θ_X and Θ_F, and no
    /// triangle-count budget.
    pub fn fcl(total_epsilon: f64) -> Result<Self> {
        if !(total_epsilon.is_finite() && total_epsilon > 0.0) {
            return Err(PrivacyError::InvalidEpsilon(total_epsilon));
        }
        Ok(Self {
            attributes: total_epsilon / 4.0,
            correlations: total_epsilon / 4.0,
            degree_sequence: total_epsilon / 2.0,
            triangles: 0.0,
        })
    }

    /// A custom split; every component must be non-negative and at least one
    /// must be positive.
    pub fn custom(
        attributes: f64,
        correlations: f64,
        degree_sequence: f64,
        triangles: f64,
    ) -> Result<Self> {
        let parts = [attributes, correlations, degree_sequence, triangles];
        if parts.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(PrivacyError::InvalidParameter(
                "budget components must be finite and non-negative".to_string(),
            ));
        }
        if parts.iter().sum::<f64>() <= 0.0 {
            return Err(PrivacyError::InvalidParameter(
                "at least one budget component must be positive".to_string(),
            ));
        }
        Ok(Self {
            attributes,
            correlations,
            degree_sequence,
            triangles,
        })
    }

    /// Total ε consumed by this split (by sequential composition).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.attributes + self.correlations + self.degree_sequence + self.triangles
    }

    /// ε_M = ε_S + ε_Δ, the budget given to the structural model.
    #[must_use]
    pub fn structural(&self) -> f64 {
        self.degree_sequence + self.triangles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accounting_tracks_and_enforces() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert_eq!(b.total(), 1.0);
        b.spend(0.25).unwrap();
        b.spend(0.25).unwrap();
        assert!((b.spent() - 0.5).abs() < 1e-12);
        assert!((b.remaining() - 0.5).abs() < 1e-12);
        b.spend(0.5).unwrap();
        assert!(matches!(
            b.spend(0.01),
            Err(PrivacyError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn budget_tolerates_floating_point_splits() {
        let mut b = PrivacyBudget::new(0.3).unwrap();
        for _ in 0..3 {
            b.spend(0.3 / 3.0).unwrap();
        }
        // A 3-way split of 0.3 does not sum exactly to 0.3 in floating point,
        // but must still be accepted.
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    fn thousand_small_spends_do_not_drift() {
        // Regression for floating-point drift: a plain `spent += e` loop
        // accumulates one ulp of error per spend, so ε/1000 spent 1000 times
        // could overshoot the total (spurious BudgetExceeded) or under-count.
        // The compensated sum must accept all 1000 spends and land on the
        // exact sum 1000 · fl(total/1000) to within one rounding.
        for total in [1.0, 0.1, 0.3, 2.5e-3, 7.0] {
            let mut b = PrivacyBudget::new(total).unwrap();
            let step = total / 1000.0;
            for i in 0..1000 {
                b.spend(step)
                    .unwrap_or_else(|e| panic!("spend {i} of {total}/1000 failed: {e}"));
            }
            let exact = step * 1000.0; // compensated sum of 1000 equal terms
            assert!(
                (b.spent() - exact).abs() <= f64::EPSILON * exact,
                "total {total}: spent {} drifted from exact {exact}",
                b.spent()
            );
            assert!(b.remaining() <= 1e-9 * total);
            // The budget is now exhausted: a real further spend must fail.
            assert!(matches!(
                b.spend(total / 100.0),
                Err(PrivacyError::BudgetExceeded { .. })
            ));
        }
    }

    #[test]
    fn budget_rejects_invalid_epsilon() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert!(b.spend(-0.1).is_err());
        assert!(b.spend(f64::INFINITY).is_err());
    }

    #[test]
    fn tricycle_split_is_even_quarters() {
        let s = BudgetSplit::even_tricycle(1.0).unwrap();
        assert!((s.attributes - 0.25).abs() < 1e-12);
        assert!((s.correlations - 0.25).abs() < 1e-12);
        assert!((s.degree_sequence - 0.25).abs() < 1e-12);
        assert!((s.triangles - 0.25).abs() < 1e-12);
        assert!((s.total() - 1.0).abs() < 1e-12);
        assert!((s.structural() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fcl_split_gives_half_to_degrees() {
        let s = BudgetSplit::fcl(0.2).unwrap();
        assert!((s.degree_sequence - 0.1).abs() < 1e-12);
        assert!((s.attributes - 0.05).abs() < 1e-12);
        assert_eq!(s.triangles, 0.0);
        assert!((s.total() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn custom_split_validation() {
        assert!(BudgetSplit::custom(0.1, 0.1, 0.1, 0.0).is_ok());
        assert!(BudgetSplit::custom(-0.1, 0.1, 0.1, 0.1).is_err());
        assert!(BudgetSplit::custom(0.0, 0.0, 0.0, 0.0).is_err());
        assert!(BudgetSplit::custom(f64::NAN, 0.1, 0.1, 0.1).is_err());
    }

    #[test]
    fn splits_reject_bad_totals() {
        assert!(BudgetSplit::even_tricycle(-1.0).is_err());
        assert!(BudgetSplit::fcl(0.0).is_err());
    }
}
