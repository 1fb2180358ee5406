//! Error type for the privacy mechanisms.

use std::fmt;

/// Errors produced when configuring or running a DP mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum PrivacyError {
    /// The privacy parameter ε must be strictly positive and finite.
    InvalidEpsilon(f64),
    /// δ must lie in (0, 1) for (ε, δ)-DP mechanisms.
    InvalidDelta(f64),
    /// A sensitivity must be strictly positive and finite.
    InvalidSensitivity(f64),
    /// A structural parameter (truncation bound, group size, …) was invalid.
    InvalidParameter(String),
    /// The privacy budget would be exceeded by the requested operation.
    BudgetExceeded {
        /// ε requested by the operation.
        requested: f64,
        /// ε still available.
        remaining: f64,
    },
}

impl fmt::Display for PrivacyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivacyError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be positive and finite, got {e}")
            }
            PrivacyError::InvalidDelta(d) => write!(f, "delta must lie in (0, 1), got {d}"),
            PrivacyError::InvalidSensitivity(s) => {
                write!(f, "sensitivity must be positive and finite, got {s}")
            }
            PrivacyError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            PrivacyError::BudgetExceeded {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exceeded: requested epsilon {requested}, only {remaining} remaining"
            ),
        }
    }
}

impl std::error::Error for PrivacyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_values() {
        assert!(PrivacyError::InvalidEpsilon(-1.0)
            .to_string()
            .contains("-1"));
        assert!(PrivacyError::InvalidDelta(2.0).to_string().contains('2'));
        assert!(PrivacyError::InvalidSensitivity(0.0)
            .to_string()
            .contains('0'));
        assert!(PrivacyError::InvalidParameter("k".into())
            .to_string()
            .contains('k'));
        assert!(PrivacyError::BudgetExceeded {
            requested: 1.0,
            remaining: 0.5
        }
        .to_string()
        .contains("0.5"));
    }
}
