//! # agmdp-privacy
//!
//! Differential-privacy mechanisms and estimators used by the AGM-DP
//! reproduction ("Publishing Attributed Social Graphs with Formal Privacy
//! Guarantees", SIGMOD 2016).
//!
//! The ε-spending surface is one noise type and three mechanisms built on
//! it; no raw draw is exported:
//!
//! * [`laplace`] — [`LaplaceMechanism`] (Section 2.3), inverse-CDF sampling
//!   on top of `rand`. Smooth-sensitivity noise (Appendix B.1) is the same
//!   type with sensitivity `2 S*`.
//! * [`constrained_inference`] — `dp_degree_sequence`: noisy sorted degrees
//!   and Hay et al.'s isotonic regression (PAVA in linear time), Appendix
//!   C.3.1.
//! * [`ladder`] — `dp_triangle_count`: the Ladder framework of Zhang et al.
//!   for triangle counting, rung draw included, Appendix C.3.2; and
//!   `ladder_triangle_count`, the same draw on a graph's
//!   `TriangleStatistics` counted earlier.
//! * [`sample_aggregate`] — `sample_and_aggregate_distribution`, Appendix B.2.
//!
//! The rest spends no ε: [`smooth`] (smooth sensitivity bounds of Nissim et
//! al., including the closed form for `Q_F` of Proposition 4 / Corollaries
//! 5–6), [`postprocess`] (the clamp-and-normalise of Algorithms 4 and 5) and
//! [`budget`] (sequential composition and the AGM-DP splits of Section 4).
//!
//! All mechanisms draw randomness from a caller-provided [`rand::Rng`], so
//! every experiment in the repository is reproducible from a seed.
//!
//! ```
//! use agmdp_privacy::LaplaceMechanism;
//! use rand::SeedableRng;
//!
//! let mech = LaplaceMechanism::new(1.0, 2.0).unwrap(); // ε = 1, sensitivity 2
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let noisy = mech.randomize(10.0, &mut rng);
//! assert!(noisy.is_finite());
//! // Same seed, same draw.
//! let mut again = rand::rngs::StdRng::seed_from_u64(7);
//! assert_eq!(noisy, mech.randomize(10.0, &mut again));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod constrained_inference;
pub mod error;
pub mod ladder;
pub mod laplace;
pub mod postprocess;
pub mod sample_aggregate;
pub mod smooth;

pub use budget::{BudgetSplit, PrivacyBudget};
pub use error::PrivacyError;
pub use laplace::LaplaceMechanism;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, PrivacyError>;
