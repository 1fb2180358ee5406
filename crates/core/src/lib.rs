//! # agmdp-core
//!
//! The Attributed Graph Model (AGM) and its differentially private adaptation
//! **AGM-DP** — the primary contribution of "Publishing Attributed Social
//! Graphs with Formal Privacy Guarantees" (Jorgensen, Yu & Cormode, SIGMOD
//! 2016).
//!
//! AGM describes an attributed graph with three parameter sets (Section 2.2):
//!
//! * `Θ_X` — the distribution of attribute configurations over nodes,
//! * `Θ_F` — the distribution of attribute configurations over edges
//!   (the attribute–edge correlations, e.g. homophily),
//! * `Θ_M` — the parameters of an underlying generative structural model
//!   (for TriCycLe: the degree sequence and triangle count).
//!
//! This crate provides:
//!
//! * [`params`] — the parameter types and their exact (non-private) learners.
//! * [`attributes_dp`] — `LearnAttributesDP` (Algorithm 5).
//! * [`correlations_dp`] — `LearnCorrelationsDP` via edge truncation
//!   (Algorithm 4, Proposition 1) plus the smooth-sensitivity,
//!   sample-and-aggregate and naïve-Laplace alternatives of Appendix B.
//! * [`structural_dp`] — `FitTriCycLeDP` (Algorithm 6) and the FCL variant.
//! * [`statistics`] — [`FitStatistics`], the graph-only statistics those
//!   learners add noise to, kept per input so repeated fits count them once.
//! * [`acceptance`] — the accept/reject probabilities that impose the learned
//!   correlations on the structural model's proposals.
//! * [`workflow`] — the end-to-end AGM / AGM-DP synthesis pipeline
//!   (Algorithm 3, Theorem 2).
//! * [`node_dp`] — the preliminary node-differential-privacy extension
//!   sketched in Section 7.
//!
//! ## Quick example
//!
//! ```
//! use agmdp_core::workflow::{AgmConfig, Privacy, StructuralModelKind, synthesize};
//! use agmdp_datasets::toy_social_graph;
//! use rand::SeedableRng;
//!
//! let input = toy_social_graph();
//! let config = AgmConfig {
//!     privacy: Privacy::Dp { epsilon: 2.0 },
//!     model: StructuralModelKind::TriCycLe,
//!     ..AgmConfig::default()
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let synthetic = synthesize(&input, &config, &mut rng).unwrap();
//! assert_eq!(synthetic.num_nodes(), input.num_nodes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod attributes_dp;
pub mod correlations_dp;
pub mod error;
pub mod node_dp;
pub mod params;
pub mod statistics;
pub mod structural_dp;
pub mod workflow;

pub use error::CoreError;
pub use params::{ThetaF, ThetaM, ThetaX};
pub use statistics::FitStatistics;
pub use workflow::{synthesize, AgmConfig, Privacy, StructuralModelKind};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
