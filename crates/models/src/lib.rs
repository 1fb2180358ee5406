//! # agmdp-models
//!
//! Generative structural graph models for the AGM-DP reproduction
//! (Section 3.3 of the paper):
//!
//! * [`pi`] — the Chung-Lu node-sampling distribution π (probability of a node
//!   proportional to its desired degree), implemented as a Walker alias table
//!   (`O(n)` memory, integer-exact construction) so samples take constant
//!   time without the FCL repeated-id pool's `O(2m)` footprint.
//! * [`chung_lu`] — the Fast Chung-Lu (FCL) edge sampler, with optional
//!   AGM acceptance probabilities.
//! * [`tcl`] — the Transitive Chung-Lu model of Pfeiffer et al. with its
//!   EM-estimated transitive-closure parameter ρ (used as a non-private
//!   baseline in Figures 2–3).
//! * [`tricycle`] — the paper's new **TriCycLe** model (Algorithm 1): a CL
//!   seed graph refined by triangle-targeted edge rewiring.
//! * [`postprocess`] — the orphan-node post-processing of Algorithm 2 and the
//!   degree-one extension.
//! * [`baselines`] — uniform-edge (Erdős–Rényi with fixed edge count) and
//!   uniform-correlation baselines used for calibration in Section 5.2.
//! * [`acceptance`] — the [`acceptance::StructuralModel`] trait, its one
//!   request-driven entry point ([`acceptance::GenerateRequest`]), and the
//!   acceptance-probability context through which AGM-DP plugs the learned
//!   attribute correlations into any structural model.
//! * [`parallel`] — the deterministic parallel synthesis engine: a chunked
//!   work-stealing executor, the per-chunk RNG derivation that makes
//!   multi-threaded sampling bit-identical to single-threaded sampling, and
//!   the [`parallel::BlockRng`] buffer that batches ChaCha output per chunk.
//! * [`observe`] — the clock-free [`observe::StageObserver`] hooks through
//!   which the service layer times pipeline stages without this crate ever
//!   reading a wall clock.
//!
//! All generation takes a caller-provided RNG so experiments are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod baselines;
pub mod chung_lu;
pub mod error;
pub mod observe;
pub mod parallel;
pub mod pi;
pub mod postprocess;
pub mod tcl;
pub mod tricycle;

pub use acceptance::{AcceptanceContext, GenerateRequest, StructuralModel};
pub use chung_lu::ChungLuModel;
pub use error::ModelError;
pub use observe::{NoopStageObserver, StageObserver, SynthesisStage};
pub use parallel::{BlockRng, ExecPolicy};
pub use pi::{AliasSlot, AliasTable, PiSampler};
pub use tcl::TclModel;
pub use tricycle::TriCycLeModel;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
