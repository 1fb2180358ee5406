//! # agmdp — differentially private synthesis of attributed social graphs
//!
//! A from-scratch Rust reproduction of **"Publishing Attributed Social Graphs
//! with Formal Privacy Guarantees"** (Jorgensen, Yu & Cormode, SIGMOD 2016).
//!
//! The paper's system, **AGM-DP**, takes a sensitive social graph whose nodes
//! carry binary attributes, learns the Attributed Graph Model's parameters
//! under ε-differential privacy, and samples realistic synthetic graphs that
//! preserve both the structure (degree distribution, clustering) and the
//! attribute–edge correlations (homophily) of the input — without disclosing
//! any individual relationship or attribute value.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`graph`] | attributed simple graphs, triangles, clustering, truncation |
//! | [`privacy`] | Laplace / exponential mechanisms, smooth sensitivity, constrained inference, Ladder triangle counting, budgets |
//! | [`models`] | Chung-Lu (FCL), TCL and TriCycLe generative models |
//! | [`core`] | AGM parameters, DP learners, the AGM-DP synthesis workflow |
//! | [`metrics`] | KS / Hellinger / MRE / assortativity / correlation evaluation statistics |
//! | [`datasets`] | synthetic stand-ins for the paper's four datasets |
//! | [`eval`] | declarative, deterministic experiment harness (the paper's evaluation) |
//! | [`obs`] | dependency-free metrics registry (Prometheus text exposition) and JSON tracing |
//! | [`service`] | multi-tenant HTTP synthesis server: budget ledger, fitted-model cache, async jobs, `GET /metrics` |
//! | [`analysis`] | `agmdp-lint`: static checks for the determinism, ε-flow, and panic-freedom invariants |
//!
//! ## Quickstart
//!
//! ```
//! use agmdp::prelude::*;
//! use rand::SeedableRng;
//!
//! // A sensitive input graph (here: the bundled deterministic toy graph).
//! let input = agmdp::datasets::toy_social_graph();
//!
//! // Synthesize a private surrogate with a total budget of ε = 1.
//! let config = AgmConfig {
//!     privacy: Privacy::Dp { epsilon: 1.0 },
//!     model: StructuralModelKind::TriCycLe,
//!     ..AgmConfig::default()
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let synthetic = synthesize(&input, &config, &mut rng).unwrap();
//!
//! // The synthetic graph can be published and analysed in place of the input.
//! assert_eq!(synthetic.num_nodes(), input.num_nodes());
//! let report = GraphComparison::compare(&input, &synthetic);
//! assert!(report.ks_degree <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use agmdp_analysis as analysis;
pub use agmdp_core as core;
pub use agmdp_datasets as datasets;
pub use agmdp_eval as eval;
pub use agmdp_graph as graph;
pub use agmdp_metrics as metrics;
pub use agmdp_models as models;
pub use agmdp_obs as obs;
pub use agmdp_privacy as privacy;
pub use agmdp_service as service;

/// The most commonly used items, re-exported for `use agmdp::prelude::*`.
pub mod prelude {
    pub use agmdp_core::correlations_dp::CorrelationMethod;
    pub use agmdp_core::workflow::{
        learn_parameters, synthesize, synthesize_from_parameters, AgmConfig, Privacy,
        StructuralModelKind,
    };
    pub use agmdp_core::{ThetaF, ThetaM, ThetaX};
    pub use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
    pub use agmdp_eval::{DatasetRef, EpsilonSpec, EvalPlan, EvalReport, UtilityReport};
    pub use agmdp_graph::{AttributeSchema, AttributedGraph, FrozenGraph, GraphBuilder, GraphView};
    pub use agmdp_metrics::GraphComparison;
    pub use agmdp_models::{
        ChungLuModel, GenerateRequest, StructuralModel, TclModel, TriCycLeModel,
    };
    pub use agmdp_privacy::{BudgetSplit, LaplaceMechanism, PrivacyBudget};
}
