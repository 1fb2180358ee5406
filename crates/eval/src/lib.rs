//! # agmdp-eval
//!
//! The declarative, deterministic experiment harness that reproduces the
//! paper's evaluation: every table and figure is a plan (`plans/paper/`)
//! that crosses datasets, an ε grid and row variants with repeated trials,
//! reported as the inputs' Table 6 profile, per-trial rows and mean/stddev
//! aggregates (JSON, CSV and markdown).
//!
//! * [`plan::EvalPlan`] — a plan names datasets, the ε grid (`inf` = the
//!   non-private baseline, `ln2`/`ln3` exact), what each trial measures (a
//!   release, the Θ_F estimator alone, or a bare structural model), the row
//!   variants, the repetition count and the metric columns; the committed
//!   plans are the source of the results book in `docs/EVALUATION.md`.
//! * [`runner`] — `EvalPlan::run` fans trials out over the chunked executor
//!   of `agmdp_models::parallel` with per-trial ChaCha streams derived via
//!   `derive_chunk_seed(master, trial)`, so a whole grid is bit-identical at
//!   any thread count.
//! * [`report::GraphProfile`] — the one whole-graph summary the CLI and
//!   the harness read, and
//!   [`report::UtilityReport::between`] — the one fidelity score over two
//!   profiles: degree KS (CDF and CCDF), Hellinger, degree assortativity,
//!   attribute–edge (Θ_F Hellinger), attribute–attribute and
//!   attribute–degree correlation distances, and the
//!   triangle/clustering/edge-count relative errors.
//! * [`output`] — deterministic JSON/CSV/markdown artifact rendering; the
//!   `eval-smoke` CI job diffs `aggregates.json` against a checked-in golden
//!   file with no tolerance.
//!
//! ```
//! use agmdp_eval::EvalPlan;
//!
//! let plan = EvalPlan::parse(
//!     "plan quick\ndataset toy\nepsilon 1\nmodel tricycle\nrepetitions 1\n",
//! ).unwrap();
//! let report = plan.run().unwrap();
//! assert_eq!(report.aggregates.len(), 1);
//! assert!(report.aggregates[0].mean.get("ks_degree").unwrap() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod output;
pub mod plan;
pub mod report;
pub mod runner;

pub use error::EvalError;
pub use output::AggregatesArtifact;
pub use plan::{DatasetRef, EpsilonSpec, Estimator, EvalPlan, Measure, ModelChoice, Variant};
pub use report::{GraphProfile, Scores, UtilityReport};
pub use runner::{AggregateRow, EvalReport, InputProfile, TrialRow};
