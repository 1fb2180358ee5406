//! # agmdp-bench
//!
//! The Criterion benchmarks of the AGM-DP reproduction and the closed-loop
//! HTTP load generator ([`loadgen`]) behind the `httpload` bench. The
//! paper's tables and figures are plans that `agmdp evaluate` runs
//! (`plans/paper/`, see `docs/EVALUATION.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
