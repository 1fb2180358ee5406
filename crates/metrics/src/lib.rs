//! # agmdp-metrics
//!
//! The distance and correlation functions behind the AGM-DP paper's
//! empirical analysis (Section 5.1): the Kolmogorov–Smirnov statistic and
//! Hellinger distance between degree distributions (CDF- and CCDF-based),
//! Hellinger distance and mean absolute / relative error between
//! attribute-correlation distributions, relative errors of scalar
//! statistics, degree assortativity, attribute–attribute and
//! attribute–degree correlations, and CCDF extraction for the figure
//! reproductions. Whole graphs are summarised and scored by
//! `agmdp_eval::GraphProfile` and `agmdp_eval::UtilityReport::between`,
//! which are built from exactly these functions.
//!
//! ```
//! use agmdp_metrics::distance::{hellinger_distance, mean_absolute_error};
//!
//! let p = [0.5, 0.5, 0.0];
//! let q = [0.4, 0.4, 0.2];
//! assert!(hellinger_distance(&p, &q) > 0.0);
//! assert!((mean_absolute_error(&p, &q) - (0.1 + 0.1 + 0.2) / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assortativity;
pub mod ccdf;
pub mod correlation;
pub mod distance;

pub use assortativity::degree_assortativity;
pub use ccdf::{ccdf_points, CcdfPoint};
pub use correlation::{
    attribute_attribute_correlations, attribute_degree_correlations, correlation_distance,
};
pub use distance::{
    hellinger_distance, ks_ccdf, ks_statistic, mean_absolute_error, mean_relative_error,
    relative_error,
};
