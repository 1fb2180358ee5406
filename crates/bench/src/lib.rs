//! # agmdp-bench
//!
//! Experiment harness for the AGM-DP reproduction: shared utilities used by
//! the `exp_*` binaries that regenerate every table and figure of the paper's
//! evaluation (Section 5 and Appendices A/B), plus the Criterion benchmarks.
//!
//! Each binary prints the same rows/series the paper reports and can
//! optionally emit machine-readable JSON (`--json <path>`). The synthetic
//! dataset stand-ins are documented in `agmdp-datasets`; by default the two
//! large datasets are scaled down (see `DatasetSpec::experiment_presets`) so a
//! full reproduction run finishes in minutes — pass `--full` to use the
//! paper-scale specifications instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::io::fnv1a64;
use agmdp_graph::{AttributedGraph, GraphView};

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Restrict to datasets whose name contains one of these substrings
    /// (empty = all).
    pub datasets: Vec<String>,
    /// Number of trials per cell (defaults differ per experiment).
    pub trials: Option<usize>,
    /// Use the full paper-scale dataset specifications.
    pub full_scale: bool,
    /// Optional path for machine-readable JSON output.
    pub json: Option<String>,
    /// Base random seed.
    pub seed: u64,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        Self {
            datasets: Vec::new(),
            trials: None,
            full_scale: false,
            json: None,
            seed: 2016,
        }
    }
}

impl ExperimentArgs {
    /// Parses the process arguments. Unknown flags abort with a usage message.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of arguments (used by tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--dataset" | "--datasets" => {
                    if let Some(v) = iter.next() {
                        out.datasets
                            .extend(v.split(',').map(|s| s.trim().to_lowercase()));
                    }
                }
                "--trials" => {
                    out.trials = iter.next().and_then(|v| v.parse().ok());
                }
                "--full" => out.full_scale = true,
                "--json" => out.json = iter.next(),
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.seed = v;
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <experiment> [--dataset lastfm,petster,...] [--trials N] [--full] [--seed S] [--json out.json]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The dataset specifications selected by these arguments.
    #[must_use]
    pub fn specs(&self) -> Vec<DatasetSpec> {
        let all = if self.full_scale {
            DatasetSpec::paper_presets()
        } else {
            DatasetSpec::experiment_presets()
        };
        if self.datasets.is_empty() {
            all
        } else {
            all.into_iter()
                .filter(|s| {
                    self.datasets
                        .iter()
                        .any(|d| s.name.to_lowercase().contains(d))
                })
                .collect()
        }
    }
}

/// A generated dataset together with its specification.
pub struct ExperimentDataset {
    /// The target statistics this graph was generated from.
    pub spec: DatasetSpec,
    /// The generated attributed graph.
    pub graph: AttributedGraph,
}

/// Generates every selected dataset (deterministic per `seed`), printing a
/// one-line summary for each as it is built.
#[must_use]
pub fn load_datasets(args: &ExperimentArgs) -> Vec<ExperimentDataset> {
    args.specs()
        .into_iter()
        .map(|spec| {
            let started = std::time::Instant::now();
            let graph = generate_dataset(&spec, args.seed ^ fnv1a64(spec.name.as_bytes()))
                .expect("dataset generation succeeds");
            eprintln!(
                "[setup] generated {:<14} n = {:>7}, m = {:>8}, triangles = {:>9} ({:.1?})",
                spec.name,
                graph.num_nodes(),
                graph.num_edges(),
                agmdp_graph::triangles::count_triangles(&graph),
                started.elapsed()
            );
            ExperimentDataset { spec, graph }
        })
        .collect()
}

/// A deterministic RNG derived from the experiment seed and a context label.
#[must_use]
pub fn rng_for(args: &ExperimentArgs, label: &str) -> StdRng {
    StdRng::seed_from_u64(args.seed ^ fnv1a64(label.as_bytes()))
}

/// A generic result record: experiment id, dataset, free-form parameter
/// columns and metric columns, serialisable to JSON.
#[derive(Debug, Clone, Serialize)]
pub struct ResultRecord {
    /// Experiment identifier (e.g. `"table2"`, `"fig5"`).
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Parameter columns (e.g. epsilon, method, model).
    pub params: BTreeMap<String, String>,
    /// Metric columns (e.g. MAE, Hellinger, KS).
    pub metrics: BTreeMap<String, f64>,
}

impl ResultRecord {
    /// Creates an empty record for an experiment/dataset pair.
    #[must_use]
    pub fn new(experiment: &str, dataset: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            dataset: dataset.to_string(),
            params: BTreeMap::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds a parameter column.
    #[must_use]
    pub fn with_param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Adds a metric column.
    #[must_use]
    pub fn with_metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_string(), value);
        self
    }
}

/// Writes the collected records as pretty JSON if `--json` was given.
pub fn maybe_write_json(args: &ExperimentArgs, records: &[ResultRecord]) {
    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(records).expect("records serialise");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
        } else {
            eprintln!("[output] wrote {} records to {path}", records.len());
        }
    }
}

/// Mean of a slice (0 for empty input).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_recognised_flags() {
        let args = ExperimentArgs::parse_from(
            [
                "--dataset",
                "lastfm,petster",
                "--trials",
                "7",
                "--full",
                "--seed",
                "9",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.datasets, vec!["lastfm", "petster"]);
        assert_eq!(args.trials, Some(7));
        assert!(args.full_scale);
        assert_eq!(args.seed, 9);
        let specs = args.specs();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().any(|s| s.name.contains("lastfm")));
    }

    #[test]
    fn default_specs_are_the_experiment_presets() {
        let args = ExperimentArgs::default();
        assert_eq!(args.specs().len(), 4);
        assert!(!args.full_scale);
    }

    #[test]
    fn result_record_builder_and_mean() {
        let r = ResultRecord::new("fig1", "lastfm")
            .with_param("epsilon", 0.5)
            .with_metric("mae", 0.01);
        assert_eq!(r.params["epsilon"], "0.5");
        assert!((r.metrics["mae"] - 0.01).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rng_for_is_deterministic_and_label_sensitive() {
        use rand::RngCore;
        let args = ExperimentArgs::default();
        let a = rng_for(&args, "x").next_u64();
        let b = rng_for(&args, "x").next_u64();
        let c = rng_for(&args, "y").next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
