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

/// The usage line every experiment binary prints with `--help` or a bad flag.
const USAGE: &str = "usage: <experiment> [--dataset lastfm,petster,...] [--trials N] [--full] [--seed S] [--json out.json]";

/// Parses the value that follows `flag`; the error names both, so a
/// malformed value is refused instead of falling back to a default.
pub(crate) fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: '{value}'"))
}

impl ExperimentArgs {
    /// Parses the process arguments. A malformed or unknown flag prints the
    /// error and the usage line and exits with status 2.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit iterator of arguments (used by tests). `--help`
    /// prints the usage line and exits 0. Zero trials, and a dataset name
    /// that matches none of the presets `--full` selects, are refused.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--dataset" | "--datasets" => {
                    let v: String = flag_value(&arg, iter.next())?;
                    let names: Vec<String> =
                        v.split(',').map(|s| s.trim().to_lowercase()).collect();
                    // An empty name is a substring of every dataset's name.
                    if names.iter().any(String::is_empty) {
                        return Err(format!("invalid value for {arg}: '{v}'"));
                    }
                    out.datasets.extend(names);
                }
                "--trials" => out.trials = Some(flag_value(&arg, iter.next())?),
                "--full" => out.full_scale = true,
                "--json" => out.json = Some(flag_value(&arg, iter.next())?),
                "--seed" => out.seed = flag_value(&arg, iter.next())?,
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if out.trials == Some(0) {
            return Err("--trials must be at least 1".to_string());
        }
        let presets = out.presets();
        if let Some(unmatched) = out
            .datasets
            .iter()
            .find(|d| !presets.iter().any(|s| matches(s, d)))
        {
            let known: Vec<&str> = presets.iter().map(|s| s.name.as_str()).collect();
            return Err(format!(
                "no dataset matches '{unmatched}' (known: {})",
                known.join(", ")
            ));
        }
        Ok(out)
    }

    /// The presets `--full` selects, before the dataset filter.
    fn presets(&self) -> Vec<DatasetSpec> {
        if self.full_scale {
            DatasetSpec::paper_presets()
        } else {
            DatasetSpec::experiment_presets()
        }
    }

    /// The dataset specifications selected by these arguments.
    #[must_use]
    pub fn specs(&self) -> Vec<DatasetSpec> {
        let all = self.presets();
        if self.datasets.is_empty() {
            all
        } else {
            all.into_iter()
                .filter(|s| self.datasets.iter().any(|d| matches(s, d)))
                .collect()
        }
    }
}

/// Whether the lower-cased filter name `name` selects `spec`.
fn matches(spec: &DatasetSpec, name: &str) -> bool {
    spec.name.to_lowercase().contains(name)
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

    fn parse(args: &str) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse_from(args.split(' ').map(str::to_string))
    }

    #[test]
    fn args_parse_recognised_flags() {
        let args = parse("--dataset lastfm,petster --trials 7 --full --seed 9").unwrap();
        assert_eq!(args.datasets, vec!["lastfm", "petster"]);
        assert_eq!(args.trials, Some(7));
        assert!(args.full_scale);
        assert_eq!(args.seed, 9);
        let specs = args.specs();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().any(|s| s.name.contains("lastfm")));
    }

    #[test]
    fn dataset_filters_must_match_a_preset_of_the_chosen_scale() {
        assert_eq!(
            parse("--dataset nosuch").unwrap_err(),
            "no dataset matches 'nosuch' (known: lastfm, petster, epinions@0.25, pokec@0.05)"
        );
        // One unmatched name in a list is refused too.
        assert_eq!(
            parse("--dataset lastfm,nosuch --full").unwrap_err(),
            "no dataset matches 'nosuch' (known: lastfm, petster, epinions, pokec)"
        );
        // `@0.25` names only the scaled-down preset, so `--full` refuses it
        // whichever side of the filter it is read on.
        assert!(parse("--dataset epinions@0.25").is_ok());
        assert!(parse("--dataset epinions@0.25 --full").is_err());
        assert!(parse("--full --dataset epinions@0.25").is_err());
    }

    #[test]
    fn zero_trials_are_refused() {
        assert_eq!(
            parse("--dataset lastfm --trials 0").unwrap_err(),
            "--trials must be at least 1"
        );
        assert_eq!(parse("--trials 1").unwrap().trials, Some(1));
    }

    #[test]
    fn malformed_values_name_the_flag_and_the_value() {
        for args in ["--trials abc", "--trials -1", "--seed abc", "--dataset a,"] {
            let (flag, value) = args.split_once(' ').unwrap();
            let message = format!("invalid value for {flag}: '{value}'");
            assert_eq!(parse(args).unwrap_err(), message);
        }
        for (args, message) in [
            ("--dataset", "--dataset needs a value"),
            ("--datasets lastfm --seed", "--seed needs a value"),
            ("--json", "--json needs a value"),
            ("--trails 3", "unknown argument: --trails"),
        ] {
            assert_eq!(parse(args).unwrap_err(), message, "{args}");
        }
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
