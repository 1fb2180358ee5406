//! Declarative experiment plans and their line-oriented text format.
//!
//! A plan names everything an evaluation run needs — datasets, an ε grid,
//! structural models, the repetition count, the metric columns and the
//! master seed — so a results table is reproducible from a single committed
//! file. The format is line-oriented (like the graph interchange format in
//! `agmdp_graph::io`): one directive per line, `#` starts a comment.
//!
//! ```text
//! # The committed default plan (plans/default.plan).
//! plan default
//! seed 2016
//! repetitions 5
//! dataset toy
//! dataset lastfm scale=0.25 seed=3
//! epsilon 0.1 0.5 1 2 inf
//! model fcl
//! model tricycle
//! metrics all
//! ```
//!
//! `epsilon inf` denotes the non-private baseline rows (exact parameter
//! learning — the paper's "non-private" table rows); every finite ε runs the
//! full AGM-DP pipeline.

use agmdp_core::workflow::{Privacy, StructuralModelKind};
use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
use agmdp_graph::AttributedGraph;

use crate::error::{EvalError, Result};
use crate::report::UtilityReport;

/// Default master seed of a plan (mirrors the CLI's `--seed` default).
pub const DEFAULT_SEED: u64 = 2016;
/// Default repetition count per (dataset, ε, model) cell.
pub const DEFAULT_REPETITIONS: usize = 3;

/// One dataset of a plan: the bundled toy graph or a synthetic stand-in.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetRef {
    /// The deterministic toy social graph (`agmdp_datasets::toy_social_graph`).
    Toy,
    /// A synthetic stand-in generated from a [`DatasetSpec`] preset.
    Synthetic {
        /// Preset name: `lastfm`, `petster`, `epinions` or `pokec`.
        name: String,
        /// Scale factor in `(0, 1]` applied to the preset.
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl DatasetRef {
    /// A synthetic stand-in reference.
    #[must_use]
    pub fn synthetic(name: &str, scale: f64, seed: u64) -> Self {
        DatasetRef::Synthetic {
            name: name.to_string(),
            scale,
            seed,
        }
    }

    /// Stable row label: `toy`, `lastfm`, `lastfm@0.25`,
    /// `lastfm@0.25#7` (seed suffix only when it differs from the default).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DatasetRef::Toy => "toy".to_string(),
            DatasetRef::Synthetic { name, scale, seed } => {
                let mut label = name.clone();
                if *scale != 1.0 {
                    label.push_str(&format!("@{scale}"));
                }
                if *seed != DEFAULT_SEED {
                    label.push_str(&format!("#{seed}"));
                }
                label
            }
        }
    }

    /// Generates the input graph this reference names. Deterministic: the
    /// same reference always materialises the same graph.
    pub fn materialize(&self) -> Result<AttributedGraph> {
        match self {
            DatasetRef::Toy => Ok(toy_social_graph()),
            DatasetRef::Synthetic { name, scale, seed } => {
                let spec = DatasetSpec::by_name(name).ok_or_else(|| {
                    EvalError::Dataset(format!(
                        "unknown dataset '{name}' (expected toy, lastfm, petster, epinions or pokec)"
                    ))
                })?;
                generate_dataset(&spec.scaled(*scale), *seed)
                    .map_err(|e| EvalError::Dataset(format!("generating '{}': {e}", self.label())))
            }
        }
    }
}

/// One ε level of the grid: a finite DP budget or the non-private baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSpec {
    /// The privacy setting this level runs under.
    pub privacy: Privacy,
}

impl EpsilonSpec {
    /// A finite DP budget.
    #[must_use]
    pub fn dp(epsilon: f64) -> Self {
        Self {
            privacy: Privacy::Dp { epsilon },
        }
    }

    /// The non-private baseline (`epsilon inf` in plan files).
    #[must_use]
    pub fn non_private() -> Self {
        Self {
            privacy: Privacy::NonPrivate,
        }
    }

    /// Canonical column label: the shortest decimal rendering of a finite ε
    /// (`0.1`, `1`, `2`), or `inf` for the non-private baseline.
    #[must_use]
    pub fn label(&self) -> String {
        match self.privacy {
            Privacy::NonPrivate => "inf".to_string(),
            Privacy::Dp { epsilon } => format!("{epsilon}"),
        }
    }

    fn parse_token(token: &str) -> std::result::Result<Self, String> {
        if matches!(token, "inf" | "infinity" | "∞" | "non-private") {
            return Ok(Self::non_private());
        }
        let epsilon: f64 = token
            .parse()
            .map_err(|_| format!("epsilon '{token}' is not a number or 'inf'"))?;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(format!("epsilon must be positive and finite, got {token}"));
        }
        Ok(Self::dp(epsilon))
    }
}

/// A declarative experiment plan.
///
/// Fields are public so plans can be assembled programmatically (see
/// `examples/privacy_sweep.rs`); [`EvalPlan::parse`] reads the committed text
/// format.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    /// Plan name, echoed into every artifact.
    pub name: String,
    /// Input datasets, one table per entry in the results book.
    pub datasets: Vec<DatasetRef>,
    /// The ε grid (row groups of each table).
    pub epsilons: Vec<EpsilonSpec>,
    /// Structural models compared at each ε level.
    pub models: Vec<StructuralModelKind>,
    /// Synthesis trials per (dataset, ε, model) cell.
    pub repetitions: usize,
    /// Master seed; every trial's RNG stream is derived from it via
    /// `agmdp_models::parallel::derive_chunk_seed`.
    pub seed: u64,
    /// Harness worker threads (trials fan out over the chunked executor;
    /// scheduling only — never affects results).
    pub threads: usize,
    /// Metric columns to show in CSV/markdown tables (names from
    /// [`UtilityReport::METRIC_NAMES`]); empty means all. JSON artifacts
    /// always record the full metric set.
    pub metrics: Vec<String>,
}

impl EvalPlan {
    /// An empty plan with default seed, repetitions, threads and metric set.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            datasets: Vec::new(),
            epsilons: Vec::new(),
            models: Vec::new(),
            repetitions: DEFAULT_REPETITIONS,
            seed: DEFAULT_SEED,
            threads: 1,
            metrics: Vec::new(),
        }
    }

    /// Parses the line-oriented plan format (see the module docs).
    pub fn parse(text: &str) -> Result<Self> {
        let mut plan = EvalPlan::new("unnamed");
        let mut named = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let directive = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            plan.apply_directive(directive, &rest, &mut named)
                .map_err(|msg| EvalError::InvalidPlan(format!("line {}: {msg}", lineno + 1)))?;
        }
        if !named {
            return Err(EvalError::InvalidPlan(
                "a plan file must start with 'plan <name>'".to_string(),
            ));
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Applies one parsed plan directive; error messages come back without
    /// line prefixes (the caller adds them).
    fn apply_directive(
        &mut self,
        directive: &str,
        rest: &[&str],
        named: &mut bool,
    ) -> std::result::Result<(), String> {
        match directive {
            "plan" => {
                let [name] = rest else {
                    return Err("'plan' takes exactly one name".to_string());
                };
                self.name = (*name).to_string();
                *named = true;
            }
            "dataset" => self.datasets.push(parse_dataset(rest)?),
            "epsilon" => {
                if rest.is_empty() {
                    return Err("'epsilon' needs at least one value".to_string());
                }
                for token in rest {
                    self.epsilons.push(EpsilonSpec::parse_token(token)?);
                }
            }
            "model" => {
                if rest.is_empty() {
                    return Err("'model' needs at least one name".to_string());
                }
                for token in rest {
                    self.models.push(StructuralModelKind::parse(token)?);
                }
            }
            "repetitions" => {
                let [n] = rest else {
                    return Err("'repetitions' takes exactly one count".to_string());
                };
                self.repetitions = n
                    .parse()
                    .map_err(|_| format!("repetitions '{n}' is not an integer"))?;
            }
            "seed" => {
                let [s] = rest else {
                    return Err("'seed' takes exactly one integer".to_string());
                };
                self.seed = s
                    .parse()
                    .map_err(|_| format!("seed '{s}' is not an integer"))?;
            }
            "threads" => {
                let [t] = rest else {
                    return Err("'threads' takes exactly one count".to_string());
                };
                self.threads = t
                    .parse()
                    .map_err(|_| format!("threads '{t}' is not an integer"))?;
            }
            "metrics" => {
                if rest == ["all"] {
                    self.metrics.clear();
                } else {
                    for token in rest {
                        if UtilityReport::metric_index(token).is_none() {
                            return Err(format!(
                                "unknown metric '{token}' (known: {})",
                                UtilityReport::METRIC_NAMES.join(", ")
                            ));
                        }
                        self.metrics.push((*token).to_string());
                    }
                }
            }
            other => return Err(format!("unknown directive '{other}'")),
        }
        Ok(())
    }

    /// Checks that the plan is runnable (non-empty grid, sane counts).
    pub fn validate(&self) -> Result<()> {
        if self.datasets.is_empty() {
            return Err(EvalError::InvalidPlan(
                "plan has no 'dataset' lines".to_string(),
            ));
        }
        if self.epsilons.is_empty() {
            return Err(EvalError::InvalidPlan(
                "plan has no 'epsilon' values".to_string(),
            ));
        }
        if self.models.is_empty() {
            return Err(EvalError::InvalidPlan(
                "plan has no 'model' lines".to_string(),
            ));
        }
        if self.repetitions == 0 {
            return Err(EvalError::InvalidPlan(
                "repetitions must be at least 1".to_string(),
            ));
        }
        if self.threads == 0 || self.threads > 256 {
            return Err(EvalError::InvalidPlan(
                "threads must lie in 1..=256".to_string(),
            ));
        }
        for name in &self.metrics {
            if UtilityReport::metric_index(name).is_none() {
                return Err(EvalError::InvalidPlan(format!("unknown metric '{name}'")));
            }
        }
        Ok(())
    }

    /// The metric column indices the plan selects (all columns when the
    /// `metrics` list is empty), in [`UtilityReport::METRIC_NAMES`] order.
    #[must_use]
    pub fn metric_columns(&self) -> Vec<usize> {
        if self.metrics.is_empty() {
            (0..UtilityReport::METRIC_NAMES.len()).collect()
        } else {
            let mut cols: Vec<usize> = self
                .metrics
                .iter()
                .filter_map(|name| UtilityReport::metric_index(name))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        }
    }
}

/// Parses the tail of a `dataset` line: `<name> [scale=<f>] [seed=<n>]`.
fn parse_dataset(rest: &[&str]) -> std::result::Result<DatasetRef, String> {
    let Some((name, options)) = rest.split_first() else {
        return Err("'dataset' needs a name".to_string());
    };
    let mut scale = 1.0f64;
    let mut seed = DEFAULT_SEED;
    for option in options {
        match option.split_once('=') {
            Some(("scale", v)) => {
                scale = v
                    .parse()
                    .map_err(|_| format!("scale '{v}' is not a number"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(format!("scale must lie in (0, 1], got {v}"));
                }
            }
            Some(("seed", v)) => {
                seed = v
                    .parse()
                    .map_err(|_| format!("seed '{v}' is not an integer"))?;
            }
            _ => return Err(format!("unknown dataset option '{option}'")),
        }
    }
    if *name == "toy" {
        if scale != 1.0 {
            return Err("the toy dataset takes no scale".to_string());
        }
        return Ok(DatasetRef::Toy);
    }
    Ok(DatasetRef::synthetic(name, scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# full grid
plan demo
seed 7
repetitions 2
threads 2
dataset toy
dataset lastfm scale=0.25 seed=3
epsilon 0.5 1 inf
model fcl tricycle
metrics ks_degree edge_count_re
";

    #[test]
    fn parses_a_full_plan() {
        let plan = EvalPlan::parse(GOOD).unwrap();
        assert_eq!(plan.name, "demo");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.repetitions, 2);
        assert_eq!(plan.threads, 2);
        assert_eq!(plan.datasets.len(), 2);
        assert_eq!(plan.datasets[0], DatasetRef::Toy);
        assert_eq!(plan.datasets[1], DatasetRef::synthetic("lastfm", 0.25, 3));
        assert_eq!(plan.datasets[1].label(), "lastfm@0.25#3");
        assert_eq!(plan.epsilons.len(), 3);
        assert_eq!(plan.epsilons[0], EpsilonSpec::dp(0.5));
        assert_eq!(plan.epsilons[2], EpsilonSpec::non_private());
        assert_eq!(
            plan.models,
            vec![StructuralModelKind::Fcl, StructuralModelKind::TriCycLe]
        );
        assert_eq!(plan.metric_columns(), vec![0, 10]);
    }

    #[test]
    fn epsilon_labels_are_canonical() {
        assert_eq!(EpsilonSpec::dp(0.1).label(), "0.1");
        assert_eq!(EpsilonSpec::dp(1.0).label(), "1");
        assert_eq!(EpsilonSpec::dp(2.0).label(), "2");
        assert_eq!(EpsilonSpec::non_private().label(), "inf");
        assert_eq!(EpsilonSpec::parse_token("inf").unwrap().label(), "inf");
        assert_eq!(EpsilonSpec::parse_token("0.5").unwrap().label(), "0.5");
    }

    #[test]
    fn dataset_labels_are_stable() {
        assert_eq!(DatasetRef::Toy.label(), "toy");
        assert_eq!(
            DatasetRef::synthetic("lastfm", 1.0, DEFAULT_SEED).label(),
            "lastfm"
        );
        assert_eq!(
            DatasetRef::synthetic("lastfm", 0.25, DEFAULT_SEED).label(),
            "lastfm@0.25"
        );
        assert_eq!(
            DatasetRef::synthetic("lastfm", 0.25, 7).label(),
            "lastfm@0.25#7"
        );
    }

    #[test]
    fn rejects_malformed_plans() {
        let cases: &[(&str, &str)] = &[
            ("dataset toy\nepsilon 1\nmodel fcl\n", "start with 'plan"),
            ("plan p\nepsilon 1\nmodel fcl\n", "no 'dataset'"),
            ("plan p\ndataset toy\nmodel fcl\n", "no 'epsilon'"),
            ("plan p\ndataset toy\nepsilon 1\n", "no 'model'"),
            (
                "plan p\ndataset toy\nepsilon nope\nmodel fcl\n",
                "not a number",
            ),
            ("plan p\ndataset toy\nepsilon -1\nmodel fcl\n", "positive"),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel bogus\n",
                "unknown model",
            ),
            (
                "plan p\ndataset toy scale=0.5\nepsilon 1\nmodel fcl\n",
                "toy dataset takes no scale",
            ),
            (
                "plan p\ndataset lastfm scale=2\nepsilon 1\nmodel fcl\n",
                "(0, 1]",
            ),
            (
                "plan p\ndataset lastfm wat=1\nepsilon 1\nmodel fcl\n",
                "unknown dataset option",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel fcl\nmetrics bogus\n",
                "unknown metric",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel fcl\nrepetitions 0\n",
                "at least 1",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel fcl\nthreads 0\n",
                "1..=256",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel fcl\nfrobnicate 3\n",
                "unknown directive",
            ),
        ];
        for (text, needle) in cases {
            let err = EvalPlan::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "plan {text:?} gave: {err}");
        }
    }

    #[test]
    fn errors_name_the_line() {
        let err = EvalPlan::parse("plan p\ndataset toy\nepsilon nope\nmodel fcl\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let plan = EvalPlan::parse(
            "# header\nplan p\n\ndataset toy # inline comment\nepsilon 1\nmodel fcl\n",
        )
        .unwrap();
        assert_eq!(plan.datasets, vec![DatasetRef::Toy]);
    }

    #[test]
    fn toy_dataset_materialises() {
        let g = DatasetRef::Toy.materialize().unwrap();
        assert!(g.num_nodes() > 0);
        assert!(DatasetRef::synthetic("bogus", 1.0, 1)
            .materialize()
            .is_err());
    }

    #[test]
    fn metrics_all_resets_selection() {
        let plan = EvalPlan::parse(
            "plan p\ndataset toy\nepsilon 1\nmodel fcl\nmetrics ks_degree\nmetrics all\n",
        )
        .unwrap();
        assert_eq!(
            plan.metric_columns().len(),
            UtilityReport::METRIC_NAMES.len()
        );
    }
}
