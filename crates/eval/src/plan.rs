//! Declarative experiment plans and their line-oriented text format.
//!
//! A plan names everything an evaluation run needs — datasets, an ε grid,
//! what each trial measures, the row variants, the repetition count, the
//! metric columns and the master seed — so a results table is reproducible
//! from a single committed file. The format is line-oriented (like the graph
//! interchange format in `agmdp_graph::io`): one directive per line, `#`
//! starts a comment.
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
//! full AGM-DP pipeline. `ln2` and `ln3` are the paper's ε = ln 2 and ln 3,
//! exactly.
//!
//! `measure` picks what each trial measures ([`Measure`]): `release` (the
//! default) synthesises and scores a release, `theta_f` runs only the Θ_F
//! estimator, and `structure` samples a bare non-private structural model.
//!
//! Rows are variants: `variant <label> key=value…` runs the pipeline with
//! the keys' settings and labels its rows' `model` field `<label>`, and
//! `model fcl tricycle` is shorthand for `variant fcl model=fcl` and
//! `variant tricycle model=tricycle`. The keys ([`Variant`]):
//!
//! ```text
//! model=fcl|tricycle|tcl|uniform   the structural model
//! method=truncation|smooth|sample-aggregate|naive|node-dp|uniform
//! k=<n>                            truncation's k or sample-aggregate's group size
//! iterations=<n>                   Algorithm 3's refinement passes
//! orphans=true|false               Algorithm 2's orphan post-processing
//! split=<x>,<f>,<s>,<t>            TriCycLe's ε fractions for Θ_X, Θ_F, S, n_Δ
//! ```
//!
//! `smooth` runs at δ = 10⁻⁶ (the CLI's default) and `node-dp` at Section 7's
//! δ = 0.01 with the heuristic k. Only `truncation` and `sample-aggregate`
//! take a `k`, and the group size must be at least 2.
//!
//! A measure reads only some keys (see [`Measure::keys`]); a plan that sets
//! another is refused, as is a finite ε under `structure` and `inf` under
//! `theta_f`.

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{AgmConfig, Privacy, StructuralModelKind};
use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
use agmdp_graph::AttributedGraph;

use crate::error::{EvalError, Result};
use crate::report::UtilityReport;

/// Default master seed of a plan (mirrors the CLI's `--seed` default).
pub const DEFAULT_SEED: u64 = 2016;
/// Default repetition count per (dataset, ε, model) cell.
pub const DEFAULT_REPETITIONS: usize = 3;
/// The δ of `method=smooth` (the CLI's default).
const DEFAULT_DELTA: f64 = 1e-6;

/// The release columns recorded only when a `metrics` line names them: the
/// Θ_F MRE of Tables 2–5 and the ablation's orphan and component counts.
pub(crate) const RELEASE_EXTRA_COLUMNS: [&str; 3] = ["theta_f_mre", "orphaned_nodes", "components"];
/// The columns of a `theta_f` row: the estimate against the input's Θ_F.
pub(crate) const THETA_F_COLUMNS: [&str; 3] = ["theta_f_mae", "theta_f_mre", "theta_f_hellinger"];

/// The keys a `variant` line may set.
const VARIANT_KEYS: [&str; 6] = ["model", "method", "k", "iterations", "orphans", "split"];

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
                let spec = preset(name).map_err(EvalError::Dataset)?;
                generate_dataset(&spec.scaled(*scale), *seed)
                    .map_err(|e| EvalError::Dataset(format!("generating '{}': {e}", self.label())))
            }
        }
    }
}

/// The paper preset called `name`, or the error naming the known ones.
fn preset(name: &str) -> std::result::Result<DatasetSpec, String> {
    DatasetSpec::by_name(name).ok_or_else(|| {
        format!("unknown dataset '{name}' (expected toy, lastfm, petster, epinions or pokec)")
    })
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

    /// Canonical column label: `ln2` or `ln3` for exactly ln 2 or ln 3, the
    /// shortest decimal rendering of any other finite ε (`0.1`, `1`, `2`),
    /// or `inf` for the non-private baseline.
    #[must_use]
    pub fn label(&self) -> String {
        match self.privacy {
            Privacy::NonPrivate => "inf".to_string(),
            Privacy::Dp { epsilon } if epsilon.to_bits() == 2f64.ln().to_bits() => "ln2".into(),
            Privacy::Dp { epsilon } if epsilon.to_bits() == 3f64.ln().to_bits() => "ln3".into(),
            Privacy::Dp { epsilon } => format!("{epsilon}"),
        }
    }

    fn parse_token(token: &str) -> std::result::Result<Self, String> {
        match token {
            "inf" | "infinity" | "∞" | "non-private" => return Ok(Self::non_private()),
            "ln2" => return Ok(Self::dp(2f64.ln())),
            "ln3" => return Ok(Self::dp(3f64.ln())),
            _ => {}
        }
        let epsilon: f64 = token
            .parse()
            .map_err(|_| format!("epsilon '{token}' is not a number, ln2, ln3 or 'inf'"))?;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(format!("epsilon must be positive and finite, got {token}"));
        }
        Ok(Self::dp(epsilon))
    }
}

/// What each trial of a plan measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Measure {
    /// The AGM(-DP) pipeline end to end: learn, sample and score the release
    /// with [`UtilityReport::between`] (Tables 2–5, the ablation).
    #[default]
    Release,
    /// Only the cell's Θ_F estimator at the cell's full ε, scored against the
    /// input's Θ_F (Figures 1 and 5, Section 7). Needs a finite ε.
    ThetaF,
    /// The bare non-private structural model fitted to the input, scored
    /// with [`UtilityReport::between`] (Figures 2–3). Needs ε = `inf`.
    Structure,
}

impl Measure {
    /// The plan-file token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Measure::Release => "release",
            Measure::ThetaF => "theta_f",
            Measure::Structure => "structure",
        }
    }

    fn parse(token: &str) -> std::result::Result<Self, String> {
        [Measure::Release, Measure::ThetaF, Measure::Structure]
            .into_iter()
            .find(|m| m.name() == token)
            .ok_or_else(|| {
                format!("unknown measure '{token}' (expected release, theta_f or structure)")
            })
    }

    /// The `variant` keys this measure reads; `k` goes with `method`.
    #[must_use]
    pub fn keys(self) -> &'static [&'static str] {
        match self {
            Measure::Release => &["model", "iterations", "orphans", "split"],
            Measure::ThetaF => &["method"],
            Measure::Structure => &["model"],
        }
    }

    /// The columns every row of this measure records, then the columns it
    /// records only when a `metrics` line names them.
    #[must_use]
    pub(crate) fn columns(self) -> (&'static [&'static str], &'static [&'static str]) {
        match self {
            Measure::Release => (&UtilityReport::METRIC_NAMES, &RELEASE_EXTRA_COLUMNS),
            Measure::ThetaF => (&THETA_F_COLUMNS, &[]),
            Measure::Structure => (&UtilityReport::METRIC_NAMES, &[]),
        }
    }
}

/// A row's structural model: an AGM model, or — under `measure structure`
/// only — TCL or the uniform-edge baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// FCL or TriCycLe.
    Agm(StructuralModelKind),
    /// The transitive Chung-Lu model, fitted with ten EM rounds.
    Tcl,
    /// The uniform-edge `G(n, m)` baseline of Section 5.2.
    Uniform,
}

impl ModelChoice {
    fn parse(token: &str) -> std::result::Result<Self, String> {
        match token {
            "tcl" => Ok(ModelChoice::Tcl),
            "uniform" => Ok(ModelChoice::Uniform),
            other => StructuralModelKind::parse(other)
                .map(ModelChoice::Agm)
                .map_err(|_| {
                    format!("unknown model '{other}' (expected fcl, tricycle, tcl or uniform)")
                }),
        }
    }
}

/// A row's Θ_F estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// One of the edge-DP learners behind `learn_correlations_dp`.
    Edge(CorrelationMethod),
    /// The Section 7 node-DP learner, `learn_correlations_node_dp`, at
    /// δ = 0.01 and the heuristic k.
    NodeDp,
    /// The uniform-correlation baseline of Section 5.2, which reads no data.
    Uniform,
}

impl Estimator {
    /// Builds the estimator a variant's `method` and `k` name; the edge-DP
    /// methods go through `CorrelationMethod::from_parts`. A `k` the method
    /// would ignore or raise is refused, so a row's label names the setting
    /// its trials ran.
    fn parse(method: &str, k: Option<usize>) -> std::result::Result<Self, String> {
        match (method, k) {
            ("sample-aggregate", Some(k)) if k < 2 => {
                return Err(format!(
                    "sample-and-aggregate group size k must be at least 2, got {k}"
                ))
            }
            ("smooth" | "naive" | "node-dp" | "uniform", Some(_)) => {
                return Err(format!("method '{method}' takes no k"))
            }
            _ => {}
        }
        Ok(match method {
            "uniform" => Estimator::Uniform,
            "node-dp" => Estimator::NodeDp,
            other => Estimator::Edge(CorrelationMethod::from_parts(other, k, DEFAULT_DELTA)?),
        })
    }
}

/// One row family of a plan: a label and the settings its trials run with.
/// Each unset key keeps the pipeline's default.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Fills the `model` field of every row of this variant.
    pub label: String,
    /// `model=`; `None` is TriCycLe.
    pub model: Option<ModelChoice>,
    /// `method=` and `k=`; `None` is truncation at the heuristic k.
    pub estimator: Option<Estimator>,
    /// `iterations=`, Algorithm 3's refinement passes; `None` is
    /// `AgmConfig`'s default.
    pub iterations: Option<usize>,
    /// `orphans=`, Algorithm 2's orphan post-processing; `None` is on.
    pub orphans: Option<bool>,
    /// `split=`: the fractions of ε that TriCycLe spends on Θ_X, Θ_F, the
    /// degree sequence and the triangle count; `None` is Section 5's even
    /// split.
    pub split: Option<[f64; 4]>,
}

impl Variant {
    /// A variant with every key at its default.
    #[must_use]
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            model: None,
            estimator: None,
            iterations: None,
            orphans: None,
            split: None,
        }
    }

    /// The model this variant samples.
    #[must_use]
    pub(crate) fn model(&self) -> ModelChoice {
        self.model
            .unwrap_or(ModelChoice::Agm(StructuralModelKind::TriCycLe))
    }

    /// The configuration a `release` row synthesises with, or `None` when
    /// the variant's model is one only `measure structure` samples. Θ_F is
    /// learned by edge truncation at the heuristic k. Sampling runs
    /// serially: the harness parallelises across trials.
    #[must_use]
    pub(crate) fn agm_config(&self, privacy: Privacy) -> Option<AgmConfig> {
        let ModelChoice::Agm(model) = self.model() else {
            return None;
        };
        let defaults = AgmConfig::default();
        Some(AgmConfig {
            privacy,
            model,
            refinement_iterations: self.iterations.unwrap_or(defaults.refinement_iterations),
            orphan_postprocessing: self.orphans.unwrap_or(defaults.orphan_postprocessing),
            threads: 1,
            ..defaults
        })
    }

    /// The Θ_F estimator this variant learns with.
    #[must_use]
    pub(crate) fn estimator(&self) -> Estimator {
        self.estimator
            .unwrap_or(Estimator::Edge(CorrelationMethod::default()))
    }
}

/// `model fcl` is the variant `fcl` with `model=fcl`.
impl From<StructuralModelKind> for Variant {
    fn from(kind: StructuralModelKind) -> Self {
        Self {
            model: Some(ModelChoice::Agm(kind)),
            ..Self::new(kind.name())
        }
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
    /// What each trial measures.
    pub measure: Measure,
    /// The variants compared at each ε level; each one's label fills its
    /// rows' `model` field.
    pub models: Vec<Variant>,
    /// Trials per (dataset, ε, model) cell.
    pub repetitions: usize,
    /// Master seed; every trial's RNG stream is derived from it via
    /// `agmdp_models::parallel::derive_chunk_seed`.
    pub seed: u64,
    /// Harness worker threads (trials fan out over the chunked executor;
    /// scheduling only — never affects results).
    pub threads: usize,
    /// Metric columns to show in CSV/markdown tables; empty means every
    /// recorded column. JSON artifacts always record the measure's full
    /// column set, plus the extra columns named here.
    pub metrics: Vec<String>,
}

/// The plan entry a validation error belongs to, so a parsed plan's error
/// can name its line.
enum Entry {
    Plan,
    Epsilon(usize),
    Model(usize),
    Metric(usize),
}

/// The line each parsed entry came from, by list position.
#[derive(Default)]
struct Lines {
    epsilons: Vec<usize>,
    models: Vec<usize>,
    metrics: Vec<usize>,
}

impl EvalPlan {
    /// An empty plan with default seed, repetitions, threads, measure and
    /// metric set.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            datasets: Vec::new(),
            epsilons: Vec::new(),
            measure: Measure::default(),
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
        let mut lines = Lines::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let directive = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            plan.apply_directive(directive, &rest, &mut named, &mut lines, lineno + 1)
                .map_err(|msg| EvalError::InvalidPlan(format!("line {}: {msg}", lineno + 1)))?;
        }
        if !named {
            return Err(EvalError::InvalidPlan(
                "a plan file must start with 'plan <name>'".to_string(),
            ));
        }
        plan.check().map_err(|(entry, msg)| {
            let line = match entry {
                Entry::Plan => None,
                Entry::Epsilon(i) => lines.epsilons.get(i),
                Entry::Model(i) => lines.models.get(i),
                Entry::Metric(i) => lines.metrics.get(i),
            };
            EvalError::InvalidPlan(match line {
                Some(line) => format!("line {line}: {msg}"),
                None => msg,
            })
        })?;
        Ok(plan)
    }

    /// Applies one parsed plan directive, recording the line of each list
    /// entry; error messages come back without line prefixes (the caller
    /// adds them).
    fn apply_directive(
        &mut self,
        directive: &str,
        rest: &[&str],
        named: &mut bool,
        lines: &mut Lines,
        lineno: usize,
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
                    lines.epsilons.push(lineno);
                }
            }
            "measure" => {
                let [token] = rest else {
                    return Err("'measure' takes exactly one name".to_string());
                };
                self.measure = Measure::parse(token)?;
            }
            "model" => {
                if rest.is_empty() {
                    return Err("'model' needs at least one name".to_string());
                }
                for token in rest {
                    let variant = Variant {
                        model: Some(ModelChoice::parse(token)?),
                        ..Variant::new(token)
                    };
                    self.models.push(variant);
                    lines.models.push(lineno);
                }
            }
            "variant" => {
                let Some((label, keys)) = rest.split_first() else {
                    return Err("'variant' needs a label".to_string());
                };
                self.models.push(parse_variant(label, keys)?);
                lines.models.push(lineno);
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
                    lines.metrics.clear();
                } else {
                    for token in rest {
                        self.metrics.push((*token).to_string());
                        lines.metrics.push(lineno);
                    }
                }
            }
            other => return Err(format!("unknown directive '{other}'")),
        }
        Ok(())
    }

    /// Checks that the plan is runnable: a non-empty grid, sane counts, and
    /// every ε, variant and metric one the measure can use.
    pub fn validate(&self) -> Result<()> {
        self.check().map_err(|(_, msg)| EvalError::InvalidPlan(msg))
    }

    /// [`EvalPlan::validate`], naming the entry at fault.
    fn check(&self) -> std::result::Result<(), (Entry, String)> {
        let plan_error = |msg: &str| Err((Entry::Plan, msg.to_string()));
        if self.datasets.is_empty() {
            return plan_error("plan has no 'dataset' lines");
        }
        if self.epsilons.is_empty() {
            return plan_error("plan has no 'epsilon' values");
        }
        if self.models.is_empty() {
            return plan_error("plan has no 'model' or 'variant' lines");
        }
        if self.repetitions == 0 {
            return plan_error("repetitions must be at least 1");
        }
        if self.threads == 0 || self.threads > 256 {
            return plan_error("threads must lie in 1..=256");
        }
        let measure = self.measure.name();
        for (i, epsilon) in self.epsilons.iter().enumerate() {
            let finite = matches!(epsilon.privacy, Privacy::Dp { .. });
            let fault = match self.measure {
                Measure::Structure if finite => format!(
                    "measure 'structure' samples the non-private model; epsilon must be inf, got {}",
                    epsilon.label()
                ),
                Measure::ThetaF if !finite => {
                    "measure 'theta_f' runs a private estimator; epsilon must be finite, got inf"
                        .to_string()
                }
                _ => continue,
            };
            return Err((Entry::Epsilon(i), fault));
        }
        let non_private_rows = self
            .epsilons
            .iter()
            .any(|e| e.privacy == Privacy::NonPrivate);
        for (i, variant) in self.models.iter().enumerate() {
            if self.models[..i].iter().any(|v| v.label == variant.label) {
                return Err((
                    Entry::Model(i),
                    format!("model label '{}' is already used", variant.label),
                ));
            }
            self.check_variant(variant, non_private_rows)
                .map_err(|msg| (Entry::Model(i), msg))?;
        }
        let (base, extras) = self.measure.columns();
        for (i, name) in self.metrics.iter().enumerate() {
            if base.contains(&name.as_str()) || extras.contains(&name.as_str()) {
                continue;
            }
            let known = [base, extras].concat().join(", ");
            let fault = format!("unknown metric '{name}' for measure '{measure}' (known: {known})");
            return Err((Entry::Metric(i), fault));
        }
        Ok(())
    }

    /// Refuses a variant key the measure does not read, and a setting it
    /// cannot run.
    fn check_variant(
        &self,
        variant: &Variant,
        non_private_rows: bool,
    ) -> std::result::Result<(), String> {
        let measure = self.measure.name();
        let keys = self.measure.keys();
        for (key, set) in [
            ("model", variant.model.is_some()),
            ("method", variant.estimator.is_some()),
            ("iterations", variant.iterations.is_some()),
            ("orphans", variant.orphans.is_some()),
            ("split", variant.split.is_some()),
        ] {
            if set && !keys.contains(&key) {
                let key = if key == "method" {
                    "method' or 'k"
                } else {
                    key
                };
                return Err(format!("measure '{measure}' does not use '{key}'"));
            }
        }
        if self.measure == Measure::Release && variant.agm_config(Privacy::NonPrivate).is_none() {
            return Err("measure 'release' runs AGM over fcl or tricycle".to_string());
        }
        if variant.split.is_some() {
            if variant.model() != ModelChoice::Agm(StructuralModelKind::TriCycLe) {
                return Err("'split' divides TriCycLe's budget; use model=tricycle".to_string());
            }
            if non_private_rows {
                return Err("'split' needs a finite epsilon, and the grid has inf".to_string());
            }
        }
        Ok(())
    }

    /// The columns each row records, in order: the measure's own, then the
    /// extra columns the `metrics` lines name.
    #[must_use]
    pub(crate) fn recorded_columns(&self) -> Vec<&'static str> {
        let (base, extras) = self.measure.columns();
        let named = extras
            .iter()
            .filter(|c| self.metrics.iter().any(|m| m == *c));
        base.iter().chain(named).copied().collect()
    }

    /// The columns CSV and markdown show, in recorded order: those the
    /// `metrics` lines select, or every recorded column when they select
    /// none.
    #[must_use]
    pub fn metric_columns(&self) -> Vec<&'static str> {
        let recorded = self.recorded_columns();
        if self.metrics.is_empty() {
            return recorded;
        }
        recorded
            .into_iter()
            .filter(|c| self.metrics.iter().any(|m| m == c))
            .collect()
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
    preset(name)?;
    Ok(DatasetRef::synthetic(name, scale, seed))
}

/// Parses a `variant <label> key=value…` line (see the module docs).
fn parse_variant(label: &str, options: &[&str]) -> std::result::Result<Variant, String> {
    if label.contains(['=', ',']) {
        return Err(format!(
            "variant label '{label}' may not contain '=' or ','; the label comes first"
        ));
    }
    let mut variant = Variant::new(label);
    let (mut method, mut k) = (None, None);
    let mut seen: Vec<&str> = Vec::new();
    for option in options {
        let Some((key, value)) = option.split_once('=') else {
            return Err(format!("variant option '{option}' is not key=value"));
        };
        if seen.contains(&key) {
            return Err(format!("variant key '{key}' is given twice"));
        }
        seen.push(key);
        let number = |what: &str| format!("{key} '{value}' is not {what}");
        match key {
            "model" => variant.model = Some(ModelChoice::parse(value)?),
            "method" => method = Some(value),
            "k" => k = Some(value.parse().map_err(|_| number("an integer"))?),
            "iterations" => match value.parse() {
                Ok(0) => return Err("iterations must be at least 1".to_string()),
                Ok(n) => variant.iterations = Some(n),
                Err(_) => return Err(number("an integer")),
            },
            "orphans" => {
                variant.orphans = Some(value.parse().map_err(|_| number("true or false"))?)
            }
            "split" => variant.split = Some(parse_split(value)?),
            other => {
                return Err(format!(
                    "unknown variant key '{other}' (known: {})",
                    VARIANT_KEYS.join(", ")
                ))
            }
        }
    }
    if method.is_some() || k.is_some() {
        variant.estimator = Some(Estimator::parse(method.unwrap_or("truncation"), k)?);
    }
    Ok(variant)
}

/// Parses `split=<x>,<f>,<s>,<t>`: four fractions in `[0, 1]` summing to 1.
fn parse_split(value: &str) -> std::result::Result<[f64; 4], String> {
    let parts: Vec<f64> = value
        .split(',')
        .map(|p| p.parse::<f64>().ok().filter(|x| (0.0..=1.0).contains(x)))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("split '{value}' is not four fractions in [0, 1]"))?;
    let fractions: [f64; 4] = parts
        .try_into()
        .map_err(|_| format!("split '{value}' is not four fractions in [0, 1]"))?;
    if (fractions.iter().sum::<f64>() - 1.0).abs() > 1e-9 {
        return Err(format!("split '{value}' does not sum to 1"));
    }
    Ok(fractions)
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
            vec![
                Variant::from(StructuralModelKind::Fcl),
                Variant::from(StructuralModelKind::TriCycLe)
            ]
        );
        assert_eq!(plan.measure, Measure::Release);
        assert_eq!(plan.metric_columns(), ["ks_degree", "edge_count_re"]);
        assert_eq!(plan.recorded_columns(), UtilityReport::METRIC_NAMES);
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
    fn ln_tokens_are_exact_and_keep_their_names() {
        for (token, value) in [("ln2", 2f64.ln()), ("ln3", 3f64.ln())] {
            let spec = EpsilonSpec::parse_token(token).unwrap();
            let Privacy::Dp { epsilon } = spec.privacy else {
                panic!("{token} parsed as non-private");
            };
            assert_eq!(epsilon.to_bits(), value.to_bits(), "{token}");
            assert_eq!(spec.label(), token);
        }
        // Any other value keeps its decimal label.
        assert_eq!(EpsilonSpec::dp(0.69).label(), "0.69");
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
            (
                "plan p\ndataset pokec\ndataset nosuch\nepsilon 1\nmodel fcl\n",
                "line 3: unknown dataset 'nosuch'",
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

    /// The measure, variant and metric errors, each with the line at fault.
    #[test]
    fn refuses_what_the_measure_cannot_run_naming_the_line() {
        let cases: &[(&str, &str)] = &[
            (
                "plan p\nmeasure structure\ndataset toy\nepsilon inf 0.5\nmodel fcl\n",
                "line 4: measure 'structure' samples the non-private model; epsilon must be inf, got 0.5",
            ),
            (
                "plan p\nmeasure theta_f\ndataset toy\nepsilon ln2\nepsilon inf\nvariant t method=truncation\n",
                "line 5: measure 'theta_f' runs a private estimator; epsilon must be finite, got inf",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant t method=naive\nvariant i iterations=2\nmeasure theta_f\n",
                "line 5: measure 'theta_f' does not use 'iterations'",
            ),
            (
                "plan p\nmeasure structure\ndataset toy\nepsilon inf\nvariant t k=4\n",
                "line 5: measure 'structure' does not use 'method' or 'k'",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant t colour=red\n",
                "line 4: unknown variant key 'colour'",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel fcl\nvariant fcl orphans=false\n",
                "line 5: model label 'fcl' is already used",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel tcl\n",
                "line 4: measure 'release' runs AGM over fcl or tricycle",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant n method=truncation\n",
                "line 4: measure 'release' does not use 'method' or 'k'",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant n k=4\n",
                "line 4: measure 'release' does not use 'method' or 'k'",
            ),
            (
                "plan p\nmeasure theta_f\ndataset toy\nepsilon 1\nvariant d method=smooth delta=0.01\n",
                "line 5: unknown variant key 'delta'",
            ),
            (
                "plan p\ndataset toy\nepsilon 1 inf\nvariant s split=0.25,0.25,0.25,0.25\n",
                "line 4: 'split' needs a finite epsilon",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant s model=fcl split=0.25,0.25,0.25,0.25\n",
                "line 4: 'split' divides TriCycLe's budget",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant s split=0.5,0.25,0.25\n",
                "line 4: split '0.5,0.25,0.25' is not four fractions",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant s split=0.5,0.5,0.25,0.25\n",
                "line 4: split '0.5,0.5,0.25,0.25' does not sum to 1",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant s iterations=0\n",
                "line 4: iterations must be at least 1",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant s k=3 k=4\n",
                "line 4: variant key 'k' is given twice",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nvariant u method=uniform k=3\nmeasure theta_f\n",
                "line 4: method 'uniform' takes no k",
            ),
            (
                "plan p\nmeasure theta_f\ndataset toy\nepsilon 1\nvariant s4 method=smooth k=4\n",
                "line 5: method 'smooth' takes no k",
            ),
            (
                "plan p\nmeasure theta_f\ndataset toy\nepsilon 1\nvariant n4 method=naive k=4\n",
                "line 5: method 'naive' takes no k",
            ),
            (
                "plan p\nmeasure theta_f\ndataset toy\nepsilon 1\nvariant nd method=node-dp k=3\n",
                "line 5: method 'node-dp' takes no k",
            ),
            (
                "plan p\nmeasure theta_f\ndataset toy\nepsilon 1\nvariant sa1 method=sample-aggregate k=1\n",
                "line 5: sample-and-aggregate group size k must be at least 2, got 1",
            ),
            (
                "plan p\ndataset toy\nepsilon 1\nmodel fcl\nmetrics theta_f_mae\n",
                "line 5: unknown metric 'theta_f_mae' for measure 'release'",
            ),
            (
                "plan p\nmeasure sideways\n",
                "line 2: unknown measure 'sideways'",
            ),
        ];
        for (text, needle) in cases {
            let err = EvalPlan::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "plan {text:?} gave: {err}");
        }
    }

    #[test]
    fn variant_method_errors_carry_from_parts_message() {
        for (keys, method, k) in [
            ("method=truncation k=1", "truncation", Some(1)),
            ("method=bogus", "bogus", None),
            ("method=bogus k=3", "bogus", Some(3)),
        ] {
            let text = format!("plan p\ndataset toy\nepsilon 1\nvariant v {keys}\n");
            let err = EvalPlan::parse(&text).unwrap_err().to_string();
            let message = CorrelationMethod::from_parts(method, k, DEFAULT_DELTA).unwrap_err();
            assert_eq!(err, format!("invalid plan: line 4: {message}"), "{keys}");
        }
    }

    #[test]
    fn variants_parse_every_key() {
        let plan = EvalPlan::parse(
            "plan p\ndataset toy\nepsilon ln2\n\
             variant base\n\
             variant lean model=fcl orphans=false iterations=1\n\
             variant heavy split=0.125,0.5,0.25,0.125\n\
             metrics theta_f_mre components ks_degree\n",
        )
        .unwrap();
        assert_eq!(plan.models[0], Variant::new("base"));
        assert_eq!(
            plan.models[0].model(),
            ModelChoice::Agm(StructuralModelKind::TriCycLe)
        );
        let lean = &plan.models[1];
        assert_eq!(lean.model, Some(ModelChoice::Agm(StructuralModelKind::Fcl)));
        assert_eq!(lean.orphans, Some(false));
        assert_eq!(lean.iterations, Some(1));
        assert_eq!(plan.models[2].split, Some([0.125, 0.5, 0.25, 0.125]));
        // Extras are recorded only when named, after the eleven columns.
        let recorded = plan.recorded_columns();
        assert_eq!(recorded.len(), UtilityReport::METRIC_NAMES.len() + 2);
        assert_eq!(recorded[11..], ["theta_f_mre", "components"]);
        assert_eq!(
            plan.metric_columns(),
            ["ks_degree", "theta_f_mre", "components"]
        );

        let theta_f = EvalPlan::parse(
            "plan p\nmeasure theta_f\ndataset toy\nepsilon 0.5\n\
             variant node method=node-dp\nvariant flat method=uniform\n\
             variant sa method=sample-aggregate k=8\nvariant smooth method=smooth\n",
        )
        .unwrap();
        let estimators: Vec<Estimator> = theta_f.models.iter().map(Variant::estimator).collect();
        assert_eq!(
            estimators,
            [
                Estimator::NodeDp,
                Estimator::Uniform,
                Estimator::Edge(CorrelationMethod::SampleAggregate { group_size: 8 }),
                Estimator::Edge(CorrelationMethod::SmoothSensitivity { delta: 1e-6 }),
            ]
        );
        assert_eq!(theta_f.recorded_columns(), THETA_F_COLUMNS);

        let structure = EvalPlan::parse(
            "plan p\nmeasure structure\ndataset toy\nepsilon inf\nmodel fcl tcl tricycle uniform\n",
        )
        .unwrap();
        let models: Vec<ModelChoice> = structure.models.iter().map(Variant::model).collect();
        assert_eq!(
            models,
            [
                ModelChoice::Agm(StructuralModelKind::Fcl),
                ModelChoice::Tcl,
                ModelChoice::Agm(StructuralModelKind::TriCycLe),
                ModelChoice::Uniform
            ]
        );
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
