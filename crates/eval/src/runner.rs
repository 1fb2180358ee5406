//! The deterministic experiment runner.
//!
//! [`EvalPlan::run`] expands the plan into a trial grid — every
//! (dataset, ε, model) cell times the repetition count — and fans the trials
//! out over the chunked executor of `agmdp_models::parallel`, one trial per
//! chunk. Each trial's RNG is the ChaCha stream derived from the plan's
//! master seed and the trial's global index via `derive_chunk_seed`, and the
//! executor merges results in trial order, so a whole experiment grid is
//! **bit-identical at any thread count**: `threads` is scheduling only, the
//! same contract the synthesis samplers obey one level down. (Each trial's
//! own sampling runs serially — the harness parallelises *across* trials,
//! which is the embarrassingly parallel axis.)
//!
//! What a trial does is the plan's [`Measure`]: synthesise and score a
//! release, run only the Θ_F estimator, or sample a bare structural model.

use serde::Serialize;

use agmdp_core::correlations_dp::learn_correlations_cached;
use agmdp_core::node_dp::learn_correlations_node_dp;
use agmdp_core::workflow::{
    learn_parameters_cached, synthesize_from_parameters, BudgetSplit, Privacy, StructuralModelKind,
};
use agmdp_core::FitStatistics;
use agmdp_graph::components::connected_components;
use agmdp_graph::{AttributedGraph, GraphView};
use agmdp_metrics::distance::{hellinger_distance, mean_absolute_error, mean_relative_error};
use agmdp_models::baselines::{uniform_correlation_distribution, uniform_edge_graph};
use agmdp_models::parallel::{derive_chunk_seed, run_seeded_chunks};
use agmdp_models::{ChungLuModel, GenerateRequest, StructuralModel, TclModel, TriCycLeModel};

use crate::error::{EvalError, Result};
use crate::plan::{Estimator, EvalPlan, Measure, ModelChoice, THETA_F_COLUMNS};
use crate::report::{GraphProfile, Scores, UtilityReport};

/// EM rounds of the TCL fit behind `model=tcl`.
const TCL_EM_ITERATIONS: usize = 10;
/// The δ of `method=node-dp` (Section 7).
const NODE_DP_DELTA: f64 = 0.01;

/// One trial: the cell coordinates, the derived seed, and every recorded
/// metric column.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrialRow {
    /// Dataset label (see `DatasetRef::label`).
    pub dataset: String,
    /// Variant label (`fcl` / `tricycle` for the `model` shorthand).
    pub model: String,
    /// ε label (`0.5`, `ln2`, … or `inf` for the non-private baseline).
    pub epsilon: String,
    /// Repetition index within the cell, `0..repetitions`.
    pub rep: usize,
    /// The derived seed that drove this trial's RNG stream
    /// (`derive_chunk_seed(plan.seed, trial_index)`).
    pub trial_seed: u64,
    /// The recorded metric columns for this trial.
    pub metrics: Scores,
}

/// Mean and sample standard deviation of one (dataset, ε, model) cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggregateRow {
    /// Dataset label.
    pub dataset: String,
    /// Variant label.
    pub model: String,
    /// ε label.
    pub epsilon: String,
    /// Number of trials aggregated.
    pub repetitions: usize,
    /// Column-wise mean over the cell's trials.
    pub mean: Scores,
    /// Column-wise sample standard deviation (zero for one repetition).
    pub stddev: Scores,
}

/// One input's row of Table 6 (Appendix A): its size, degrees and
/// clustering.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InputProfile {
    /// Dataset label.
    pub dataset: String,
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Table 6's "average degree", `m / n`.
    pub edges_per_node: f64,
    /// Triangle count `n_Δ`.
    pub triangles: u64,
    /// Average local clustering coefficient `C̄`.
    pub avg_clustering: f64,
}

/// The complete result of one plan run: the inputs' profiles, per-trial
/// rows and per-cell aggregates, with enough header context to reproduce
/// the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvalReport {
    /// Plan name.
    pub plan: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// What each trial measured (`release`, `theta_f` or `structure`).
    pub measure: String,
    /// Selected metric column names (every recorded column when the plan
    /// selected `all`); CSV and markdown render exactly these columns, JSON
    /// always records every recorded column.
    pub columns: Vec<String>,
    /// Table 6 for the plan's inputs, in plan order.
    pub inputs: Vec<InputProfile>,
    /// Every trial, in deterministic grid order.
    pub trials: Vec<TrialRow>,
    /// Per-cell aggregates, in the same grid order.
    pub aggregates: Vec<AggregateRow>,
}

/// The coordinates of one grid cell (indices into the plan's lists).
struct Cell {
    dataset: usize,
    epsilon: usize,
    model: usize,
}

/// One materialised input: the mutable graph the learners and the TCL fit
/// read, the graph-only statistics its DP fits add noise to (filled by the
/// first trial that needs each), and the profile every trial scores against.
struct Input {
    label: String,
    graph: AttributedGraph,
    statistics: FitStatistics,
    profile: GraphProfile,
}

impl EvalPlan {
    /// Runs the plan and returns per-trial rows plus per-cell aggregates.
    ///
    /// Deterministic by construction: the result depends only on the plan
    /// (including its master seed), never on `threads` or the host. Returns
    /// the first trial error, if any.
    ///
    /// ```
    /// use agmdp_eval::EvalPlan;
    ///
    /// let plan = EvalPlan::parse(
    ///     "plan doc\ndataset toy\nepsilon 1 inf\nmodel fcl\nrepetitions 2\nseed 5\n",
    /// ).unwrap();
    /// let report = plan.run().unwrap();
    /// assert_eq!(report.trials.len(), 4); // 1 dataset × 2 ε × 1 model × 2 reps
    /// assert_eq!(report.aggregates.len(), 2);
    /// // The non-private rows reproduce the edge count almost exactly.
    /// let non_private = report.aggregates.iter().find(|a| a.epsilon == "inf").unwrap();
    /// assert!(non_private.mean.get("edge_count_re").unwrap() < 0.25);
    /// ```
    pub fn run(&self) -> Result<EvalReport> {
        self.validate()?;
        // Materialise each input once. The mutable graph feeds the learners;
        // the profile of its CSR snapshot is what every trial of the dataset
        // scores against.
        let inputs: Vec<Input> = self
            .datasets
            .iter()
            .map(|d| {
                let graph = d.materialize()?;
                let profile = GraphProfile::of(&graph.freeze());
                Ok(Input {
                    label: d.label(),
                    graph,
                    statistics: FitStatistics::new(),
                    profile,
                })
            })
            .collect::<Result<_>>()?;

        // Grid order: dataset-major, then ε, then model — the row order of
        // the results book's tables.
        let mut cells = Vec::new();
        for dataset in 0..self.datasets.len() {
            for epsilon in 0..self.epsilons.len() {
                for model in 0..self.models.len() {
                    cells.push(Cell {
                        dataset,
                        epsilon,
                        model,
                    });
                }
            }
        }

        let recorded = self.recorded_columns();
        let total_trials = cells.len() * self.repetitions;
        let outcomes: Vec<std::result::Result<TrialRow, String>> =
            run_seeded_chunks(self.threads, total_trials, self.seed, |trial, rng| {
                let cell = &cells[trial / self.repetitions];
                let input = &inputs[cell.dataset];
                let variant = &self.models[cell.model];
                let epsilon = self.epsilons[cell.epsilon];
                let fault = |e: &dyn std::fmt::Display| {
                    format!(
                        "trial {trial} ({}, model {}, epsilon {}): {e}",
                        input.label,
                        variant.label,
                        epsilon.label()
                    )
                };
                let metrics = match self.measure {
                    Measure::Release => {
                        let Some(config) = variant.agm_config(epsilon.privacy) else {
                            unreachable!("validate() admits only AGM variants under release");
                        };
                        let split = match (variant.split, epsilon.privacy) {
                            (Some([x, f, s, t]), Privacy::Dp { epsilon }) => Some(
                                BudgetSplit::custom(
                                    epsilon * x,
                                    epsilon * f,
                                    epsilon * s,
                                    epsilon * t,
                                )
                                .map_err(|e| fault(&e))?,
                            ),
                            _ => None,
                        };
                        let params = learn_parameters_cached(
                            &input.graph,
                            &input.statistics,
                            &config,
                            split,
                            rng,
                        )
                        .map_err(|e| fault(&e))?;
                        let release = synthesize_from_parameters(&params, &config, rng)
                            .map_err(|e| fault(&e))?;
                        release_scores(input, &release, &recorded)
                    }
                    Measure::ThetaF => {
                        let Privacy::Dp { epsilon } = epsilon.privacy else {
                            unreachable!("validate() admits only finite epsilons under theta_f");
                        };
                        let graph = &input.graph;
                        let estimate = match variant.estimator() {
                            Estimator::Edge(method) => learn_correlations_cached(
                                graph,
                                &input.statistics,
                                epsilon,
                                method,
                                rng,
                            )
                            .map_err(|e| fault(&e))?
                            .probabilities()
                            .to_vec(),
                            Estimator::NodeDp => learn_correlations_node_dp(
                                graph,
                                &input.statistics,
                                epsilon,
                                NODE_DP_DELTA,
                                None,
                                rng,
                            )
                            .map_err(|e| fault(&e))?
                            .probabilities()
                            .to_vec(),
                            Estimator::Uniform => uniform_correlation_distribution(graph.schema()),
                        };
                        theta_f_scores(input.profile.theta_f.probabilities(), &estimate)
                    }
                    Measure::Structure => {
                        let graph = &input.graph;
                        let request = GenerateRequest::default();
                        let sample = match variant.model() {
                            ModelChoice::Agm(StructuralModelKind::Fcl) => {
                                ChungLuModel::new(graph.degrees())
                                    .map(|m| m.with_orphan_postprocessing(true))
                                    .and_then(|m| m.generate(&request, rng))
                            }
                            ModelChoice::Agm(StructuralModelKind::TriCycLe) => TriCycLeModel::new(
                                graph.degrees(),
                                input.profile.clustering.triangles,
                            )
                            .and_then(|m| m.generate(&request, rng)),
                            ModelChoice::Tcl => TclModel::fit(graph, TCL_EM_ITERATIONS)
                                .and_then(|m| m.generate(&request, rng)),
                            ModelChoice::Uniform => {
                                uniform_edge_graph(graph.num_nodes(), graph.num_edges(), rng)
                            }
                        }
                        .map_err(|e| fault(&e))?;
                        let profile = GraphProfile::of(&sample.freeze());
                        Scores::from(UtilityReport::between(&input.profile, &profile))
                    }
                };
                Ok(TrialRow {
                    dataset: input.label.clone(),
                    model: variant.label.clone(),
                    epsilon: epsilon.label(),
                    rep: trial % self.repetitions,
                    trial_seed: derive_chunk_seed(self.seed, trial as u64),
                    metrics,
                })
            });

        let mut trials = Vec::with_capacity(total_trials);
        for outcome in outcomes {
            trials.push(outcome.map_err(EvalError::Synthesis)?);
        }

        let aggregates = cells
            .iter()
            .zip(trials.chunks(self.repetitions))
            .map(|(cell, rows)| {
                let cell_scores: Vec<Scores> = rows.iter().map(|t| t.metrics.clone()).collect();
                AggregateRow {
                    dataset: inputs[cell.dataset].label.clone(),
                    model: self.models[cell.model].label.clone(),
                    epsilon: self.epsilons[cell.epsilon].label(),
                    repetitions: self.repetitions,
                    mean: Scores::mean(&cell_scores),
                    stddev: Scores::stddev(&cell_scores),
                }
            })
            .collect();

        Ok(EvalReport {
            plan: self.name.clone(),
            seed: self.seed,
            repetitions: self.repetitions,
            measure: self.measure.name().to_string(),
            columns: self
                .metric_columns()
                .into_iter()
                .map(str::to_string)
                .collect(),
            inputs: inputs
                .iter()
                .map(|input| {
                    let p = &input.profile;
                    InputProfile {
                        dataset: input.label.clone(),
                        nodes: p.nodes,
                        edges: p.edges,
                        max_degree: p.max_degree,
                        edges_per_node: p.edges as f64 / p.nodes as f64,
                        triangles: p.clustering.triangles,
                        avg_clustering: p.clustering.average_local,
                    }
                })
                .collect(),
            trials,
            aggregates,
        })
    }
}

/// A release's [`UtilityReport`] columns, then the extra columns `recorded`
/// names: the Θ_F MRE of Tables 2–5 and the ablation's orphan and component
/// counts.
fn release_scores(input: &Input, release: &AttributedGraph, recorded: &[&'static str]) -> Scores {
    let frozen = release.freeze();
    let profile = GraphProfile::of(&frozen);
    let mut scores = Scores::from(UtilityReport::between(&input.profile, &profile));
    let mut components = None;
    for &column in recorded.iter().skip(UtilityReport::METRIC_NAMES.len()) {
        let value = if column == "theta_f_mre" {
            mean_relative_error(
                input.profile.theta_f.probabilities(),
                profile.theta_f.probabilities(),
            )
        } else {
            let components = components.get_or_insert_with(|| connected_components(&frozen));
            if column == "orphaned_nodes" {
                components.orphaned_nodes().len() as f64
            } else {
                components.count() as f64
            }
        };
        scores.push(column, value);
    }
    scores
}

/// A Θ_F estimate's columns against the input's Θ_F.
fn theta_f_scores(truth: &[f64], estimate: &[f64]) -> Scores {
    let [mae, mre, hellinger] = THETA_F_COLUMNS;
    Scores::from_iter([
        (mae, mean_absolute_error(truth, estimate)),
        (mre, mean_relative_error(truth, estimate)),
        (hellinger, hellinger_distance(truth, estimate)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(threads: usize) -> EvalPlan {
        let mut plan = EvalPlan::parse(
            "plan tiny\ndataset toy\nepsilon 1 inf\nmodel fcl tricycle\nrepetitions 2\nseed 11\n",
        )
        .unwrap();
        plan.threads = threads;
        plan
    }

    #[test]
    fn grid_shape_and_order_are_deterministic() {
        let report = tiny_plan(1).run().unwrap();
        // 1 dataset × 2 ε × 2 models × 2 reps.
        assert_eq!(report.trials.len(), 8);
        assert_eq!(report.aggregates.len(), 4);
        // Grid order: ε-major over models, reps innermost.
        assert_eq!(report.trials[0].epsilon, "1");
        assert_eq!(report.trials[0].model, "fcl");
        assert_eq!(report.trials[0].rep, 0);
        assert_eq!(report.trials[1].rep, 1);
        assert_eq!(report.trials[2].model, "tricycle");
        assert_eq!(report.trials[4].epsilon, "inf");
        // Trial seeds are the documented derivation.
        for (i, t) in report.trials.iter().enumerate() {
            assert_eq!(t.trial_seed, derive_chunk_seed(11, i as u64));
        }
        // Full metric set selected by default.
        assert_eq!(report.columns.len(), UtilityReport::METRIC_NAMES.len());
        // Table 6 of the input heads the report.
        let toy = GraphProfile::of(&agmdp_datasets::toy_social_graph());
        assert_eq!(report.inputs.len(), 1);
        assert_eq!(report.inputs[0].dataset, "toy");
        assert_eq!(
            (
                report.inputs[0].nodes,
                report.inputs[0].edges,
                report.inputs[0].triangles
            ),
            (toy.nodes, toy.edges, toy.clustering.triangles)
        );
    }

    #[test]
    fn thread_count_never_changes_results() {
        let serial = tiny_plan(1).run().unwrap();
        for threads in [2, 8] {
            assert_eq!(
                tiny_plan(threads).run().unwrap(),
                serial,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn master_seed_changes_results() {
        let a = tiny_plan(1).run().unwrap();
        let mut plan = tiny_plan(1);
        plan.seed = 12;
        let b = plan.run().unwrap();
        assert_ne!(a.trials, b.trials);
    }

    #[test]
    fn aggregates_match_trials() {
        let report = tiny_plan(1).run().unwrap();
        for (i, agg) in report.aggregates.iter().enumerate() {
            let cell: Vec<Scores> = report.trials[i * 2..(i + 1) * 2]
                .iter()
                .map(|t| t.metrics.clone())
                .collect();
            assert_eq!(agg.mean, Scores::mean(&cell));
            assert_eq!(agg.stddev, Scores::stddev(&cell));
            assert_eq!(agg.repetitions, 2);
        }
    }

    #[test]
    fn invalid_plans_are_refused_before_running() {
        let mut plan = tiny_plan(1);
        plan.models.clear();
        assert!(plan.run().is_err());
        let mut plan = tiny_plan(1);
        plan.repetitions = 0;
        assert!(plan.run().is_err());
    }

    fn run(text: &str) -> EvalReport {
        EvalPlan::parse(text).unwrap().run().unwrap()
    }

    /// A `theta_f` row is one estimator call on that trial's stream, scored
    /// against the input's Θ_F.
    #[test]
    fn theta_f_rows_are_direct_estimator_calls() {
        let report = run("plan t\nmeasure theta_f\nseed 4\nrepetitions 2\ndataset toy\nepsilon 0.5 ln3\n\
             variant trunc method=truncation k=4\nvariant node method=node-dp\nvariant flat method=uniform\n");
        let graph = agmdp_datasets::toy_social_graph();
        let truth = agmdp_core::ThetaF::from_graph(&graph);
        assert_eq!(report.trials.len(), 12);
        for (trial, row) in report.trials.iter().enumerate() {
            let mut rng = agmdp_models::parallel::chunk_rng(4, trial as u64);
            let epsilon = if row.epsilon == "ln3" { 3f64.ln() } else { 0.5 };
            let estimate = match row.model.as_str() {
                "trunc" => agmdp_core::correlations_dp::learn_correlations_dp(
                    &graph,
                    epsilon,
                    agmdp_core::correlations_dp::CorrelationMethod::EdgeTruncation { k: Some(4) },
                    &mut rng,
                )
                .unwrap()
                .probabilities()
                .to_vec(),
                "node" => learn_correlations_node_dp(
                    &graph,
                    &FitStatistics::new(),
                    epsilon,
                    0.01,
                    None,
                    &mut rng,
                )
                .unwrap()
                .probabilities()
                .to_vec(),
                _ => uniform_correlation_distribution(graph.schema()),
            };
            assert_eq!(
                row.metrics,
                theta_f_scores(truth.probabilities(), &estimate),
                "{row:?}"
            );
            assert_eq!(
                row.metrics.get("theta_f_mae"),
                Some(mean_absolute_error(truth.probabilities(), &estimate))
            );
        }
    }

    /// TriCycLe's even split, given explicitly, reproduces the default
    /// row bit for bit: the split goes through the one learning body.
    #[test]
    fn an_explicit_even_split_reproduces_the_default_row() {
        let plan = |variant: &str| {
            format!("plan s\nseed 9\nrepetitions 2\ndataset toy\nepsilon 0.7 ln2\n{variant}\n")
        };
        let default = run(&plan("model tricycle"));
        let split = run(&plan("variant tricycle split=0.25,0.25,0.25,0.25"));
        assert_eq!(split, default);
        let skewed = run(&plan("variant tricycle split=0.125,0.5,0.25,0.125"));
        assert_ne!(skewed.trials, default.trials);
    }

    #[test]
    fn release_extras_are_recorded_only_when_named() {
        let report = run("plan x\nseed 2\nrepetitions 1\ndataset toy\nepsilon 1\n\
             variant with\nvariant without orphans=false iterations=1\n\
             metrics components orphaned_nodes theta_f_mre\n");
        let with = &report.trials[0].metrics;
        let names: Vec<&str> = with.iter().map(|(name, _)| name).collect();
        assert_eq!(names[..11], UtilityReport::METRIC_NAMES);
        assert_eq!(names[11..], ["theta_f_mre", "orphaned_nodes", "components"]);
        assert_eq!(with.get("orphaned_nodes"), Some(0.0));
        assert!(with.get("components").unwrap() >= 1.0);
        assert_eq!(
            report.columns,
            ["theta_f_mre", "orphaned_nodes", "components"]
        );
        let plain = run("plan x\nseed 2\nrepetitions 1\ndataset toy\nepsilon 1\nvariant with\n");
        assert_eq!(plain.trials[0].metrics.iter().count(), 11);
        // The release is the same; only the recorded columns differ.
        for (name, value) in plain.trials[0].metrics.iter() {
            assert_eq!(with.get(name), Some(value), "{name}");
        }
    }

    #[test]
    fn structure_rows_score_the_bare_models() {
        let report = run(
            "plan g\nmeasure structure\nrepetitions 1\ndataset toy\nepsilon inf\n\
             model fcl tcl tricycle uniform\n",
        );
        let models: Vec<&str> = report.trials.iter().map(|t| t.model.as_str()).collect();
        assert_eq!(models, ["fcl", "tcl", "tricycle", "uniform"]);
        let edges = |model: &str| {
            report
                .trials
                .iter()
                .find(|t| t.model == model)
                .unwrap()
                .metrics
                .get("edge_count_re")
        };
        // The uniform-edge baseline places exactly m edges.
        assert_eq!(edges("uniform"), Some(0.0));
        assert!(edges("tricycle").unwrap() < 0.25);
    }
}
