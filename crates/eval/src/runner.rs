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

use serde::Serialize;

use agmdp_core::workflow::{synthesize, AgmConfig};
use agmdp_graph::AttributedGraph;
use agmdp_models::parallel::{derive_chunk_seed, run_seeded_chunks};

use crate::error::{EvalError, Result};
use crate::plan::EvalPlan;
use crate::report::{GraphProfile, UtilityReport};

/// One synthesis trial: the cell coordinates, the derived seed, and every
/// metric column.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrialRow {
    /// Dataset label (see `DatasetRef::label`).
    pub dataset: String,
    /// Structural model token (`fcl` / `tricycle`).
    pub model: String,
    /// ε label (`0.5`, `1`, … or `inf` for the non-private baseline).
    pub epsilon: String,
    /// Repetition index within the cell, `0..repetitions`.
    pub rep: usize,
    /// The derived seed that drove this trial's RNG stream
    /// (`derive_chunk_seed(plan.seed, trial_index)`).
    pub trial_seed: u64,
    /// The metric columns for this trial.
    pub metrics: UtilityReport,
}

/// Mean and sample standard deviation of one (dataset, ε, model) cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggregateRow {
    /// Dataset label.
    pub dataset: String,
    /// Structural model token.
    pub model: String,
    /// ε label.
    pub epsilon: String,
    /// Number of trials aggregated.
    pub repetitions: usize,
    /// Element-wise mean over the cell's trials.
    pub mean: UtilityReport,
    /// Element-wise sample standard deviation (zero for one repetition).
    pub stddev: UtilityReport,
}

/// The complete result of one plan run: per-trial rows plus per-cell
/// aggregates, with enough header context to reproduce the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvalReport {
    /// Plan name.
    pub plan: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// Selected metric column names (the full set when the plan selected
    /// `all`); CSV and markdown render exactly these columns, JSON always
    /// records the full metric struct.
    pub columns: Vec<String>,
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
    /// assert!(non_private.mean.edge_count_re < 0.25);
    /// ```
    pub fn run(&self) -> Result<EvalReport> {
        self.validate()?;
        // Materialise each input once and freeze it: the mutable graph feeds
        // synthesis (the learners read it), the CSR snapshot feeds the
        // original-side metric profile (every trial of a dataset scores
        // against the same original).
        let inputs: Vec<(String, AttributedGraph, GraphProfile)> = self
            .datasets
            .iter()
            .map(|d| {
                let graph = d.materialize()?;
                let profile = GraphProfile::of(&graph.freeze());
                Ok((d.label(), graph, profile))
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

        let total_trials = cells.len() * self.repetitions;
        let outcomes: Vec<std::result::Result<TrialRow, String>> =
            run_seeded_chunks(self.threads, total_trials, self.seed, |trial, rng| {
                let cell = &cells[trial / self.repetitions];
                let rep = trial % self.repetitions;
                let (label, input, profile) = &inputs[cell.dataset];
                let model = self.models[cell.model];
                let config = AgmConfig {
                    privacy: self.epsilons[cell.epsilon].privacy,
                    model,
                    threads: 1, // the harness parallelises across trials
                    ..AgmConfig::default()
                };
                let synthetic = synthesize(input, &config, rng).map_err(|e| {
                    format!(
                        "trial {trial} ({label}, model {model}, epsilon {}): {e}",
                        self.epsilons[cell.epsilon].label()
                    )
                })?;
                // Freeze and profile once per trial: all eleven metric
                // columns read the profile of the CSR snapshot.
                let release = GraphProfile::of(&synthetic.freeze());
                Ok(TrialRow {
                    dataset: label.clone(),
                    model: model.name().to_string(),
                    epsilon: self.epsilons[cell.epsilon].label(),
                    rep,
                    trial_seed: derive_chunk_seed(self.seed, trial as u64),
                    metrics: UtilityReport::between(profile, &release),
                })
            });

        let mut trials = Vec::with_capacity(total_trials);
        for outcome in outcomes {
            trials.push(outcome.map_err(EvalError::Synthesis)?);
        }

        let aggregates = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let cell_reports: Vec<UtilityReport> = trials
                    [i * self.repetitions..(i + 1) * self.repetitions]
                    .iter()
                    .map(|t| t.metrics)
                    .collect();
                AggregateRow {
                    dataset: self.datasets[cell.dataset].label(),
                    model: self.models[cell.model].name().to_string(),
                    epsilon: self.epsilons[cell.epsilon].label(),
                    repetitions: self.repetitions,
                    mean: UtilityReport::mean(&cell_reports),
                    stddev: UtilityReport::stddev(&cell_reports),
                }
            })
            .collect();

        Ok(EvalReport {
            plan: self.name.clone(),
            seed: self.seed,
            repetitions: self.repetitions,
            columns: self
                .metric_columns()
                .into_iter()
                .map(|i| UtilityReport::METRIC_NAMES[i].to_string())
                .collect(),
            trials,
            aggregates,
        })
    }
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
            let cell: Vec<UtilityReport> = report.trials[i * 2..(i + 1) * 2]
                .iter()
                .map(|t| t.metrics)
                .collect();
            assert_eq!(agg.mean, UtilityReport::mean(&cell));
            assert_eq!(agg.stddev, UtilityReport::stddev(&cell));
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
}
