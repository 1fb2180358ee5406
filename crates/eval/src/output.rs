//! Artifact rendering: JSON, CSV and markdown views of an [`EvalReport`].
//!
//! All renderers are pure functions of the report, with deterministic float
//! formatting (Rust's shortest-roundtrip `{}` for machine artifacts, fixed
//! `{:.4}` for the human-facing markdown tables), so two runs of the same
//! plan produce byte-identical artifacts — the property the golden-file CI
//! job and the determinism proptests pin down.

use std::fmt::Write as _;

use serde::Serialize;

use crate::report::Scores;
use crate::runner::{AggregateRow, EvalReport};

/// The aggregate-only JSON artifact (`aggregates.json`): everything needed
/// to regression-diff a run without the per-trial bulk.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggregatesArtifact {
    /// Plan name.
    pub plan: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// Per-cell aggregates in grid order.
    pub aggregates: Vec<AggregateRow>,
}

impl EvalReport {
    /// The full report (trials + aggregates) as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation is infallible")
    }

    /// The aggregate-only JSON artifact, the golden-file target of the
    /// `eval-smoke` CI job.
    #[must_use]
    pub fn aggregates_json(&self) -> String {
        let artifact = AggregatesArtifact {
            plan: self.plan.clone(),
            seed: self.seed,
            repetitions: self.repetitions,
            aggregates: self.aggregates.clone(),
        };
        serde_json::to_string_pretty(&artifact).expect("artifact serialisation is infallible")
    }

    /// Per-trial rows as CSV (header + one row per trial), restricted to the
    /// selected metric columns.
    #[must_use]
    pub fn trials_csv(&self) -> String {
        let mut out = String::from("dataset,model,epsilon,rep,trial_seed");
        for name in &self.columns {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for trial in &self.trials {
            let _ = write!(
                out,
                "{},{},{},{},{}",
                trial.dataset, trial.model, trial.epsilon, trial.rep, trial.trial_seed
            );
            for value in self.selected(&trial.metrics) {
                let _ = write!(out, ",{value}");
            }
            out.push('\n');
        }
        out
    }

    /// Per-cell aggregates as CSV: for every selected metric a `_mean` and a
    /// `_sd` column.
    #[must_use]
    pub fn aggregates_csv(&self) -> String {
        let mut out = String::from("dataset,model,epsilon,repetitions");
        for name in &self.columns {
            let _ = write!(out, ",{name}_mean,{name}_sd");
        }
        out.push('\n');
        for agg in &self.aggregates {
            let _ = write!(
                out,
                "{},{},{},{}",
                agg.dataset, agg.model, agg.epsilon, agg.repetitions
            );
            for (mean, sd) in self.selected(&agg.mean).zip(self.selected(&agg.stddev)) {
                let _ = write!(out, ",{mean},{sd}");
            }
            out.push('\n');
        }
        out
    }

    /// A row's values in the selected columns.
    fn selected<'a>(&'a self, scores: &'a Scores) -> impl Iterator<Item = f64> + 'a {
        self.columns
            .iter()
            .map(|name| scores.get(name).unwrap_or(f64::NAN))
    }

    /// The inputs' Table 6 profile as a markdown table.
    fn profile_markdown(&self) -> String {
        let mut out = String::from(
            "### Inputs (Table 6: n, m, d_max, m/n, n_Δ, C̄)\n\n\
             | dataset | n | m | d_max | m/n | n_Δ | C̄ |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for p in &self.inputs {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.2} | {} | {:.4} |",
                p.dataset,
                p.nodes,
                p.edges,
                p.max_degree,
                p.edges_per_node,
                p.triangles,
                p.avg_clustering
            );
        }
        out
    }

    /// The inputs' Table 6 profile, then the aggregate tables, as
    /// GitHub-flavoured markdown: one table per dataset (rows: ε × model in
    /// grid order; cells: mean, four decimals). This is exactly what
    /// `docs/EVALUATION.md` embeds.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = self.profile_markdown();
        let mut datasets: Vec<&str> = Vec::new();
        for agg in &self.aggregates {
            if !datasets.contains(&agg.dataset.as_str()) {
                datasets.push(&agg.dataset);
            }
        }
        for dataset in datasets {
            out.push('\n');
            let _ = writeln!(
                out,
                "### Dataset `{dataset}` (plan `{}`, seed {}, {} repetitions; mean over repetitions)",
                self.plan, self.seed, self.repetitions
            );
            out.push('\n');
            out.push_str("| ε | model |");
            for name in &self.columns {
                let _ = write!(out, " {name} |");
            }
            out.push('\n');
            out.push_str("|---|---|");
            for _ in &self.columns {
                out.push_str("---|");
            }
            out.push('\n');
            for agg in self.aggregates.iter().filter(|a| a.dataset == dataset) {
                let _ = write!(out, "| {} | {} |", agg.epsilon, agg.model);
                for mean in self.selected(&agg.mean) {
                    let _ = write!(out, " {mean:.4} |");
                }
                out.push('\n');
            }
        }
        out
    }

    /// A fixed-width text rendering of the inputs' Table 6 profile and the
    /// aggregate table for terminal output (`agmdp evaluate` prints this).
    #[must_use]
    pub fn to_text_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan {} · measure {} · seed {} · {} repetitions per cell",
            self.plan, self.measure, self.seed, self.repetitions
        );
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>10} {:>7} {:>7} {:>10} {:>8}",
            "input", "n", "m", "d_max", "m/n", "n_Δ", "C̄"
        );
        for p in &self.inputs {
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>10} {:>7} {:>7.2} {:>10} {:>8.4}",
                p.dataset,
                p.nodes,
                p.edges,
                p.max_degree,
                p.edges_per_node,
                p.triangles,
                p.avg_clustering
            );
        }
        out.push('\n');
        // Variant labels are the plan's own, so the model column fits them.
        let model_width = self
            .aggregates
            .iter()
            .map(|a| a.model.len())
            .fold(10, usize::max);
        let _ = write!(
            out,
            "{:<16} {:<model_width$} {:>8}",
            "dataset", "model", "epsilon"
        );
        for name in &self.columns {
            let _ = write!(out, " {name:>21}");
        }
        out.push('\n');
        for agg in &self.aggregates {
            let _ = write!(
                out,
                "{:<16} {:<model_width$} {:>8}",
                agg.dataset, agg.model, agg.epsilon
            );
            for (mean, sd) in self.selected(&agg.mean).zip(self.selected(&agg.stddev)) {
                let _ = write!(out, " {mean:>12.4} ±{sd:>7.4}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::EvalPlan;
    use crate::report::UtilityReport;

    fn small_report() -> crate::runner::EvalReport {
        EvalPlan::parse(
            "plan art\ndataset toy\nepsilon 1 inf\nmodel fcl\nrepetitions 2\nseed 3\nmetrics ks_degree edge_count_re\n",
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn csv_has_expected_shape() {
        let report = small_report();
        let trials = report.trials_csv();
        let mut lines = trials.lines();
        assert_eq!(
            lines.next().unwrap(),
            "dataset,model,epsilon,rep,trial_seed,ks_degree,edge_count_re"
        );
        assert_eq!(trials.lines().count(), 1 + 4); // header + 4 trials
        let first = trials.lines().nth(1).unwrap();
        assert!(first.starts_with("toy,fcl,1,0,"), "{first}");
        assert_eq!(first.split(',').count(), 7);

        let aggregates = report.aggregates_csv();
        assert_eq!(
            aggregates.lines().next().unwrap(),
            "dataset,model,epsilon,repetitions,ks_degree_mean,ks_degree_sd,edge_count_re_mean,edge_count_re_sd"
        );
        assert_eq!(aggregates.lines().count(), 1 + 2); // header + 2 cells
    }

    #[test]
    fn json_artifacts_are_valid_and_contain_the_grid() {
        let report = small_report();
        let full = report.to_json();
        assert!(full.contains("\"trials\""));
        assert!(full.contains("\"aggregates\""));
        assert!(full.contains("\"ks_degree\""));
        let aggregates = report.aggregates_json();
        assert!(aggregates.contains("\"plan\": \"art\""));
        assert!(!aggregates.contains("\"trials\""));
        // JSON always records the full metric set, even with a column subset.
        for name in UtilityReport::METRIC_NAMES {
            assert!(aggregates.contains(name), "missing {name}");
        }
    }

    #[test]
    fn markdown_contains_tables_per_dataset() {
        let report = small_report();
        let md = report.to_markdown();
        assert!(md.contains("### Dataset `toy`"));
        assert!(md.contains("| ε | model | ks_degree | edge_count_re |"));
        assert!(md.contains("| inf | fcl |"));
        let text = report.to_text_table();
        assert!(text.contains("plan art"));
        assert!(text.contains("toy"));
    }

    #[test]
    fn artifacts_are_reproducible() {
        let a = small_report();
        let b = small_report();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.trials_csv(), b.trials_csv());
        assert_eq!(a.aggregates_csv(), b.aggregates_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
    }
}
