//! Privacy sweep: the utility of AGM-DP synthetic graphs as the privacy budget
//! ε shrinks, comparing the TriCycLe and FCL structural models.
//!
//! This is a miniature, single-dataset version of the paper's Tables 2–5,
//! driven by the `agmdp-eval` experiment harness: the plan below is the
//! programmatic twin of a `.plan` file (see `plans/default.plan` for the
//! committed full grid and `docs/EVALUATION.md` for the written-up results).
//!
//! ```text
//! cargo run --release --example privacy_sweep
//! ```

use agmdp::prelude::*;

fn main() {
    // The old ad-hoc loop of this example is now a declarative plan: one
    // dataset, the paper's small-ε grid plus the non-private baseline, both
    // structural models, three repetitions per cell.
    let mut plan = EvalPlan::new("privacy-sweep");
    plan.datasets.push(DatasetRef::synthetic("lastfm", 0.5, 11));
    plan.epsilons = vec![
        EpsilonSpec::non_private(),
        EpsilonSpec::dp(3f64.ln()),
        EpsilonSpec::dp(2f64.ln()),
        EpsilonSpec::dp(0.3),
        EpsilonSpec::dp(0.2),
    ];
    plan.models = vec![
        StructuralModelKind::Fcl.into(),
        StructuralModelKind::TriCycLe.into(),
    ];
    plan.repetitions = 3;
    plan.seed = 23;
    plan.metrics = vec![
        "attr_edge_hellinger".to_string(),
        "ks_degree".to_string(),
        "hellinger_degree".to_string(),
        "triangle_count_re".to_string(),
        "edge_count_re".to_string(),
    ];

    let report = plan.run().expect("plan runs");
    print!("{}", report.to_text_table());

    println!();
    println!("Expected shape (paper, Tables 2-5): errors grow as epsilon shrinks; the TriCycLe");
    println!("rows keep the triangle-count error far below the FCL rows at every privacy level.");
    println!("Re-run `agmdp evaluate --plan plans/default.plan` for the committed full grid.");
}
