//! Experiment: Figure 1 (Section 3.1) — the truncation-parameter heuristic.
//!
//! Reproduces the comparison between the *best* truncation parameter `k`
//! (found by sweeping a grid) and the data-independent heuristic
//! `k = ⌈n^(1/3)⌉`, measured as the mean absolute error of the private
//! attribute–edge correlation estimate Θ̃_F across ε ∈ {0.1, 0.2, 0.3, 0.5, 1}.
//!
//! ```text
//! cargo run -p agmdp-bench --release --bin exp_fig1 [-- --trials 20]
//! ```

use agmdp_bench::{load_datasets, maybe_write_json, mean, rng_for, ExperimentArgs, ResultRecord};
use agmdp_core::correlations_dp::learn_correlations_truncated;
use agmdp_core::ThetaF;
use agmdp_graph::truncation::heuristic_k;
use agmdp_graph::GraphView;
use agmdp_metrics::distance::mean_absolute_error;

const EPSILONS: [f64; 5] = [0.1, 0.2, 0.3, 0.5, 1.0];

fn main() {
    let args = ExperimentArgs::parse();
    let trials = args.trials.unwrap_or(20);
    let datasets = load_datasets(&args);
    let mut records = Vec::new();

    println!("\nFigure 1: MAE of Theta_F with the best k vs the heuristic k = ceil(n^(1/3))\n");
    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>10} {:>12}",
        "dataset", "epsilon", "best k", "MAE(best)", "heur k", "MAE(heur)"
    );

    for ds in &datasets {
        let truth = ThetaF::from_graph(&ds.graph);
        let heuristic = heuristic_k(ds.graph.num_nodes());
        // Candidate grid for the "best k" sweep: small constants up to d_max.
        let d_max = ds.graph.max_degree();
        let mut candidates: Vec<usize> =
            vec![2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512];
        candidates.retain(|&k| k <= d_max.max(2));
        candidates.push(heuristic);
        candidates.push(d_max.max(1));
        candidates.sort_unstable();
        candidates.dedup();

        let mut rng = rng_for(&args, &format!("fig1-{}", ds.spec.name));
        for &epsilon in &EPSILONS {
            let mae_for_k = |k: usize, rng: &mut rand::rngs::StdRng| {
                let errors: Vec<f64> = (0..trials)
                    .map(|_| {
                        let est = learn_correlations_truncated(&ds.graph, epsilon, k, rng)
                            .expect("estimation succeeds");
                        mean_absolute_error(truth.probabilities(), est.probabilities())
                    })
                    .collect();
                mean(&errors)
            };
            let mut best = (candidates[0], f64::INFINITY);
            for &k in &candidates {
                let mae = mae_for_k(k, &mut rng);
                if mae < best.1 {
                    best = (k, mae);
                }
            }
            let heuristic_mae = mae_for_k(heuristic, &mut rng);
            println!(
                "{:<16} {:>8} {:>10} {:>12.4} {:>10} {:>12.4}",
                ds.spec.name, epsilon, best.0, best.1, heuristic, heuristic_mae
            );
            records.push(
                ResultRecord::new("fig1", &ds.spec.name)
                    .with_param("epsilon", epsilon)
                    .with_metric("best_k", best.0 as f64)
                    .with_metric("mae_best_k", best.1)
                    .with_metric("heuristic_k", heuristic as f64)
                    .with_metric("mae_heuristic_k", heuristic_mae),
            );
        }
        println!();
    }
    println!("Expected shape (paper, Fig. 1): the heuristic k tracks the best k closely, and the");
    println!("gap shrinks with dataset size (negligible for the largest dataset).");
    maybe_write_json(&args, &records);
}
