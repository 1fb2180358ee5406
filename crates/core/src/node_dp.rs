//! Node-differential-privacy extension (Section 7, "Node Differential Privacy").
//!
//! Under node-DP, neighboring graphs differ in one node together with **all**
//! of its incident edges (and its attribute vector) — a much stronger
//! adjacency notion than Definition 1. The paper sketches a preliminary
//! experiment: keep the edge-truncation approach for `Θ_F`, but calibrate the
//! noise to the *smooth sensitivity in the node-adjacency model* with a fixed
//! δ, and reports that the resulting Hellinger distances still beat the
//! uniform baseline for moderate ε.
//!
//! The paper does not spell out the sensitivity derivation, so this module
//! documents the conservative reading we implement:
//!
//! * after truncation to a `k`-bounded graph, a single node contributes at
//!   most `k` edges and one attribute vector, so flipping the node moves at
//!   most `2k` mass through its attribute change and at most `2k` additional
//!   mass through its incident edges — `4k` at distance zero;
//! * each further node change (distance `t`) adds at most another `2k`,
//!   and everything is capped by the trivial bound `2n − 2`;
//! * hence we use the local-sensitivity profile
//!   `LS^t = min(2k·(t + 2), 2n − 2)` and maximise `e^{−tβ}·LS^t` to obtain a
//!   β-smooth upper bound, adding Laplace noise of scale `2·S*/ε` for an
//!   (ε, δ) guarantee.
//!
//! This is intentionally conservative (an upper bound on the true smooth
//! sensitivity), matching the exploratory spirit of the paper's Section 7.

use rand::Rng;

use agmdp_graph::truncation::{edge_truncation, heuristic_k};
use agmdp_graph::GraphView;
use agmdp_privacy::postprocess::normalize;
use agmdp_privacy::smooth::{beta, smooth_bound, SmoothLaplaceMechanism};

use crate::error::CoreError;
use crate::params::{edge_config_counts, ThetaF};
use crate::Result;

/// Learns `Θ_F` under (ε, δ) node-differential privacy via edge truncation and
/// node-adjacency smooth sensitivity.
///
/// `k = None` uses the same `⌈n^(1/3)⌉` heuristic as the edge-DP learner.
pub fn learn_correlations_node_dp<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    delta: f64,
    k: Option<usize>,
    rng: &mut R,
) -> Result<ThetaF> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::UnusableInput("graph has no nodes".to_string()));
    }
    let k = k.unwrap_or_else(|| heuristic_k(n)).max(1);
    let b = beta(epsilon, delta)?;
    let cap = (2.0 * n as f64 - 2.0).max(2.0);
    let ls_profile = |t: usize| (2.0 * k as f64 * (t as f64 + 2.0)).min(cap);
    // The profile saturates once 2k(t + 2) >= 2n - 2.
    let t_saturation = ((cap / (2.0 * k as f64)).ceil() as usize).max(1);
    let s_star = smooth_bound(ls_profile, b, t_saturation).max(1e-9);
    let mech = SmoothLaplaceMechanism::new(epsilon, delta, s_star)?;

    let truncated = edge_truncation(graph, k).graph;
    let counts = edge_config_counts(&truncated);
    let noisy = mech.randomize_vec(&counts, rng);
    let probabilities = normalize(&noisy);
    ThetaF::new(graph.schema(), probabilities)
}

/// The node-adjacency smooth-sensitivity bound used by
/// [`learn_correlations_node_dp`], exposed for the Section 7 experiment
/// harness and for tests.
pub fn node_dp_smooth_sensitivity(n: usize, k: usize, epsilon: f64, delta: f64) -> Result<f64> {
    let b = beta(epsilon, delta)?;
    let cap = (2.0 * n as f64 - 2.0).max(2.0);
    let k = k.max(1);
    let ls_profile = |t: usize| (2.0 * k as f64 * (t as f64 + 2.0)).min(cap);
    let t_saturation = ((cap / (2.0 * k as f64)).ceil() as usize).max(1);
    Ok(smooth_bound(ls_profile, b, t_saturation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::toy_social_graph;
    use agmdp_graph::AttributedGraph;
    use agmdp_metrics::distance::hellinger_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_a_distribution() {
        let g = toy_social_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let tf = learn_correlations_node_dp(&g, 1.0, 0.01, None, &mut rng).unwrap();
        assert_eq!(tf.probabilities().len(), 10);
        assert!((tf.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sensitivity_bound_dominates_edge_dp_and_shrinks_with_larger_epsilon() {
        // Node-DP sensitivity must be at least the edge-DP sensitivity 2k.
        let s = node_dp_smooth_sensitivity(2_000, 12, 0.5, 0.01).unwrap();
        assert!(s >= 2.0 * 12.0);
        // It is capped by 2n - 2.
        let s_small = node_dp_smooth_sensitivity(20, 12, 0.5, 0.01).unwrap();
        assert!(s_small <= 2.0 * 20.0 - 2.0 + 1e-9);
        // Larger epsilon (larger beta) never increases the bound.
        let tight = node_dp_smooth_sensitivity(2_000, 12, 2.0, 0.01).unwrap();
        assert!(tight <= s + 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let g = toy_social_graph();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(learn_correlations_node_dp(&g, 0.0, 0.01, None, &mut rng).is_err());
        assert!(learn_correlations_node_dp(&g, 1.0, 0.0, None, &mut rng).is_err());
        let empty = AttributedGraph::unattributed(0);
        assert!(learn_correlations_node_dp(&empty, 1.0, 0.01, None, &mut rng).is_err());
    }

    #[test]
    fn node_dp_error_is_larger_than_edge_dp_but_beats_uniform_on_moderate_epsilon() {
        let spec = agmdp_datasets::DatasetSpec::lastfm().scaled(0.3);
        let g = agmdp_datasets::generate_dataset(&spec, 21).unwrap();
        let truth = ThetaF::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 10;
        // A moderate budget: the full per-dataset ε sweep lives in the
        // `exp_node_dp` experiment binary; this is a qualitative smoke check.
        let eps = 2.0;

        let mut h_node = 0.0;
        let mut h_edge = 0.0;
        for _ in 0..trials {
            let node = learn_correlations_node_dp(&g, eps, 0.01, None, &mut rng).unwrap();
            h_node += hellinger_distance(truth.probabilities(), node.probabilities());
            let edge = crate::correlations_dp::learn_correlations_dp(
                &g,
                eps,
                crate::correlations_dp::CorrelationMethod::EdgeTruncation { k: None },
                &mut rng,
            )
            .unwrap();
            h_edge += hellinger_distance(truth.probabilities(), edge.probabilities());
        }
        h_node /= trials as f64;
        h_edge /= trials as f64;
        let h_uniform = hellinger_distance(truth.probabilities(), &[0.1; 10]);
        assert!(
            h_edge <= h_node + 1e-9,
            "edge-DP ({h_edge}) should not be worse than node-DP ({h_node})"
        );
        assert!(
            h_node < h_uniform,
            "node-DP Hellinger {h_node} should still beat the uniform baseline {h_uniform} at eps = 2"
        );
    }
}
