//! `LearnAttributesDP` — Algorithm 5 of the paper.
//!
//! The attribute distribution `Θ_X` is learned by answering the `2^w`
//! node-configuration counting queries `Q_X` under the Laplace mechanism.
//! Changing one node's attribute vector moves one count down by one and
//! another up by one, and edge changes do not touch the counts at all, so the
//! global sensitivity is 2 under the paper's edge-adjacency notion
//! (Definition 1). The noisy counts are clamped to `(0, n)` and normalised —
//! free post-processing.

use rand::Rng;

use agmdp_graph::GraphView;
use agmdp_privacy::laplace::LaplaceMechanism;
use agmdp_privacy::postprocess::clamp_and_normalize;

use crate::params::{node_config_counts, ThetaX};
use crate::Result;

/// Global sensitivity of the `Q_X` counting queries (Theorem 8).
pub const QX_SENSITIVITY: f64 = 2.0;

/// Learns an ε-differentially private estimate of `Θ_X` (Algorithm 5).
pub fn learn_attributes_dp<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    rng: &mut R,
) -> Result<ThetaX> {
    let mech = LaplaceMechanism::new(epsilon, QX_SENSITIVITY)?;
    let counts = node_config_counts(graph);
    let noisy = mech.randomize_vec(&counts, rng);
    let probabilities = clamp_and_normalize(&noisy, graph.num_nodes() as f64);
    ThetaX::new(graph.schema(), probabilities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::{AttributeSchema, AttributedGraph};
    use agmdp_metrics::distance::mean_absolute_error;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph_with_codes(codes: &[u32], width: usize) -> AttributedGraph {
        let mut g = AttributedGraph::new(codes.len(), AttributeSchema::new(width));
        g.set_all_attribute_codes(codes).unwrap();
        g
    }

    #[test]
    fn output_is_a_distribution() {
        let g = graph_with_codes(&[0, 1, 2, 3, 0, 0], 2);
        let mut rng = StdRng::seed_from_u64(1);
        let tx = learn_attributes_dp(&g, 0.5, &mut rng).unwrap();
        assert_eq!(tx.probabilities().len(), 4);
        assert!((tx.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(tx.probabilities().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let g = graph_with_codes(&[0, 1], 1);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(learn_attributes_dp(&g, 0.0, &mut rng).is_err());
        assert!(learn_attributes_dp(&g, -1.0, &mut rng).is_err());
    }

    #[test]
    fn high_epsilon_recovers_exact_distribution() {
        let codes: Vec<u32> = (0..1_000).map(|i| (i % 4) as u32).collect();
        let g = graph_with_codes(&codes, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let tx = learn_attributes_dp(&g, 1e6, &mut rng).unwrap();
        for &p in tx.probabilities() {
            assert!((p - 0.25).abs() < 1e-3);
        }
    }

    #[test]
    fn error_decreases_with_epsilon_and_graph_size() {
        let exact = |n: usize| {
            let codes: Vec<u32> = (0..n).map(|i| u32::from(i % 10 == 0)).collect();
            graph_with_codes(&codes, 1)
        };
        let mae = |g: &AttributedGraph, eps: f64, seed: u64| {
            let truth = crate::params::ThetaX::from_graph(g);
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 60;
            (0..trials)
                .map(|_| {
                    let est = learn_attributes_dp(g, eps, &mut rng).unwrap();
                    mean_absolute_error(truth.probabilities(), est.probabilities())
                })
                .sum::<f64>()
                / trials as f64
        };
        let small = exact(200);
        let large = exact(5_000);
        // More budget -> less error.
        assert!(mae(&small, 2.0, 4) < mae(&small, 0.05, 4));
        // Larger graph -> better signal-to-noise at the same epsilon.
        assert!(mae(&large, 0.1, 5) < mae(&small, 0.1, 5));
    }
}
