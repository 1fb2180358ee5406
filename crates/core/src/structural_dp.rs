//! `FitTriCycLeDP` — Algorithm 6 of the paper (Appendix C.3).
//!
//! TriCycLe needs two statistics from the input graph: the degree sequence `S`
//! and the triangle count `n_Δ`. Both have accurate DP estimators:
//!
//! * the degree sequence is sorted, perturbed with `Lap(2/ε_S)` noise and
//!   repaired with Hay et al.'s constrained inference (isotonic regression),
//! * the triangle count is estimated with the Ladder framework of Zhang et al.
//!
//! By sequential composition the pair satisfies `(ε_S + ε_Δ)`-DP. The FCL
//! variant only needs the degree sequence and spends its whole budget there.

use rand::Rng;

use agmdp_graph::GraphView;
use agmdp_privacy::constrained_inference::dp_degree_sequence;
use agmdp_privacy::ladder::ladder_triangle_count;

use crate::error::CoreError;
use crate::params::ThetaM;
use crate::statistics::FitStatistics;
use crate::Result;

/// Learns TriCycLe's structural parameters `Θ_M = {S̄, ñ_Δ}` under
/// `(epsilon_degrees + epsilon_triangles)`-differential privacy (Algorithm 6),
/// reading the sorted degrees and the Ladder's triangle statistics from
/// `statistics`, the graph's fit statistics.
pub(crate) fn fit_tricycle_cached<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    statistics: &FitStatistics,
    epsilon_degrees: f64,
    epsilon_triangles: f64,
    rng: &mut R,
) -> Result<ThetaM> {
    let ThetaM {
        degree_sequence, ..
    } = fit_fcl_cached(graph, statistics, epsilon_degrees, rng)?;
    let ladder = ladder_triangle_count(&statistics.triangles(graph), epsilon_triangles, rng)?;
    Ok(ThetaM {
        degree_sequence,
        triangles: Some(ladder.estimate.round().max(0.0) as u64),
    })
}

/// Learns the FCL structural parameters (degree sequence only) under
/// `epsilon`-differential privacy, using the same constrained-inference
/// estimator on the sorted degrees from `statistics`.
pub(crate) fn fit_fcl_cached<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    statistics: &FitStatistics,
    epsilon: f64,
    rng: &mut R,
) -> Result<ThetaM> {
    if graph.num_nodes() == 0 {
        return Err(CoreError::UnusableInput("graph has no nodes".to_string()));
    }
    // The estimator sorts its input, so sorted degrees give the same draws.
    let degree_sequence = dp_degree_sequence(statistics.sorted_degrees(graph), epsilon, rng)?;
    Ok(ThetaM {
        degree_sequence,
        triangles: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::toy_social_graph;
    use agmdp_graph::triangles::count_triangles;
    use agmdp_graph::AttributedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tricycle_fit_has_both_parameters() {
        let g = toy_social_graph();
        let statistics = FitStatistics::new();
        let mut rng = StdRng::seed_from_u64(1);
        let theta_m = fit_tricycle_cached(&g, &statistics, 0.5, 0.5, &mut rng).unwrap();
        assert_eq!(theta_m.degree_sequence.len(), g.num_nodes());
        assert!(theta_m.triangles.is_some());
        // Sorted output from constrained inference.
        for w in theta_m.degree_sequence.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn fcl_fit_has_no_triangles() {
        let g = toy_social_graph();
        let statistics = FitStatistics::new();
        let mut rng = StdRng::seed_from_u64(2);
        let theta_m = fit_fcl_cached(&g, &statistics, 1.0, &mut rng).unwrap();
        assert!(theta_m.triangles.is_none());
        assert_eq!(theta_m.degree_sequence.len(), g.num_nodes());
    }

    #[test]
    fn high_epsilon_matches_exact_statistics() {
        let g = toy_social_graph();
        let statistics = FitStatistics::new();
        let mut rng = StdRng::seed_from_u64(3);
        let theta_m = fit_tricycle_cached(&g, &statistics, 1e6, 1e6, &mut rng).unwrap();
        let mut exact = g.degrees();
        exact.sort_unstable();
        assert_eq!(theta_m.degree_sequence, exact);
        let true_triangles = count_triangles(&g);
        let est = theta_m.triangles.unwrap() as f64;
        assert!((est - true_triangles as f64).abs() <= 3.0);
    }

    #[test]
    fn edge_count_is_roughly_preserved() {
        let g = toy_social_graph();
        let statistics = FitStatistics::new();
        let mut rng = StdRng::seed_from_u64(4);
        let theta_m = fit_tricycle_cached(&g, &statistics, 2.0, 2.0, &mut rng).unwrap();
        let implied = theta_m.implied_edges() as f64;
        let m = g.num_edges() as f64;
        assert!(
            (implied - m).abs() / m < 0.25,
            "implied edges {implied} vs true {m}"
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let empty = AttributedGraph::unattributed(0);
        let mut rng = StdRng::seed_from_u64(5);
        let statistics = FitStatistics::new();
        assert!(fit_tricycle_cached(&empty, &statistics, 1.0, 1.0, &mut rng).is_err());
        assert!(fit_fcl_cached(&empty, &statistics, 1.0, &mut rng).is_err());
        let g = toy_social_graph();
        let statistics = FitStatistics::new();
        assert!(fit_tricycle_cached(&g, &statistics, 0.0, 1.0, &mut rng).is_err());
        assert!(fit_tricycle_cached(&g, &statistics, 1.0, 0.0, &mut rng).is_err());
        assert!(fit_fcl_cached(&g, &statistics, -1.0, &mut rng).is_err());
    }
}
