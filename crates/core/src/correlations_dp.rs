//! `LearnCorrelationsDP` — differentially private estimation of the
//! attribute–edge correlation distribution `Θ_F`.
//!
//! Changing one node's attribute vector can shift up to `2 · degree` mass
//! between the edge-configuration counts `Q_F`, so the naïve global
//! sensitivity is `2n − 2`. The paper's main approach (Section 3.1,
//! Algorithm 4) first applies the edge-truncation operator µ(G, k), and
//! Proposition 1 bounds the sensitivity of `Q_F` on the truncated graph by
//! the paper's constant `2k + 1`. The code calibrates to `2k` — Laplace
//! noise of scale `2k/ε` — and enforces `k ≥ 2` ([`MIN_TRUNCATION_K`]),
//! because `2k` fails at `k = 1`: for G = {(0,3), (1,2)} with attributes
//! (1,0,0,1), adding the edge (1,3) moves the truncated `Q_F` from
//! `[1, 0, 1]` to `[0, 1, 0]`, an L1 change of 3 (see `k_one_breaks_the_2k_bound`). The
//! heuristic `k = ⌈n^(1/3)⌉` is at least 2 for every graph with an edge.
//! Appendix B describes two alternatives — smooth sensitivity and
//! sample-and-aggregate — and Figure 5 compares all of them against the naïve
//! Laplace baseline. All four are implemented here behind
//! [`CorrelationMethod`] so the Figure 1 / Figure 5 experiments can sweep
//! them uniformly.

use rand::seq::SliceRandom;
use rand::Rng;

use agmdp_graph::subgraph::{induced_subgraph, partition_nodes};
use agmdp_graph::truncation::{edge_truncation, heuristic_k};
use agmdp_graph::{GraphView, NodeId};
use agmdp_privacy::laplace::LaplaceMechanism;
use agmdp_privacy::postprocess::normalize;
use agmdp_privacy::sample_aggregate::sample_and_aggregate_distribution;
use agmdp_privacy::smooth::{beta, smooth_sensitivity_qf, SmoothLaplaceMechanism};

use crate::error::CoreError;
use crate::params::{edge_config_counts, ThetaF};
use crate::Result;

/// Which estimator to use for `Θ_F`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorrelationMethod {
    /// Edge truncation + Laplace noise (Algorithm 4). `k = None` uses the
    /// data-independent heuristic `k = ⌈n^(1/3)⌉` recommended in Section 3.1;
    /// an explicit `k` must be at least [`MIN_TRUNCATION_K`].
    EdgeTruncation {
        /// Explicit truncation parameter, or `None` for the heuristic.
        k: Option<usize>,
    },
    /// Smooth sensitivity with Laplace noise — satisfies (ε, δ)-DP
    /// (Appendix B.1).
    SmoothSensitivity {
        /// The δ of the (ε, δ) guarantee.
        delta: f64,
    },
    /// Sample-and-aggregate over induced subgraphs of `group_size` nodes
    /// (Appendix B.2).
    SampleAggregate {
        /// Number of nodes per group.
        group_size: usize,
    },
    /// The naïve Laplace baseline with sensitivity `2n − 2` (the dashed line
    /// of Figure 5).
    NaiveLaplace,
}

impl Default for CorrelationMethod {
    fn default() -> Self {
        CorrelationMethod::EdgeTruncation { k: None }
    }
}

/// The smallest truncation parameter the `Lap(2k/ε)` calibration of
/// [`learn_correlations_truncated`] holds for (see the module docs).
pub const MIN_TRUNCATION_K: usize = 2;

impl CorrelationMethod {
    /// Builds a method from the user-facing token and shared parameters, as
    /// accepted by both the CLI (`--method`/`--k`) and the service API
    /// (`"method"`/`"k"`/`"delta"`): `k` parameterises truncation (or, reused,
    /// the sample-aggregate group size), `delta` the smooth-sensitivity
    /// (ε, δ) guarantee. A truncation `k` below [`MIN_TRUNCATION_K`] is
    /// rejected here, before any ε is drawn.
    pub fn from_parts(
        name: &str,
        k: Option<usize>,
        delta: f64,
    ) -> std::result::Result<Self, String> {
        match name {
            "truncation" => match k {
                Some(k) if k < MIN_TRUNCATION_K => Err(format!(
                    "truncation parameter k must be at least {MIN_TRUNCATION_K}, got {k}"
                )),
                _ => Ok(CorrelationMethod::EdgeTruncation { k }),
            },
            "smooth" => Ok(CorrelationMethod::SmoothSensitivity { delta }),
            "sample-aggregate" => Ok(CorrelationMethod::SampleAggregate {
                group_size: k.unwrap_or(32).max(2),
            }),
            "naive" => Ok(CorrelationMethod::NaiveLaplace),
            other => Err(format!("unknown correlation method '{other}'")),
        }
    }
}

/// Learns a differentially private estimate of `Θ_F` with the chosen method.
///
/// Edge truncation, sample-and-aggregate and the naïve baseline satisfy pure
/// ε-DP; the smooth-sensitivity method satisfies (ε, δ)-DP.
pub fn learn_correlations_dp<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    method: CorrelationMethod,
    rng: &mut R,
) -> Result<ThetaF> {
    match method {
        CorrelationMethod::EdgeTruncation { k } => {
            let k = k.unwrap_or_else(|| heuristic_k(graph.num_nodes()));
            learn_correlations_truncated(graph, epsilon, k, rng)
        }
        CorrelationMethod::SmoothSensitivity { delta } => {
            learn_correlations_smooth(graph, epsilon, delta, rng)
        }
        CorrelationMethod::SampleAggregate { group_size } => {
            learn_correlations_sample_aggregate(graph, epsilon, group_size, rng)
        }
        CorrelationMethod::NaiveLaplace => learn_correlations_naive(graph, epsilon, rng),
    }
}

/// Algorithm 4: truncate to a `k`-bounded graph, count `Q_F`, add `Lap(2k/ε)`
/// noise, clamp negatives away and normalise. `k` must be at least
/// [`MIN_TRUNCATION_K`].
pub fn learn_correlations_truncated<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    k: usize,
    rng: &mut R,
) -> Result<ThetaF> {
    if k < MIN_TRUNCATION_K {
        return Err(CoreError::InvalidConfig(format!(
            "truncation parameter k must be at least {MIN_TRUNCATION_K}, got {k}"
        )));
    }
    // Sensitivity 2k for k ≥ 2 (Proposition 1; see the module docs).
    let mech = LaplaceMechanism::new(epsilon, 2.0 * k as f64)?;
    let truncated = edge_truncation(graph, k).graph;
    let counts = edge_config_counts(&truncated);
    let noisy = mech.randomize_vec(&counts, rng);
    // Negative noisy counts are clamped to zero before normalising (free
    // post-processing). Unlike the Q_X counts, per-configuration edge counts
    // can legitimately exceed n, so no upper clamp is applied.
    let probabilities = normalize(&noisy);
    ThetaF::new(graph.schema(), probabilities)
}

/// Appendix B.1: exact `Q_F` counts with Laplace noise calibrated to the
/// β-smooth sensitivity of Corollary 5 (an (ε, δ)-DP mechanism).
pub fn learn_correlations_smooth<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
) -> Result<ThetaF> {
    let b = beta(epsilon, delta)?;
    let s_star = smooth_sensitivity_qf(graph.max_degree(), graph.num_nodes(), b).max(1e-9);
    let mech = SmoothLaplaceMechanism::new(epsilon, delta, s_star)?;
    let counts = edge_config_counts(graph);
    let noisy = mech.randomize_vec(&counts, rng);
    // Negative noisy counts are clamped to zero before normalising (free
    // post-processing). Unlike the Q_X counts, per-configuration edge counts
    // can legitimately exceed n, so no upper clamp is applied.
    let probabilities = normalize(&noisy);
    ThetaF::new(graph.schema(), probabilities)
}

/// Appendix B.2: random node partition, per-group `Θ_F` on induced subgraphs,
/// noisy average (sensitivity `2/t`), re-normalised.
pub fn learn_correlations_sample_aggregate<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    group_size: usize,
    rng: &mut R,
) -> Result<ThetaF> {
    if group_size == 0 || group_size > graph.num_nodes() {
        return Err(CoreError::InvalidConfig(format!(
            "sample-and-aggregate group size {group_size} must lie in 1..=n (n = {})",
            graph.num_nodes()
        )));
    }
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(rng);
    let groups = partition_nodes(&order, group_size);
    let num_configs = graph.schema().num_edge_configs();
    let mut per_group = Vec::with_capacity(groups.len());
    for group in &groups {
        let (sub, _) = induced_subgraph(graph, group);
        let counts = edge_config_counts(&sub);
        let dist = if sub.num_edges() == 0 {
            vec![1.0 / num_configs as f64; num_configs]
        } else {
            normalize(&counts)
        };
        per_group.push(dist);
    }
    let probabilities = sample_and_aggregate_distribution(&per_group, epsilon, rng)?;
    ThetaF::new(graph.schema(), probabilities)
}

/// The naïve Laplace baseline: exact `Q_F` counts with noise calibrated to the
/// worst-case global sensitivity `2n − 2`.
pub fn learn_correlations_naive<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    epsilon: f64,
    rng: &mut R,
) -> Result<ThetaF> {
    let sensitivity = (2.0 * graph.num_nodes() as f64 - 2.0).max(2.0);
    let mech = LaplaceMechanism::new(epsilon, sensitivity)?;
    let counts = edge_config_counts(graph);
    let noisy = mech.randomize_vec(&counts, rng);
    // Negative noisy counts are clamped to zero before normalising (free
    // post-processing). Unlike the Q_X counts, per-configuration edge counts
    // can legitimately exceed n, so no upper clamp is applied.
    let probabilities = normalize(&noisy);
    ThetaF::new(graph.schema(), probabilities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::edge_config_counts;
    use agmdp_datasets::toy_social_graph;
    use agmdp_graph::{AttributeSchema, AttributedGraph};
    use agmdp_metrics::distance::mean_absolute_error;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth(graph: &AttributedGraph) -> ThetaF {
        ThetaF::from_graph(graph)
    }

    fn mae_of_method(
        graph: &AttributedGraph,
        epsilon: f64,
        method: CorrelationMethod,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let exact = truth(graph);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..trials)
            .map(|_| {
                let est = learn_correlations_dp(graph, epsilon, method, &mut rng).unwrap();
                mean_absolute_error(exact.probabilities(), est.probabilities())
            })
            .sum::<f64>()
            / trials as f64
    }

    #[test]
    fn all_methods_return_distributions() {
        let g = toy_social_graph();
        let mut rng = StdRng::seed_from_u64(1);
        for method in [
            CorrelationMethod::EdgeTruncation { k: None },
            CorrelationMethod::EdgeTruncation { k: Some(5) },
            CorrelationMethod::SmoothSensitivity { delta: 0.01 },
            CorrelationMethod::SampleAggregate { group_size: 6 },
            CorrelationMethod::NaiveLaplace,
        ] {
            let tf = learn_correlations_dp(&g, 1.0, method, &mut rng).unwrap();
            assert_eq!(tf.probabilities().len(), 10);
            assert!((tf.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(tf.probabilities().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let g = toy_social_graph();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(learn_correlations_truncated(&g, 1.0, 0, &mut rng).is_err());
        assert!(learn_correlations_truncated(&g, 1.0, 1, &mut rng).is_err());
        assert!(learn_correlations_truncated(&g, 1.0, 2, &mut rng).is_ok());
        assert!(learn_correlations_dp(&g, 0.0, CorrelationMethod::default(), &mut rng).is_err());
        assert!(learn_correlations_smooth(&g, 1.0, 0.0, &mut rng).is_err());
        assert!(learn_correlations_sample_aggregate(&g, 1.0, 0, &mut rng).is_err());
        assert!(learn_correlations_sample_aggregate(&g, 1.0, g.num_nodes() + 1, &mut rng).is_err());
    }

    /// The counterexample behind [`MIN_TRUNCATION_K`]: at k = 1 one added
    /// edge moves the truncated Q_F by 3, more than the calibrated 2k = 2.
    #[test]
    fn k_one_breaks_the_2k_bound() {
        let graph = |edges: &[(u32, u32)]| {
            let mut g = AttributedGraph::new(4, AttributeSchema::new(1));
            g.set_all_attribute_codes(&[1, 0, 0, 1]).unwrap();
            for &(u, v) in edges {
                g.add_edge(u, v).unwrap();
            }
            g
        };
        let qf = |g: &AttributedGraph| edge_config_counts(&edge_truncation(g, 1).graph);
        let before = qf(&graph(&[(0, 3), (1, 2)]));
        let after = qf(&graph(&[(0, 3), (1, 2), (1, 3)]));
        assert_eq!(before, [1.0, 0.0, 1.0]);
        assert_eq!(after, [0.0, 1.0, 0.0]);
        let l1: f64 = before.iter().zip(&after).map(|(a, b)| (a - b).abs()).sum();
        assert_eq!(l1, 3.0);
        assert!(l1 > 2.0 * 1.0);
    }

    #[test]
    fn from_parts_rejects_truncation_k_below_two() {
        for k in [0, 1] {
            assert!(CorrelationMethod::from_parts("truncation", Some(k), 1e-6).is_err());
        }
        assert_eq!(
            CorrelationMethod::from_parts("truncation", Some(2), 1e-6),
            Ok(CorrelationMethod::EdgeTruncation { k: Some(2) })
        );
        assert_eq!(
            CorrelationMethod::from_parts("truncation", None, 1e-6),
            Ok(CorrelationMethod::default())
        );
        // The sample-aggregate group size reuses `k` and keeps its own floor.
        assert!(CorrelationMethod::from_parts("sample-aggregate", Some(1), 1e-6).is_ok());
    }

    #[test]
    fn truncation_recovers_truth_at_high_epsilon() {
        let g = toy_social_graph();
        // With k at least d_max, truncation deletes nothing.
        let k = g.max_degree();
        let mut rng = StdRng::seed_from_u64(3);
        let tf = learn_correlations_truncated(&g, 1e6, k, &mut rng).unwrap();
        let exact = truth(&g);
        assert!(mean_absolute_error(exact.probabilities(), tf.probabilities()) < 1e-3);
    }

    #[test]
    fn truncation_beats_naive_baseline() {
        // The headline claim behind Figure 5: edge truncation is far more
        // accurate than naive Laplace at the same epsilon.
        let g = agmdp_datasets::generate_dataset(
            &agmdp_datasets::DatasetSpec::lastfm().scaled(0.2),
            11,
        )
        .unwrap();
        let eps = 0.5;
        let trunc = mae_of_method(
            &g,
            eps,
            CorrelationMethod::EdgeTruncation { k: None },
            10,
            4,
        );
        let naive = mae_of_method(&g, eps, CorrelationMethod::NaiveLaplace, 10, 4);
        assert!(
            trunc < naive / 2.0,
            "edge truncation MAE {trunc} should be well below naive MAE {naive}"
        );
    }

    #[test]
    fn error_decreases_with_epsilon_for_truncation() {
        let g = toy_social_graph();
        let loose = mae_of_method(
            &g,
            0.1,
            CorrelationMethod::EdgeTruncation { k: Some(4) },
            40,
            5,
        );
        let tight = mae_of_method(
            &g,
            5.0,
            CorrelationMethod::EdgeTruncation { k: Some(4) },
            40,
            5,
        );
        assert!(tight < loose);
    }

    #[test]
    fn sample_aggregate_recovers_a_concentrated_distribution() {
        // A graph whose true Theta_F is maximally concentrated (every node has
        // the same attribute configuration): the S&A estimate must land far
        // closer to that point mass than the uniform guess, demonstrating that
        // the per-group averaging is unbiased. (Its estimation-vs-noise
        // trade-off on realistic graphs is what Figure 5 / `exp_fig5` sweeps.)
        use rand::Rng as _;
        let n = 400usize;
        let schema = agmdp_graph::AttributeSchema::new(2);
        let mut g = AttributedGraph::new(n, schema);
        let mut build_rng = StdRng::seed_from_u64(40);
        while g.num_edges() < 2_000 {
            let u = build_rng.gen_range(0..n as u32);
            let v = build_rng.gen_range(0..n as u32);
            if u != v {
                let _ = g.try_add_edge(u, v).unwrap();
            }
        }
        let exact = truth(&g);
        let uniform = vec![0.1; 10];
        let uniform_mae = mean_absolute_error(exact.probabilities(), &uniform);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 5;
        let mae: f64 = (0..trials)
            .map(|_| {
                let est = learn_correlations_sample_aggregate(&g, 2.0, 40, &mut rng).unwrap();
                mean_absolute_error(exact.probabilities(), est.probabilities())
            })
            .sum::<f64>()
            / trials as f64;
        assert!(
            mae < uniform_mae / 2.0,
            "S&A MAE {mae} should be well below the uniform baseline {uniform_mae}"
        );
    }

    #[test]
    fn smooth_sensitivity_tracks_epsilon() {
        let g = toy_social_graph();
        let loose = mae_of_method(
            &g,
            0.1,
            CorrelationMethod::SmoothSensitivity { delta: 0.01 },
            40,
            7,
        );
        let tight = mae_of_method(
            &g,
            5.0,
            CorrelationMethod::SmoothSensitivity { delta: 0.01 },
            40,
            7,
        );
        assert!(tight < loose);
    }
}
