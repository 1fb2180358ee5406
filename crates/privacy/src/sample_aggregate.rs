//! Sample-and-aggregate (Appendix B.2 of the paper).
//!
//! To estimate the attribute–edge correlation distribution `Θ_F` without
//! paying its large global sensitivity, the nodes are randomly partitioned
//! into `t = n / k` disjoint groups, the correlation *probabilities* are
//! computed on each group's induced subgraph, the per-group probability
//! vectors are averaged, and Laplace noise is added to the average. Changing
//! one node (its attributes or one incident edge) affects a single group's
//! probability vector by at most 2 in L1, so the sensitivity of the average is
//! `2 / t` and noise `Lap(2 / (t ε))` suffices for ε-DP.
//!
//! The graph-specific parts (partitioning the nodes, building induced
//! subgraphs, computing per-group `Θ_F`) live in `agmdp-graph` /
//! `agmdp-core`; this module provides the aggregation + noise step and is
//! agnostic to what the per-group vectors describe.

use rand::Rng;

use crate::error::PrivacyError;
use crate::laplace::LaplaceMechanism;
use crate::postprocess::normalize;
use crate::Result;

/// Averages per-group output vectors and adds Laplace noise calibrated to
/// `per_group_l1_sensitivity / num_groups`.
///
/// All group vectors must have the same length. The returned vector is the
/// *noisy average* (not yet normalised); [`sample_and_aggregate_distribution`]
/// is the public entry point that normalises it.
pub(crate) fn aggregate_with_noise<R: Rng + ?Sized>(
    group_outputs: &[Vec<f64>],
    per_group_l1_sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Result<Vec<f64>> {
    if group_outputs.is_empty() {
        return Err(PrivacyError::InvalidParameter(
            "sample-and-aggregate requires at least one group".to_string(),
        ));
    }
    let dim = group_outputs[0].len();
    if group_outputs.iter().any(|g| g.len() != dim) {
        return Err(PrivacyError::InvalidParameter(
            "all group output vectors must have the same length".to_string(),
        ));
    }
    let t = group_outputs.len() as f64;
    let mech = LaplaceMechanism::new(epsilon, per_group_l1_sensitivity / t)?;
    let mut mean = vec![0.0; dim];
    for group in group_outputs {
        for (m, &v) in mean.iter_mut().zip(group) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= t;
    }
    Ok(mech.randomize_vec(&mean, rng))
}

/// Sample-and-aggregate estimate of a probability distribution: averages the
/// per-group distributions, adds noise with per-group L1 sensitivity 2 (the
/// worst-case change of a probability vector), clamps negatives and
/// renormalises, exactly as Appendix B.2 describes for `Θ_F`.
pub fn sample_and_aggregate_distribution<R: Rng + ?Sized>(
    group_distributions: &[Vec<f64>],
    epsilon: f64,
    rng: &mut R,
) -> Result<Vec<f64>> {
    let noisy = aggregate_with_noise(group_distributions, 2.0, epsilon, rng)?;
    Ok(normalize(&noisy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validates_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(aggregate_with_noise(&[], 2.0, 1.0, &mut rng).is_err());
        assert!(aggregate_with_noise(&[vec![1.0], vec![1.0, 2.0]], 2.0, 1.0, &mut rng).is_err());
        assert!(aggregate_with_noise(&[vec![1.0]], 0.0, 1.0, &mut rng).is_err());
        assert!(aggregate_with_noise(&[vec![1.0]], 2.0, 0.0, &mut rng).is_err());
    }

    #[test]
    fn average_is_correct_with_negligible_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let groups = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.5, 0.5],
            vec![0.5, 0.5],
        ];
        let out = aggregate_with_noise(&groups, 2.0, 1e9, &mut rng).unwrap();
        assert!((out[0] - 0.5).abs() < 1e-6);
        assert!((out[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn more_groups_means_less_noise() {
        // With the same epsilon, averaging over more groups must shrink the
        // noise because the sensitivity is 2/t.
        let epsilon = 0.5;
        let dim = 8;
        let measure = |num_groups: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let groups = vec![vec![0.0; dim]; num_groups];
            let mut total = 0.0;
            for trial in 0..50 {
                let out = aggregate_with_noise(&groups, 2.0, epsilon, &mut rng).unwrap();
                let _ = trial;
                total += out.iter().map(|v| v.abs()).sum::<f64>();
            }
            total
        };
        let few = measure(2, 7);
        let many = measure(200, 7);
        assert!(
            many < few / 10.0,
            "noise with 200 groups ({many}) vs 2 groups ({few})"
        );
    }

    #[test]
    fn distribution_output_is_normalised() {
        let mut rng = StdRng::seed_from_u64(2);
        let groups = vec![vec![0.7, 0.2, 0.1]; 10];
        let out = sample_and_aggregate_distribution(&groups, 0.5, &mut rng).unwrap();
        assert_eq!(out.len(), 3);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn distribution_recovers_truth_with_many_groups_and_large_epsilon() {
        let mut rng = StdRng::seed_from_u64(3);
        let truth = vec![0.6, 0.3, 0.1];
        let groups = vec![truth.clone(); 100];
        let out = sample_and_aggregate_distribution(&groups, 1e6, &mut rng).unwrap();
        for (o, t) in out.iter().zip(&truth) {
            assert!((o - t).abs() < 1e-3);
        }
    }
}
