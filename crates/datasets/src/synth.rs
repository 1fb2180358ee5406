//! Synthetic dataset generator.
//!
//! Builds a connected, power-law, clustered, homophilous attributed graph that
//! approximates a [`DatasetSpec`]. The generator composes pieces that already
//! exist in the workspace: a calibrated power-law degree sequence, i.i.d.
//! attribute codes drawn from the spec's marginals, and the TriCycLe model
//! driven by a homophily acceptance filter so that same-configuration edges
//! are preferred — giving exactly the kind of attribute–edge correlation the
//! paper's AGM-DP is designed to learn and reproduce.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use agmdp_graph::{AttributeSchema, AttributedGraph};
use agmdp_models::acceptance::AcceptanceContext;
use agmdp_models::tricycle::TriCycLeModel;
use agmdp_models::{GenerateRequest, ModelError, StructuralModel};

use crate::spec::DatasetSpec;

/// Generates a synthetic attributed graph approximating `spec`,
/// deterministically from `seed`.
pub fn generate_dataset(spec: &DatasetSpec, seed: u64) -> Result<AttributedGraph, ModelError> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let width = spec.attribute_width();
    if 1usize << width != spec.attribute_marginals.len() {
        return Err(ModelError::InvalidParameter(format!(
            "attribute marginal vector length {} is not a power of two",
            spec.attribute_marginals.len()
        )));
    }
    let schema = AttributeSchema::new(width);

    let degrees = power_law_degrees(spec.nodes, 2 * spec.edges, spec.max_degree, &mut rng);
    let codes = sample_attribute_codes(&spec.attribute_marginals, spec.nodes, &mut rng);
    let acceptance = homophily_acceptance(schema, spec.homophily);
    let ctx = AcceptanceContext::new(codes, schema, acceptance)?;

    let model = TriCycLeModel::new(degrees, spec.triangles)?
        .with_orphan_extension(true)
        .with_max_iteration_factor(20);
    // The serial sampler (no policy): every dataset, golden and benchmark
    // input is pinned to its draw sequence.
    let request = GenerateRequest {
        acceptance: Some(&ctx),
        ..GenerateRequest::default()
    };
    model.generate(&request, &mut rng)
}

/// Samples a power-law-like degree sequence with the given total, maximum
/// degree and minimum degree 1, then repairs the total exactly.
pub(crate) fn power_law_degrees<R: Rng + ?Sized>(
    n: usize,
    target_total: usize,
    max_degree: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(n > 0, "degree sequence needs at least one node");
    let max_degree = max_degree.clamp(1, n.saturating_sub(1).max(1));
    const GAMMA: f64 = 2.5;
    // Raw Pareto-like draws with exponent GAMMA, minimum 1.
    let mut raw: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            u.powf(-1.0 / (GAMMA - 1.0))
        })
        .collect();
    // Rescale so the expected total matches, then clamp and round.
    let raw_sum: f64 = raw.iter().sum();
    let scale = target_total as f64 / raw_sum;
    for d in &mut raw {
        *d = (*d * scale).round().clamp(1.0, max_degree as f64);
    }
    let mut degrees: Vec<usize> = raw.iter().map(|&d| d as usize).collect();
    // Pin the largest entry to the requested maximum degree (Table 6 reports
    // a specific hub size).
    if let Some(idx) = (0..n).max_by_key(|&i| degrees[i]) {
        degrees[idx] = max_degree;
    }
    // Repair the total to exactly `target_total` (respecting [1, max_degree]).
    let mut total: isize = degrees.iter().sum::<usize>() as isize;
    let target = target_total as isize;
    let mut guard = 0usize;
    while total != target && guard < 20 * n + 1_000 {
        guard += 1;
        let i = rng.gen_range(0..n);
        if total < target && degrees[i] < max_degree {
            degrees[i] += 1;
            total += 1;
        } else if total > target && degrees[i] > 1 {
            degrees[i] -= 1;
            total -= 1;
        }
    }
    degrees
}

/// Samples `n` attribute codes i.i.d. from the given marginal distribution.
pub(crate) fn sample_attribute_codes<R: Rng + ?Sized>(
    marginals: &[f64],
    n: usize,
    rng: &mut R,
) -> Vec<u32> {
    let total: f64 = marginals.iter().sum();
    (0..n)
        .map(|_| {
            let mut target = rng.gen::<f64>() * total;
            for (code, &p) in marginals.iter().enumerate() {
                if target < p {
                    return code as u32;
                }
                target -= p;
            }
            (marginals.len() - 1) as u32
        })
        .collect()
}

/// Builds the homophily acceptance vector: same-configuration edges are always
/// accepted, mixed-configuration edges with probability `1 − homophily`.
pub(crate) fn homophily_acceptance(schema: AttributeSchema, homophily: f64) -> Vec<f64> {
    let homophily = homophily.clamp(0.0, 1.0);
    (0..schema.num_edge_configs())
        .map(|idx| {
            let (a, b) = schema.edge_config_pair(idx).expect("index in range");
            if a == b {
                1.0
            } else {
                (1.0 - homophily).max(0.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::clustering::average_local_clustering;
    use agmdp_graph::components::is_connected;
    use agmdp_graph::triangles::count_triangles;
    use agmdp_graph::GraphView;
    use rand::rngs::StdRng;

    #[test]
    fn power_law_degrees_hit_total_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let degrees = power_law_degrees(500, 3_500, 60, &mut rng);
        assert_eq!(degrees.len(), 500);
        assert_eq!(degrees.iter().sum::<usize>(), 3_500);
        assert_eq!(degrees.iter().copied().max().unwrap(), 60);
        assert!(degrees.iter().all(|&d| d >= 1));
        // Heavy tail: many more low-degree than high-degree nodes.
        let low = degrees.iter().filter(|&&d| d <= 5).count();
        let high = degrees.iter().filter(|&&d| d >= 30).count();
        assert!(low > 5 * high.max(1));
    }

    #[test]
    fn attribute_codes_follow_marginals() {
        let mut rng = StdRng::seed_from_u64(2);
        let marginals = [0.5, 0.3, 0.15, 0.05];
        let codes = sample_attribute_codes(&marginals, 40_000, &mut rng);
        for (code, &p) in marginals.iter().enumerate() {
            let freq = codes.iter().filter(|&&c| c == code as u32).count() as f64 / 40_000.0;
            assert!((freq - p).abs() < 0.02, "code {code}: {freq} vs {p}");
        }
    }

    #[test]
    fn homophily_acceptance_shape() {
        let schema = AttributeSchema::new(2);
        let acc = homophily_acceptance(schema, 0.6);
        assert_eq!(acc.len(), 10);
        for (idx, &p) in acc.iter().enumerate() {
            let (a, b) = schema.edge_config_pair(idx).unwrap();
            if a == b {
                assert_eq!(p, 1.0);
            } else {
                assert!((p - 0.4).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn generated_dataset_matches_spec_shape() {
        let spec = DatasetSpec::lastfm().scaled(0.15);
        let g = generate_dataset(&spec, 7).unwrap();
        assert_eq!(g.num_nodes(), spec.nodes);
        assert!(is_connected(&g));
        assert_eq!(g.schema().width(), 2);
        // Edge count within 15% of the target.
        let m = g.num_edges() as f64;
        assert!(
            (m - spec.edges as f64).abs() / spec.edges as f64 <= 0.15,
            "edges {m} vs spec {}",
            spec.edges
        );
        // Substantial clustering (the whole point of TriCycLe).
        assert!(count_triangles(&g) > 0);
        assert!(average_local_clustering(&g) > 0.02);
        g.check_consistency().unwrap();
    }

    #[test]
    fn generated_dataset_exhibits_homophily() {
        let spec = DatasetSpec::lastfm().scaled(0.15);
        let g = generate_dataset(&spec, 8).unwrap();
        let same = g
            .edges()
            .filter(|e| g.attribute_code(e.u) == g.attribute_code(e.v))
            .count() as f64;
        let frac_same = same / g.num_edges() as f64;
        // Under attribute independence the expected same-configuration edge
        // fraction is sum(p_i^2) ≈ 0.32 for the Last.fm marginals; homophily
        // must push it clearly higher.
        assert!(
            frac_same > 0.40,
            "same-attribute edge fraction {frac_same} shows no homophily"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = DatasetSpec::petster().scaled(0.1);
        let a = generate_dataset(&spec, 99).unwrap();
        let b = generate_dataset(&spec, 99).unwrap();
        assert_eq!(a.edge_vec(), b.edge_vec());
        assert_eq!(a.attribute_codes(), b.attribute_codes());
        let c = generate_dataset(&spec, 100).unwrap();
        assert_ne!(a.edge_vec(), c.edge_vec());
    }

    #[test]
    fn invalid_marginal_length_is_rejected() {
        let mut spec = DatasetSpec::lastfm().scaled(0.1);
        spec.attribute_marginals = vec![0.5, 0.3, 0.2];
        assert!(generate_dataset(&spec, 1).is_err());
    }
}
