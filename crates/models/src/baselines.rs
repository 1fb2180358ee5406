//! Baseline generators used to calibrate the error rates in Section 5.2.
//!
//! The paper compares the degree statistics of its synthetic graphs against a
//! baseline that "assigns edges to nodes uniformly at random" (an Erdős–Rényi
//! graph with the same number of edges), and the attribute–edge correlations
//! against a baseline that sets all correlation probabilities equal
//! (footnote 6: 0.1 each for w = 2 attributes).

use rand::Rng;
use rand::RngCore;

use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};

use crate::error::ModelError;
use crate::Result;

/// Generates a uniform-edge (Erdős–Rényi `G(n, m)`) graph with exactly
/// `num_edges` edges, or as many as fit (`C(n, 2)`).
pub fn uniform_edge_graph(
    num_nodes: usize,
    num_edges: usize,
    rng: &mut dyn RngCore,
) -> Result<AttributedGraph> {
    if num_nodes < 2 && num_edges > 0 {
        return Err(ModelError::InvalidParameter(
            "cannot place edges on fewer than two nodes".to_string(),
        ));
    }
    let max_edges = num_nodes * num_nodes.saturating_sub(1) / 2;
    let target = num_edges.min(max_edges);
    let mut g = AttributedGraph::new(num_nodes, AttributeSchema::new(0));
    let n = num_nodes as u32;
    let max_attempts = 100usize.saturating_mul(target).saturating_add(1_000);
    let mut attempts = 0usize;
    while g.num_edges() < target && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            let _ = g.try_add_edge(u, v).expect("nodes in range");
        }
    }
    // Dense corner case: finish deterministically if random sampling struggled.
    if g.num_edges() < target {
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if g.num_edges() >= target {
                    break 'outer;
                }
                let _ = g.try_add_edge(u, v).expect("nodes in range");
            }
        }
    }
    Ok(g)
}

/// The uniform attribute-correlation baseline: every one of the
/// `C(2^w + 1, 2)` edge configurations gets equal probability.
#[must_use]
pub fn uniform_correlation_distribution(schema: AttributeSchema) -> Vec<f64> {
    let k = schema.num_edge_configs();
    vec![1.0 / k as f64; k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_edge_graph_hits_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = uniform_edge_graph(100, 300, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 300);
        g.check_consistency().unwrap();
    }

    #[test]
    fn uniform_edge_graph_caps_at_complete_graph() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = uniform_edge_graph(5, 1_000, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn uniform_edge_graph_edge_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(uniform_edge_graph(1, 5, &mut rng).is_err());
        let empty = uniform_edge_graph(0, 0, &mut rng).unwrap();
        assert_eq!(empty.num_nodes(), 0);
        let no_edges = uniform_edge_graph(10, 0, &mut rng).unwrap();
        assert_eq!(no_edges.num_edges(), 0);
    }

    #[test]
    fn uniform_correlation_matches_paper_footnote() {
        // For w = 2 there are ten configurations, each with probability 0.1.
        let p = uniform_correlation_distribution(AttributeSchema::new(2));
        assert_eq!(p.len(), 10);
        assert!(p.iter().all(|&x| (x - 0.1).abs() < 1e-12));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
