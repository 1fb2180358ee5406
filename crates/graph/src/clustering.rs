//! Local and global clustering coefficients.
//!
//! Section 5.1 of the paper evaluates synthetic graphs with two clustering
//! measures: the *global clustering coefficient* (transitivity)
//! `C(G) = 3 n_Δ / n_W`, and the *average of the local clustering
//! coefficients* `C̄ = (1/n) Σ_i C_i` with
//! `C_i = 2 |{e_jk : v_j, v_k ∈ Γ(v_i)}| / (d_i (d_i - 1))`.
//! Figure 3 additionally plots the CCDF of the local coefficients.

use crate::triangles::{count_triangles, count_wedges, triangles_per_node};
use crate::view::GraphView;

/// The triangle count `n_Δ`, average local clustering `C̄` and global
/// clustering `C` of one graph, from a single [`triangles_per_node`] pass.
///
/// Each value is bit-identical to its standalone function
/// ([`count_triangles`], [`average_local_clustering`],
/// [`global_clustering`]): all three share the arithmetic below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringSummary {
    /// Number of triangles, `n_Δ`.
    pub triangles: u64,
    /// Average of the local clustering coefficients, `C̄`.
    pub average_local: f64,
    /// Global clustering coefficient (transitivity), `C`.
    pub global: f64,
}

impl ClusteringSummary {
    /// Counts the triangles at every node of `g` once and derives all three
    /// statistics from those counts.
    #[must_use]
    pub fn of<G: GraphView>(g: &G) -> Self {
        let per_node = triangles_per_node(g);
        // Every triangle is counted once at each of its three corners.
        let triangles = per_node.iter().sum::<u64>() / 3;
        Self {
            triangles,
            average_local: mean_local_coefficient(g, &per_node),
            global: transitivity(triangles, count_wedges(g)),
        }
    }
}

/// `C_i` of a node of degree `degree` in `triangles` triangles (`0` below
/// degree 2).
fn local_coefficient(triangles: u64, degree: usize) -> f64 {
    if degree < 2 {
        0.0
    } else {
        2.0 * triangles as f64 / (degree as f64 * (degree as f64 - 1.0))
    }
}

/// `C̄` from per-node triangle counts (`0` on the empty graph).
fn mean_local_coefficient<G: GraphView>(g: &G, per_node: &[u64]) -> f64 {
    if g.num_nodes() == 0 {
        return 0.0;
    }
    g.nodes()
        .map(|v| local_coefficient(per_node[v as usize], g.degree(v)))
        .sum::<f64>()
        / g.num_nodes() as f64
}

/// `C = 3 n_Δ / n_W` (`0` when the graph has no wedges).
fn transitivity(triangles: u64, wedges: u64) -> f64 {
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

/// Local clustering coefficient of every node.
///
/// Nodes with degree `< 2` have a local coefficient of `0`, following the
/// convention used by the paper's evaluation (they contribute no wedges).
#[must_use]
pub fn local_clustering_coefficients<G: GraphView>(g: &G) -> Vec<f64> {
    let tri = triangles_per_node(g);
    g.nodes()
        .map(|v| local_coefficient(tri[v as usize], g.degree(v)))
        .collect()
}

/// Average of the local clustering coefficients, `C̄`.
#[must_use]
pub fn average_local_clustering<G: GraphView>(g: &G) -> f64 {
    mean_local_coefficient(g, &triangles_per_node(g))
}

/// Global clustering coefficient (transitivity), `C(G) = 3 n_Δ / n_W`.
///
/// Returns `0` when the graph has no wedges.
#[must_use]
pub fn global_clustering<G: GraphView>(g: &G) -> f64 {
    transitivity(count_triangles(g), count_wedges(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AttributedGraph;

    fn complete_graph(n: usize) -> AttributedGraph {
        let mut g = AttributedGraph::unattributed(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                g.add_edge(u, v).unwrap();
            }
        }
        g
    }

    #[test]
    fn complete_graph_has_clustering_one() {
        let g = complete_graph(5);
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
        assert!((average_local_clustering(&g) - 1.0).abs() < 1e-12);
        assert!(local_clustering_coefficients(&g)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn tree_has_clustering_zero() {
        let mut g = AttributedGraph::unattributed(6);
        for v in 1..6 {
            g.add_edge(0, v).unwrap();
        }
        assert_eq!(global_clustering(&g), 0.0);
        assert_eq!(average_local_clustering(&g), 0.0);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert_eq!(
            average_local_clustering(&AttributedGraph::unattributed(0)),
            0.0
        );
        assert_eq!(global_clustering(&AttributedGraph::unattributed(1)), 0.0);
        let mut pair = AttributedGraph::unattributed(2);
        pair.add_edge(0, 1).unwrap();
        assert_eq!(average_local_clustering(&pair), 0.0);
    }

    #[test]
    fn triangle_with_pendant() {
        // Triangle 0-1-2 plus pendant edge 2-3.
        let mut g = AttributedGraph::unattributed(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        let local = local_clustering_coefficients(&g);
        assert!((local[0] - 1.0).abs() < 1e-12);
        assert!((local[1] - 1.0).abs() < 1e-12);
        // Node 2 has degree 3 and 1 triangle among its neighbors: 2*1/(3*2) = 1/3.
        assert!((local[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local[3], 0.0);
        assert!((average_local_clustering(&g) - (1.0 + 1.0 + 1.0 / 3.0) / 4.0).abs() < 1e-12);
        // Transitivity: 3 triangles-as-closed-wedges / wedges = 3*1 / (1+1+3+0) = 3/5.
        assert!((global_clustering(&g) - 3.0 / 5.0).abs() < 1e-12);
    }
}
