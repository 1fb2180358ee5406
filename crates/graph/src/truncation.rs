//! Edge truncation µ(G, k) — Definition 2 of the paper (after Blocki et al.).
//!
//! The truncation operator projects an arbitrary graph onto the set `H_k` of
//! graphs with maximum degree at most `k`. It fixes a canonical ordering over
//! the edges (here: lexicographic on the normalised endpoint pair) and, walking
//! the edges in that order, deletes an edge if **either** endpoint currently
//! has degree greater than `k` (degrees are updated as deletions happen, which
//! is the reading required by the proof of Proposition 1: deleting earlier
//! edges can bring a node's degree back under the bound so later edges
//! survive).
//!
//! Proposition 1 bounds the global sensitivity of the attribute–edge
//! correlation counts `Q_F` on the truncated graph under the paper's
//! edge-adjacency notion (the paper's constant is `2k + 1`), which is what
//! makes the Laplace mechanism usable in `LearnCorrelationsDP`. The learner
//! in `agmdp-core` calibrates its noise to `2k` and enforces `k ≥ 2`: at
//! `k = 1` one added edge can move `Q_F` by 3 (a unit test in
//! `correlations_dp.rs` pins the counterexample). This operator itself
//! accepts any `k`.

use crate::graph::{AttributedGraph, Edge};
use crate::view::GraphView;

/// Result of a truncation run: the `k`-bounded graph plus bookkeeping that the
/// experiments (Figure 1) report.
#[derive(Debug, Clone)]
pub struct TruncationOutcome {
    /// The truncated, `k`-bounded graph (nodes and attributes unchanged).
    pub graph: AttributedGraph,
    /// Number of edges that were deleted by the projection.
    pub deleted_edges: usize,
    /// The truncation parameter that was applied.
    pub k: usize,
}

/// Applies the edge-truncation operator µ(G, k).
///
/// The canonical edge ordering is the lexicographic order on `(min(u,v),
/// max(u,v))`, which is a fixed ordering independent of the data values and
/// therefore satisfies Definition 2.
///
/// `k = 0` removes every edge (every edge has endpoints of degree ≥ 1).
///
/// Reads any [`GraphView`], so the fit truncates a frozen or memory-mapped
/// input in place; the result is the same for every representation.
#[must_use]
pub fn edge_truncation<G: GraphView>(g: &G, k: usize) -> TruncationOutcome {
    let mut out = AttributedGraph::new(g.num_nodes(), g.schema());
    for v in g.nodes() {
        out.set_attribute_code(v, g.attribute_code(v))
            .expect("attribute codes of the source graph are always valid");
    }
    for Edge { u, v } in truncated_edges(g, k) {
        out.add_edge(u, v)
            .expect("source graph edges are unique and in range");
    }
    TruncationOutcome {
        deleted_edges: g.num_edges() - out.num_edges(),
        graph: out,
        k,
    }
}

/// The edges µ(G, k) keeps, in the canonical order, without building the
/// truncated graph: walking the edges in that order, an edge is deleted
/// when either endpoint's current degree exceeds `k`.
pub fn truncated_edges<G: GraphView>(g: &G, k: usize) -> impl Iterator<Item = Edge> + '_ {
    let mut degrees = g.degrees();
    g.edges().filter(move |&Edge { u, v }| {
        let (ui, vi) = (u as usize, v as usize);
        let deleted = degrees[ui] > k || degrees[vi] > k;
        if deleted {
            // Both endpoints lose one degree.
            degrees[ui] -= 1;
            degrees[vi] -= 1;
        }
        !deleted
    })
}

/// The data-independent heuristic `k = ⌈n^(1/3)⌉` recommended in Section 3.1.
///
/// Since the number of nodes `n` is public, deriving `k` from it does not
/// consume privacy budget.
#[must_use]
pub fn heuristic_k(num_nodes: usize) -> usize {
    if num_nodes == 0 {
        return 1;
    }
    let k = (num_nodes as f64).powf(1.0 / 3.0).ceil() as usize;
    k.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSchema;
    use crate::graph::AttributedGraph;

    fn star(n_leaves: usize) -> AttributedGraph {
        let mut g = AttributedGraph::unattributed(n_leaves + 1);
        for v in 1..=n_leaves {
            g.add_edge(0, v as u32).unwrap();
        }
        g
    }

    #[test]
    fn truncation_bounds_every_degree_by_k() {
        let g = star(10);
        for k in 0..=12 {
            let out = edge_truncation(&g, k);
            assert!(out.graph.max_degree() <= k, "k={k}");
            assert_eq!(out.deleted_edges, g.num_edges() - out.graph.num_edges());
            out.graph.check_consistency().unwrap();
        }
    }

    #[test]
    fn truncation_is_identity_when_k_at_least_dmax() {
        let mut g = AttributedGraph::unattributed(5);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(3, 4).unwrap();
        g.add_edge(0, 4).unwrap();
        let out = edge_truncation(&g, g.max_degree());
        assert_eq!(out.graph.num_edges(), g.num_edges());
        assert_eq!(out.deleted_edges, 0);
        assert_eq!(out.graph.edge_vec(), g.edge_vec());
    }

    #[test]
    fn truncation_with_k_zero_removes_all_edges() {
        let g = star(4);
        let out = edge_truncation(&g, 0);
        assert_eq!(out.graph.num_edges(), 0);
        assert_eq!(out.deleted_edges, 4);
    }

    #[test]
    fn truncation_preserves_attributes_and_node_count() {
        let mut g = AttributedGraph::new(4, AttributeSchema::new(2));
        g.set_attribute_code(0, 2).unwrap();
        g.set_attribute_code(3, 3).unwrap();
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(0, 3).unwrap();
        let out = edge_truncation(&g, 1);
        assert_eq!(out.graph.num_nodes(), 4);
        assert_eq!(out.graph.attribute_code(0), 2);
        assert_eq!(out.graph.attribute_code(3), 3);
    }

    #[test]
    fn dynamic_degrees_allow_later_edges_to_survive() {
        // Hub node 0 with degree 3 (k = 2): deleting the first edge in canonical
        // order (0,1) brings the hub's degree to 2, so (0,2) and (0,3) survive.
        let g = star(3);
        let out = edge_truncation(&g, 2);
        assert_eq!(out.graph.num_edges(), 2);
        assert!(!out.graph.has_edge(0, 1));
        assert!(out.graph.has_edge(0, 2));
        assert!(out.graph.has_edge(0, 3));
    }

    #[test]
    fn truncation_only_touches_high_degree_incident_edges() {
        // Square (all degree 2) plus a hub connected to everything.
        let mut g = AttributedGraph::unattributed(5);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(3, 0).unwrap();
        for v in 0..4 {
            g.add_edge(4, v).unwrap();
        }
        let out = edge_truncation(&g, 3);
        // The square's edges connect nodes of degree 3 <= k and must survive.
        assert!(out.graph.has_edge(0, 1) || out.graph.max_degree() <= 3);
        assert!(out.graph.max_degree() <= 3);
        out.graph.check_consistency().unwrap();
    }

    #[test]
    fn heuristic_k_matches_paper_examples() {
        // Paper Figure 1 uses k = n^(1/3): Last.fm (n=1843) -> 12.xx, Pokec -> 84.
        assert_eq!(heuristic_k(1843), 13); // ceil(12.26)
        assert_eq!(heuristic_k(1788), 13);
        assert_eq!(heuristic_k(592_627), 84);
        assert_eq!(heuristic_k(1), 1);
        assert_eq!(heuristic_k(0), 1);
        assert_eq!(heuristic_k(27), 3);
    }
}
