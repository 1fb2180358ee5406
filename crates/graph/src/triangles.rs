//! Triangle and wedge counting.
//!
//! TriCycLe (Section 3.3) is parameterised by the exact number of triangles
//! `n_Δ` in the input graph, and the evaluation reports triangle counts and
//! the global clustering coefficient `C = 3 n_Δ / n_W` where `n_W` is the
//! number of wedges (length-two paths). The Ladder mechanism's local
//! sensitivity (Appendix C.3.2) is a maximum over *all* node pairs, edges and
//! non-edges alike, so it lives with the mechanism in `agmdp-privacy`
//! (`ladder::triangle_local_sensitivity`); the triangles a single pair
//! `(u, v)` closes are [`GraphView::common_neighbor_count`].

use crate::graph::NodeId;
use crate::view::GraphView;

/// Counts the triangles in `g`.
///
/// Uses the forward (degree-oriented) algorithm of [`DegreeOrientation`]:
/// intersections are stamp-array lookups rather than sorted merges, and
/// every out-degree is `O(sqrt(m))`, so the whole count runs in
/// `O(m^{3/2})` — far below the `O(sum_v d_v^2)` of pairwise neighbor
/// merges on skewed degree sequences.
#[must_use]
pub fn count_triangles<G: GraphView>(g: &G) -> u64 {
    DegreeOrientation::new(g).triangles_in(0..g.num_nodes())
}

/// The degree orientation of a graph: every edge is oriented from its
/// lower-`(degree, id)` endpoint to its higher one, which gives each
/// triangle exactly one vertex with out-edges to the other two. Stored as a
/// CSR out-adjacency whose lists inherit the sorted order of the underlying
/// neighbor lists.
#[derive(Debug, Clone)]
pub struct DegreeOrientation {
    offsets: Vec<u32>,
    out: Vec<NodeId>,
}

impl DegreeOrientation {
    /// Orients `g`: edge `{u, v}` is stored under `u` iff
    /// `(d_u, u) < (d_v, v)`.
    #[must_use]
    pub fn new<G: GraphView>(g: &G) -> Self {
        let n = g.num_nodes();
        let deg: Vec<u32> = (0..n).map(|v| g.degree(v as NodeId) as u32).collect();
        let mut offsets = vec![0u32; n + 1];
        for u in 0..n {
            let ru = (deg[u], u as u32);
            let fwd = g
                .neighbors(u as NodeId)
                .iter()
                .filter(|&&v| ru < (deg[v as usize], v))
                .count();
            offsets[u + 1] = fwd as u32;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut out = vec![0 as NodeId; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for u in 0..n {
            let ru = (deg[u], u as u32);
            for &v in g.neighbors(u as NodeId) {
                if ru < (deg[v as usize], v) {
                    out[cursor[u] as usize] = v;
                    cursor[u] += 1;
                }
            }
        }
        Self { offsets, out }
    }

    fn out(&self, u: usize) -> &[NodeId] {
        &self.out[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The triangles whose lowest-ranked vertex lies in `nodes`. Summed over
    /// any partition of `0..n` this is the triangle count, so node chunks
    /// can be counted on separate threads.
    #[must_use]
    pub fn triangles_in(&self, nodes: std::ops::Range<usize>) -> u64 {
        let mut stamp = vec![u32::MAX; self.offsets.len() - 1];
        let mut total = 0u64;
        for u in nodes {
            let fwd = self.out(u);
            if fwd.len() < 2 {
                continue;
            }
            for &w in fwd {
                stamp[w as usize] = u as u32;
            }
            for &v in fwd {
                for &w in self.out(v as usize) {
                    total += u64::from(stamp[w as usize] == u as u32);
                }
            }
        }
        total
    }
}

/// Counts the wedges (length-two paths) in `g`: `sum_v C(d_v, 2)`.
#[must_use]
pub fn count_wedges<G: GraphView>(g: &G) -> u64 {
    g.nodes()
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// Number of triangles each node participates in.
///
/// `triangles_per_node(g)[v]` is the number of edges among the neighbors of
/// `v`; summing over all nodes counts each triangle three times.
#[must_use]
pub fn triangles_per_node<G: GraphView>(g: &G) -> Vec<u64> {
    let oriented = DegreeOrientation::new(g);
    let n = g.num_nodes();
    let mut stamp = vec![u32::MAX; n];
    let mut counts = vec![0u64; n];
    for u in 0..n {
        let fwd = oriented.out(u);
        if fwd.len() < 2 {
            continue;
        }
        for &w in fwd {
            stamp[w as usize] = u as u32;
        }
        for &v in fwd {
            for &w in oriented.out(v as usize) {
                if stamp[w as usize] == u as u32 {
                    counts[u] += 1;
                    counts[v as usize] += 1;
                    counts[w as usize] += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSchema;
    use crate::graph::AttributedGraph;

    fn complete_graph(n: usize) -> AttributedGraph {
        let mut g = AttributedGraph::new(n, AttributeSchema::new(0));
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u as u32, v as u32).unwrap();
            }
        }
        g
    }

    #[test]
    fn triangle_counts_on_known_graphs() {
        // K4 has C(4,3) = 4 triangles, K5 has 10.
        assert_eq!(count_triangles(&complete_graph(3)), 1);
        assert_eq!(count_triangles(&complete_graph(4)), 4);
        assert_eq!(count_triangles(&complete_graph(5)), 10);
        // A path has no triangles.
        let mut path = AttributedGraph::unattributed(5);
        for v in 1..5 {
            path.add_edge(v - 1, v).unwrap();
        }
        assert_eq!(count_triangles(&path), 0);
        // Empty graph.
        assert_eq!(count_triangles(&AttributedGraph::unattributed(0)), 0);
    }

    #[test]
    fn wedge_counts_on_known_graphs() {
        // K4: every node has degree 3, so 4 * C(3,2) = 12 wedges.
        assert_eq!(count_wedges(&complete_graph(4)), 12);
        // Star with 4 leaves: center has degree 4 → C(4,2) = 6 wedges.
        let mut star = AttributedGraph::unattributed(5);
        for v in 1..5 {
            star.add_edge(0, v).unwrap();
        }
        assert_eq!(count_wedges(&star), 6);
        assert_eq!(count_triangles(&star), 0);
    }

    #[test]
    fn global_clustering_identity_holds() {
        // For any graph: 3 * triangles <= wedges.
        let g = complete_graph(6);
        assert!(3 * count_triangles(&g) <= count_wedges(&g));
        // For a complete graph transitivity is exactly 1.
        assert_eq!(3 * count_triangles(&g), count_wedges(&g));
    }

    #[test]
    fn per_node_counts_sum_to_three_times_total() {
        let g = complete_graph(5);
        let per_node = triangles_per_node(&g);
        let total: u64 = per_node.iter().sum();
        assert_eq!(total, 3 * count_triangles(&g));
        // In K5 every node is in C(4,2) = 6 triangles.
        assert!(per_node.iter().all(|&c| c == 6));
    }

    #[test]
    fn bowtie_graph_counts() {
        // Two triangles sharing node 2.
        let mut g = AttributedGraph::unattributed(5);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(3, 4).unwrap();
        g.add_edge(2, 4).unwrap();
        assert_eq!(count_triangles(&g), 2);
        let per_node = triangles_per_node(&g);
        assert_eq!(per_node[2], 2);
        assert_eq!(per_node[0], 1);
        assert_eq!(per_node[4], 1);
    }
}
