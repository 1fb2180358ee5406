//! Induced subgraphs and node partitions.
//!
//! The sample-and-aggregate estimator for the attribute–edge correlations
//! (Appendix B.2) randomly partitions the nodes into `t = n/k` disjoint groups
//! and computes the correlation probabilities on each *induced* subgraph, so
//! that changing one node affects exactly one group. This module provides the
//! induced-subgraph extraction and the partitioning (taking a caller-supplied
//! node order so the randomness stays with the caller's seeded RNG).

use crate::graph::{AttributedGraph, NodeId};
use crate::view::GraphView;

/// Extracts the subgraph induced by `nodes`, relabeling them densely in the
/// order given. Returns the subgraph and the mapping `new id -> old id`.
///
/// Duplicate entries in `nodes` are ignored after the first occurrence;
/// out-of-range ids are skipped.
#[must_use]
pub fn induced_subgraph<G: GraphView>(g: &G, nodes: &[NodeId]) -> (AttributedGraph, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut old_to_new = vec![u32::MAX; n];
    let mut mapping = Vec::with_capacity(nodes.len());
    for &v in nodes {
        if (v as usize) < n && old_to_new[v as usize] == u32::MAX {
            old_to_new[v as usize] = mapping.len() as u32;
            mapping.push(v);
        }
    }
    let mut sub = AttributedGraph::new(mapping.len(), g.schema());
    for (new_id, &old_id) in mapping.iter().enumerate() {
        sub.set_attribute_code(new_id as NodeId, g.attribute_code(old_id))
            .expect("attribute codes of the parent graph are always valid");
        for &nbr in g.neighbors(old_id) {
            let nbr_new = old_to_new[nbr as usize];
            if nbr_new != u32::MAX && (new_id as u32) < nbr_new {
                sub.add_edge(new_id as NodeId, nbr_new)
                    .expect("parent graph has no duplicate edges");
            }
        }
    }
    (sub, mapping)
}

/// Splits a node ordering into `ceil(len / group_size)` consecutive chunks.
///
/// The caller supplies `order` (typically a seeded random permutation of the
/// node ids); the function is deterministic given that order. Groups other
/// than possibly the last have exactly `group_size` nodes.
///
/// Returns an empty vector when `group_size == 0`.
#[must_use]
pub fn partition_nodes(order: &[NodeId], group_size: usize) -> Vec<Vec<NodeId>> {
    if group_size == 0 {
        return Vec::new();
    }
    order.chunks(group_size).map(<[NodeId]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSchema;

    fn labeled_square() -> AttributedGraph {
        let mut g = AttributedGraph::new(4, AttributeSchema::new(2));
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(3, 0).unwrap();
        for v in 0..4 {
            g.set_attribute_code(v, v).unwrap();
        }
        g
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = labeled_square();
        let (sub, mapping) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(mapping, vec![0, 1, 2]);
        // Edges 0-1 and 1-2 are internal; 2-3 and 3-0 are not.
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
        // Attributes are carried over.
        assert_eq!(sub.attribute_code(2), 2);
        sub.check_consistency().unwrap();
    }

    #[test]
    fn induced_subgraph_relabels_in_given_order() {
        let g = labeled_square();
        let (sub, mapping) = induced_subgraph(&g, &[3, 1, 0]);
        assert_eq!(mapping, vec![3, 1, 0]);
        // Old edge 3-0 becomes new edge 0-2; old edge 0-1 becomes new 1-2.
        assert!(sub.has_edge(0, 2));
        assert!(sub.has_edge(1, 2));
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.attribute_code(0), 3);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_bad_ids() {
        let g = labeled_square();
        let (sub, mapping) = induced_subgraph(&g, &[1, 1, 9, 2]);
        assert_eq!(mapping, vec![1, 2]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 1);
    }

    #[test]
    fn induced_subgraph_of_empty_selection() {
        let g = labeled_square();
        let (sub, mapping) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_nodes(), 0);
        assert!(mapping.is_empty());
    }

    #[test]
    fn partition_nodes_chunks_correctly() {
        let order: Vec<u32> = (0..10).collect();
        let parts = partition_nodes(&order, 4);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[2], vec![8, 9]);
        assert!(partition_nodes(&order, 0).is_empty());
        let exact = partition_nodes(&order, 5);
        assert_eq!(exact.len(), 2);
        assert!(exact.iter().all(|p| p.len() == 5));
    }
}
