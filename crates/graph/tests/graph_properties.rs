//! Property-based tests for the graph substrate: structural invariants that
//! every algorithm in the workspace silently relies on.

use agmdp_graph::clustering::{
    average_local_clustering, global_clustering, local_clustering_coefficients,
};
use agmdp_graph::components::{connected_components, is_connected};
use agmdp_graph::degree::DegreeSequence;
use agmdp_graph::io::{from_text, to_text};
use agmdp_graph::subgraph::induced_subgraph;
use agmdp_graph::triangles::{count_triangles, count_wedges, triangles_per_node};
use agmdp_graph::truncation::edge_truncation;
use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};
use proptest::prelude::*;

fn arbitrary_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = AttributedGraph> {
    (2usize..max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_edges);
        let codes = proptest::collection::vec(0u32..4, n);
        (Just(n), edges, codes).prop_map(|(n, edges, codes)| {
            let mut g = AttributedGraph::new(n, AttributeSchema::new(2));
            g.set_all_attribute_codes(&codes).unwrap();
            for (u, v) in edges {
                if u != v {
                    let _ = g.try_add_edge(u, v).unwrap();
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Adjacency symmetry, sortedness and edge counts always hold.
    #[test]
    fn consistency_always_holds(g in arbitrary_graph(40, 200)) {
        prop_assert!(g.check_consistency().is_ok());
        prop_assert_eq!(g.edges().count(), g.num_edges());
        let sum_deg: usize = g.degrees().iter().sum();
        prop_assert_eq!(sum_deg, 2 * g.num_edges());
    }

    /// Removing every edge one by one always succeeds and ends empty.
    #[test]
    fn add_then_remove_all_edges(g in arbitrary_graph(30, 120)) {
        let mut g2 = g.clone();
        for e in g.edges() {
            g2.remove_edge(e.u, e.v).unwrap();
        }
        prop_assert_eq!(g2.num_edges(), 0);
        prop_assert!(g2.check_consistency().is_ok());
    }

    /// Triangle identities: per-node counts sum to 3x the total; the global
    /// clustering coefficient lies in [0, 1] and matches 3*tri/wedges.
    #[test]
    fn triangle_and_clustering_identities(g in arbitrary_graph(30, 150)) {
        let total = count_triangles(&g);
        let per_node: u64 = triangles_per_node(&g).iter().sum();
        prop_assert_eq!(per_node, 3 * total);
        let wedges = count_wedges(&g);
        prop_assert!(3 * total <= wedges);
        let c = global_clustering(&g);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        let c_avg = average_local_clustering(&g);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c_avg));
        for lc in local_clustering_coefficients(&g) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&lc));
        }
    }

    /// Component labels partition the node set; the component count is
    /// consistent with `is_connected`.
    #[test]
    fn components_partition_nodes(g in arbitrary_graph(40, 120)) {
        let comps = connected_components(&g);
        prop_assert_eq!(comps.labels.len(), g.num_nodes());
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), g.num_nodes());
        prop_assert_eq!(comps.count() == 1, is_connected(&g));
        // Every edge joins nodes with the same label.
        for e in g.edges() {
            prop_assert_eq!(comps.labels[e.u as usize], comps.labels[e.v as usize]);
        }
        let largest = comps.largest_component_nodes().len();
        let orphans = comps.orphaned_nodes().len();
        prop_assert_eq!(largest + orphans, g.num_nodes());
    }

    /// Truncation is idempotent: truncating a k-bounded graph at k changes nothing.
    #[test]
    fn truncation_is_idempotent(g in arbitrary_graph(30, 150), k in 1usize..12) {
        let once = edge_truncation(&g, k).graph;
        let twice = edge_truncation(&once, k).graph;
        prop_assert_eq!(once.edge_vec(), twice.edge_vec());
    }

    /// Truncation is monotone in k: larger bounds keep at least as many edges.
    #[test]
    fn truncation_monotone_in_k(g in arbitrary_graph(30, 150), k in 1usize..12) {
        let small = edge_truncation(&g, k).graph.num_edges();
        let large = edge_truncation(&g, k + 1).graph.num_edges();
        prop_assert!(large >= small);
    }

    /// The text format round-trips arbitrary graphs exactly.
    #[test]
    fn io_roundtrip(g in arbitrary_graph(25, 80)) {
        let parsed = from_text(&to_text(&g)).unwrap();
        prop_assert_eq!(parsed, g);
    }

    /// An induced subgraph never has more edges than the parent and preserves
    /// attribute codes under the returned mapping.
    #[test]
    fn induced_subgraph_is_consistent(g in arbitrary_graph(30, 120), keep in proptest::collection::vec(0u32..30, 0..20)) {
        let keep: Vec<u32> = keep.into_iter().filter(|&v| (v as usize) < g.num_nodes()).collect();
        let (sub, mapping) = induced_subgraph(&g, &keep);
        prop_assert!(sub.num_edges() <= g.num_edges());
        prop_assert_eq!(sub.num_nodes(), mapping.len());
        prop_assert!(sub.check_consistency().is_ok());
        for (new_id, &old_id) in mapping.iter().enumerate() {
            prop_assert_eq!(sub.attribute_code(new_id as u32), g.attribute_code(old_id));
        }
        // Every subgraph edge exists in the parent.
        for e in sub.edges() {
            prop_assert!(g.has_edge(mapping[e.u as usize], mapping[e.v as usize]));
        }
    }

    /// Degree-sequence views agree with direct graph queries.
    #[test]
    fn degree_views_agree(g in arbitrary_graph(40, 150)) {
        let s = DegreeSequence::from_graph(&g);
        prop_assert_eq!(s.len(), g.num_nodes());
        prop_assert!((s.total() - 2.0 * g.num_edges() as f64).abs() < 1e-9);
        prop_assert!((s.max() - g.max_degree() as f64).abs() < 1e-9);
        let sorted = s.sorted();
        for w in sorted.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// Attribute schema encodings are total and consistent on arbitrary codes.
    #[test]
    fn schema_encoding_total(a in 0u32..16, b in 0u32..16, w in 0usize..5) {
        let schema = AttributeSchema::new(w);
        let y = schema.num_node_configs() as u32;
        let (a, b) = (a % y, b % y);
        let idx = schema.edge_config(a, b);
        prop_assert!(idx < schema.num_edge_configs());
        let (lo, hi) = schema.edge_config_pair(idx).unwrap();
        prop_assert_eq!((lo, hi), (a.min(b), a.max(b)));
    }
}
