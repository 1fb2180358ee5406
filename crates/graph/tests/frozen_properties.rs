//! Property-based equivalence of the two graph representations: on random
//! graphs, the [`FrozenGraph`] CSR snapshot must agree with the
//! [`AttributedGraph`] it was frozen from on every read accessor and on
//! every derived statistic the pipeline consumes — degrees, edge queries,
//! neighbor slices, common-neighbor counts, triangle counts and clustering
//! coefficients — and the freeze must be losslessly reversible (`thaw`) and
//! serialisable (text and binary round-trips).

use agmdp_graph::clustering::{
    average_local_clustering, global_clustering, local_clustering_coefficients,
};
use agmdp_graph::degree::DegreeSequence;
use agmdp_graph::io::{from_binary, to_binary, to_text};
use agmdp_graph::triangles::{count_triangles, count_wedges, triangles_per_node};
use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};
use proptest::prelude::*;

fn arbitrary_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = AttributedGraph> {
    (1usize..max_nodes).prop_flat_map(move |n| {
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

    /// Every read accessor of the snapshot returns exactly the original's
    /// values: counts, schema, per-node degrees, neighbor slices and
    /// attribute codes.
    #[test]
    fn accessors_agree(g in arbitrary_graph(40, 200)) {
        let f = g.freeze();
        prop_assert_eq!(f.num_nodes(), g.num_nodes());
        prop_assert_eq!(f.num_edges(), g.num_edges());
        prop_assert_eq!(f.schema(), g.schema());
        prop_assert_eq!(f.degrees(), g.degrees());
        prop_assert_eq!(f.max_degree(), g.max_degree());
        for v in g.nodes() {
            prop_assert_eq!(f.degree(v), g.degree(v));
            prop_assert_eq!(f.neighbors(v), g.neighbors(v));
            prop_assert_eq!(f.attribute_code(v), g.attribute_code(v));
        }
        let frozen_edges: Vec<_> = f.edges().collect();
        prop_assert_eq!(frozen_edges, g.edge_vec());
    }

    /// `has_edge` and `common_neighbors` agree on every node pair (including
    /// absent edges and both argument orders).
    #[test]
    fn edge_queries_agree(g in arbitrary_graph(25, 120)) {
        let f = g.freeze();
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(f.has_edge(u, v), g.has_edge(u, v));
                if u != v {
                    prop_assert_eq!(
                        f.common_neighbor_count(u, v),
                        g.common_neighbor_count(u, v)
                    );
                }
            }
        }
    }

    /// The derived statistics the metrics layer consumes are bit-identical
    /// across representations: triangle and wedge counts, per-node triangle
    /// counts, local/average/global clustering and the degree distribution.
    #[test]
    fn derived_statistics_agree(g in arbitrary_graph(30, 150)) {
        let f = g.freeze();
        prop_assert_eq!(count_triangles(&f), count_triangles(&g));
        prop_assert_eq!(count_wedges(&f), count_wedges(&g));
        prop_assert_eq!(triangles_per_node(&f), triangles_per_node(&g));
        // Bit-exact float equality is intentional: both paths must execute
        // the same arithmetic in the same order.
        prop_assert_eq!(global_clustering(&f), global_clustering(&g));
        prop_assert_eq!(average_local_clustering(&f), average_local_clustering(&g));
        prop_assert_eq!(
            local_clustering_coefficients(&f),
            local_clustering_coefficients(&g)
        );
        prop_assert_eq!(
            DegreeSequence::from_graph(&f).values().to_vec(),
            DegreeSequence::from_graph(&g).values().to_vec()
        );
    }

    /// Freezing is losslessly reversible and idempotent through thaw.
    #[test]
    fn freeze_thaw_roundtrips(g in arbitrary_graph(35, 150)) {
        let f = g.freeze();
        let thawed = f.thaw();
        prop_assert_eq!(&thawed, &g);
        prop_assert_eq!(thawed.freeze(), f);
    }

    /// Both serialisations are representation-independent and the binary
    /// format round-trips the snapshot exactly.
    #[test]
    fn serialisation_is_representation_independent(g in arbitrary_graph(25, 100)) {
        let f = g.freeze();
        prop_assert_eq!(to_text(&f), to_text(&g));
        let bytes = to_binary(&g);
        prop_assert_eq!(&to_binary(&f), &bytes);
        prop_assert_eq!(from_binary(&bytes).unwrap(), f);
    }
}
