//! A small deterministic attributed social graph for examples and tests.
//!
//! Thirty nodes in two homophilous communities with `w = 2` binary attributes
//! (think "listens to artist A" / "listens to artist B" as in the paper's
//! Last.fm pre-processing). The graph is connected, contains triangles in both
//! communities and only a handful of cross-community edges, so every AGM-DP
//! component has something meaningful to measure without any randomness.

use agmdp_graph::{AttributeSchema, AttributedGraph};

/// Builds the deterministic 30-node toy graph.
///
/// Community 0 is nodes `0..15` (attribute code `0b01`), community 1 is nodes
/// `15..30` (attribute code `0b10`), with two "celebrity" nodes carrying code
/// `0b11`. Each community is a ring plus chords (yielding triangles); three
/// bridge edges connect the communities.
#[must_use]
pub fn toy_social_graph() -> AttributedGraph {
    let n = 30usize;
    let schema = AttributeSchema::new(2);
    let mut g = AttributedGraph::new(n, schema);
    for v in 0..n as u32 {
        let code = if v == 1 || v == 16 {
            0b11
        } else if v < 15 {
            0b01
        } else {
            0b10
        };
        g.set_attribute_code(v, code).expect("codes fit the schema");
    }
    let add = |g: &mut AttributedGraph, u: u32, v: u32| {
        g.try_add_edge(u, v).expect("nodes in range");
    };
    // Community rings plus short chords (chords create triangles).
    for base in [0u32, 15u32] {
        for i in 0..15u32 {
            let u = base + i;
            let v = base + (i + 1) % 15;
            add(&mut g, u, v);
            let w = base + (i + 2) % 15;
            add(&mut g, u, w);
        }
        // A hub inside each community.
        for i in 3..10u32 {
            add(&mut g, base, base + i);
        }
    }
    // Sparse bridges between the communities.
    add(&mut g, 0, 15);
    add(&mut g, 7, 22);
    add(&mut g, 3, 18);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::clustering::average_local_clustering;
    use agmdp_graph::components::is_connected;
    use agmdp_graph::triangles::count_triangles;
    use agmdp_graph::GraphView;

    #[test]
    fn toy_graph_is_well_formed() {
        let g = toy_social_graph();
        assert_eq!(g.num_nodes(), 30);
        assert!(g.num_edges() > 40);
        assert!(is_connected(&g));
        assert!(count_triangles(&g) > 10);
        assert!(average_local_clustering(&g) > 0.1);
        g.check_consistency().unwrap();
    }

    #[test]
    fn toy_graph_is_homophilous() {
        let g = toy_social_graph();
        let same = g
            .edges()
            .filter(|e| g.attribute_code(e.u) == g.attribute_code(e.v))
            .count() as f64;
        assert!(same / g.num_edges() as f64 > 0.7);
    }

    #[test]
    fn toy_graph_is_deterministic() {
        assert_eq!(toy_social_graph(), toy_social_graph());
    }
}
