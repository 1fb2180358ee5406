//! Round-trip guarantees for the text interchange format (`agmdp_graph::io`):
//! serialising, re-parsing and re-serialising must reproduce the exact same
//! bytes, and malformed records must be rejected with line-numbered errors.

use agmdp_graph::io::{from_text, read_file, to_text, write_file};
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → read → write is the identity on the serialised bytes: parsing
    /// a serialised graph and serialising it again yields identical text.
    #[test]
    fn write_read_write_is_byte_identical(g in arbitrary_graph(30, 120)) {
        let first = to_text(&g);
        let reparsed = from_text(&first).unwrap();
        let second = to_text(&reparsed);
        prop_assert_eq!(first.as_bytes(), second.as_bytes());
        prop_assert_eq!(reparsed, g);
    }

    /// The same byte-identity holds through the filesystem helpers.
    #[test]
    fn file_write_read_write_is_byte_identical(g in arbitrary_graph(20, 60), tag in 0u32..1000) {
        let dir = std::env::temp_dir().join("agmdp_io_roundtrip_prop");
        std::fs::create_dir_all(&dir).unwrap();
        // Process id in the name keeps concurrent `cargo test` runs (which
        // generate identical deterministic tags) from racing on the file.
        let path = dir.join(format!("case_{}_{tag}.graph", std::process::id()));
        write_file(&g, &path).unwrap();
        let bytes_on_disk = std::fs::read(&path).unwrap();
        let reparsed = read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(bytes_on_disk, to_text(&reparsed).into_bytes());
    }
}

#[test]
fn serialisation_is_stable_for_a_known_graph() {
    let mut g = AttributedGraph::new(3, AttributeSchema::new(1));
    g.set_attribute_code(1, 1).unwrap();
    g.add_edge(2, 0).unwrap();
    g.add_edge(0, 1).unwrap();
    // Edges serialise in canonical order: endpoints normalised to u < v,
    // listed lexicographically — independent of insertion order.
    assert_eq!(
        to_text(&g),
        "nodes 3 1\nattr 0 0\nattr 1 1\nattr 2 0\nedge 0 1\nedge 0 2\n"
    );
}

#[test]
fn malformed_records_are_rejected_with_line_numbers() {
    // (input, substring expected in the error message)
    let cases: &[(&str, &str)] = &[
        ("", "missing 'nodes' header"),
        ("edge 0 1\n", "line 1"),
        ("attr 0 1\n", "line 1"),
        ("nodes\n", "missing node count"),
        ("nodes x 2\n", "invalid node count"),
        ("nodes 3\n", "missing attribute width"),
        ("nodes 3 y\n", "invalid attribute width"),
        ("nodes 3 17\n", "attribute width exceeds 16"),
        ("nodes 3 1\nattr\n", "missing node id"),
        ("nodes 3 1\nattr z 1\n", "invalid node id"),
        ("nodes 3 1\nattr 0 x\n", "invalid attribute bit"),
        ("nodes 3 1\nattr 0 -1\n", "invalid attribute bit"),
        ("nodes 3 1\nedge 0\n", "missing edge endpoint"),
        ("nodes 3 1\nedge 0 q\n", "invalid edge endpoint"),
        ("nodes 3 1\nbogus 1 2\n", "unknown record type 'bogus'"),
        ("nodes 3 1\n# fine\n\nedge 0 1\nwat\n", "line 5"),
    ];
    for (input, expected) in cases {
        let err = from_text(input).expect_err(&format!("input {input:?} should fail"));
        let msg = err.to_string();
        assert!(
            msg.contains(expected),
            "input {input:?}: error {msg:?} does not mention {expected:?}"
        );
    }
    // Semantic errors surfaced through the graph/schema (exact message is
    // owned by those layers; they only need to fail).
    assert!(
        from_text("nodes 3 1\nattr 0 2\n").is_err(),
        "attribute bit out of range"
    );
    assert!(
        from_text("nodes 3 2\nattr 0 1\n").is_err(),
        "too few attribute bits"
    );
    assert!(
        from_text("nodes 3 1\nattr 9 1\n").is_err(),
        "attr node id out of range"
    );
    assert!(
        from_text("nodes 2 1\nedge 0 9\n").is_err(),
        "edge endpoint out of range"
    );
}

#[test]
fn duplicate_edges_and_self_loops_collapse_to_a_simple_graph() {
    let text = "nodes 4 0\nedge 0 1\nedge 1 0\nedge 0 1\nedge 2 2\nedge 3 2\n";
    let g = from_text(text).unwrap();
    assert_eq!(g.num_edges(), 2);
    // Re-serialising the cleaned graph is then a fixed point.
    let cleaned = to_text(&g);
    assert_eq!(to_text(&from_text(&cleaned).unwrap()), cleaned);
}
