//! Edge-case and equivalence coverage for the zero-copy `.agb` load path:
//! graphs opened in place ([`FrozenGraph::open`] / `open_trusted`) must
//! accept and reject exactly the same files as the owned deserialiser,
//! report the same typed errors for truncation at every byte boundary,
//! reject checksum-valid-but-inconsistent payloads, and — property-tested —
//! agree bit-for-bit with [`agmdp_graph::io::from_binary`] under every
//! [`GraphView`] accessor.

use agmdp_graph::io::{fnv1a64, from_binary, to_binary, to_text, write_binary_file, BINARY_MAGIC};
use agmdp_graph::{AttributeSchema, AttributedGraph, FrozenGraph, GraphError, GraphView};
use proptest::prelude::*;

fn sample_graph() -> AttributedGraph {
    let mut g = AttributedGraph::new(6, AttributeSchema::new(2));
    g.set_all_attribute_codes(&[0, 1, 2, 3, 1, 0]).unwrap();
    for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
        g.add_edge(u, v).unwrap();
    }
    g
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("agmdp_mmap_zc_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Re-stamps a tampered buffer with a valid checksum so structural-
/// validation tests are not masked by the integrity check.
fn restamp_checksum(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let hash = fnv1a64(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&hash.to_le_bytes());
}

#[test]
fn truncation_at_every_boundary_matches_owned_errors() {
    let bytes = to_binary(&sample_graph());
    let dir = temp_dir("trunc");
    let path = dir.join("t.agb");
    // Every strict prefix must fail `open` with the same typed error class
    // the owned deserialiser reports for the same bytes — BadMagic below
    // the magic, TruncatedBinary everywhere else — and the trusted tier
    // must be no more lenient about layout.
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let owned_err = from_binary(&bytes[..len]).unwrap_err();
        let mapped_err = FrozenGraph::open(&path).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&mapped_err),
            std::mem::discriminant(&owned_err),
            "length {len}: mapped {mapped_err:?} vs owned {owned_err:?}"
        );
        let trusted_err = FrozenGraph::open_trusted(&path).unwrap_err();
        match trusted_err {
            GraphError::BadMagic => assert!(len < BINARY_MAGIC.len()),
            GraphError::TruncatedBinary { expected, actual } => {
                assert_eq!(actual, len);
                assert!(expected > len);
            }
            other => panic!("unexpected trusted error {other:?} at length {len}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_and_garbage_are_rejected_like_owned() {
    let g = sample_graph();
    let clean = to_binary(&g);
    let dir = temp_dir("corrupt");
    let path = dir.join("c.agb");

    // Bit rot anywhere in the payload fails the checksum on full open.
    for pos in [28, 40, clean.len() - 12] {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FrozenGraph::open(&path).unwrap_err(),
            GraphError::ChecksumMismatch { .. }
        ));
    }

    // Trailing garbage is a Format error in both tiers.
    let mut bytes = clean.clone();
    bytes.extend_from_slice(b"extra");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FrozenGraph::open(&path).unwrap_err(),
        GraphError::Format(_)
    ));
    assert!(matches!(
        FrozenGraph::open_trusted(&path).unwrap_err(),
        GraphError::Format(_)
    ));

    // Wrong magic and a future version are typed identically too.
    let mut bytes = clean.clone();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FrozenGraph::open(&path).unwrap_err(),
        GraphError::BadMagic
    ));
    let mut bytes = clean.clone();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FrozenGraph::open(&path).unwrap_err(),
        GraphError::UnsupportedVersion { .. }
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checksum_valid_but_inconsistent_payloads_fail_full_validation() {
    let g = sample_graph();
    let dir = temp_dir("inconsistent");
    let path = dir.join("i.agb");
    let neighbors_start = 28 + 4 * (g.num_nodes() + 1);

    // Unsorted neighbor list, checksum re-stamped: full open refuses.
    let mut bytes = to_binary(&g);
    for i in 0..4 {
        bytes.swap(neighbors_start + i, neighbors_start + 4 + i);
    }
    restamp_checksum(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    match FrozenGraph::open(&path).unwrap_err() {
        GraphError::Format(msg) => assert!(msg.contains("sorted"), "message: {msg}"),
        other => panic!("expected Format, got {other:?}"),
    }
    // The trusted tier explicitly skips per-list validation — the file maps
    // (that is the documented trust contract), and its offsets still bound
    // every access.
    let trusted = FrozenGraph::open_trusted(&path).unwrap();
    assert_eq!(trusted.num_nodes(), g.num_nodes());
    assert_eq!(trusted.neighbors(0), &[2, 1]);

    // A broken offsets table is caught even by the trusted tier's O(n)
    // sanity scan (non-monotonic / wrong final entry).
    let offsets_start = 28;
    let mut bytes = to_binary(&g);
    bytes[offsets_start + 4..offsets_start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_checksum(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FrozenGraph::open(&path).unwrap_err(),
        GraphError::Format(_)
    ));
    assert!(matches!(
        FrozenGraph::open_trusted(&path).unwrap_err(),
        GraphError::Format(_)
    ));

    // Self-loop with re-stamped checksum: full refuses, typed.
    let mut bytes = to_binary(&g);
    bytes[neighbors_start..neighbors_start + 4].copy_from_slice(&0u32.to_le_bytes());
    restamp_checksum(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FrozenGraph::open(&path).unwrap_err(),
        GraphError::SelfLoop { .. } | GraphError::Format(_)
    ));

    std::fs::remove_dir_all(&dir).ok();
}

fn arbitrary_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = AttributedGraph> {
    (1usize..max_nodes, 0usize..2).prop_flat_map(move |(n, attributed)| {
        let width = if attributed == 1 { 2 } else { 0 };
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_edges);
        let codes = proptest::collection::vec(0u32..(1 << width), n);
        (Just(n), Just(width), edges, codes).prop_map(|(n, width, edges, codes)| {
            let mut g = AttributedGraph::new(n, AttributeSchema::new(width));
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

    /// On random graphs (attributed and width-0), the graph opened in place —
    /// both validation tiers — agrees bit-for-bit with the owned
    /// deserialisation of the same file under every `GraphView` accessor,
    /// and its re-serialisation reproduces the file bytes exactly.
    #[test]
    fn mapped_and_owned_loads_are_bit_identical(g in arbitrary_graph(32, 120)) {
        let dir = temp_dir("prop");
        let path = dir.join("p.agb");
        write_binary_file(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let owned = from_binary(&bytes).unwrap();

        for mapped in [FrozenGraph::open(&path).unwrap(), FrozenGraph::open_trusted(&path).unwrap()] {
            prop_assert_eq!(mapped.num_nodes(), owned.num_nodes());
            prop_assert_eq!(mapped.num_edges(), owned.num_edges());
            prop_assert_eq!(mapped.schema(), owned.schema());
            prop_assert_eq!(mapped.max_degree(), owned.max_degree());
            prop_assert!((mapped.avg_degree() - owned.avg_degree()).abs() == 0.0);
            for v in owned.nodes() {
                prop_assert_eq!(mapped.neighbors(v), owned.neighbors(v));
                prop_assert_eq!(mapped.degree(v), owned.degree(v));
                prop_assert_eq!(mapped.attribute_code(v), owned.attribute_code(v));
            }
            for u in owned.nodes() {
                for v in owned.nodes() {
                    prop_assert_eq!(mapped.has_edge(u, v), owned.has_edge(u, v));
                    if u != v {
                        prop_assert_eq!(
                            mapped.common_neighbor_count(u, v),
                            owned.common_neighbor_count(u, v)
                        );
                        prop_assert_eq!(mapped.edge_config(u, v), owned.edge_config(u, v));
                    }
                }
            }
            let mapped_edges: Vec<_> = mapped.edges().collect();
            let owned_edges: Vec<_> = owned.edges().collect();
            prop_assert_eq!(mapped_edges, owned_edges);
            // Round-trips: text render, content equality with the owned
            // load, and byte-identical re-serialisation.
            prop_assert_eq!(to_text(&mapped), to_text(&owned));
            prop_assert_eq!(&mapped, &owned);
            prop_assert_eq!(to_binary(&mapped), bytes.clone());
            prop_assert_eq!(mapped.byte_len(), bytes.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
