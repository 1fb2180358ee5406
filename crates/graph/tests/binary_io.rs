//! Robustness guarantees for the binary `.agb` graph format: lossless
//! round-trips (including byte-identity through the text format) and typed
//! [`GraphError`]s — never panics — for every class of malformed input:
//! truncation, bad magic, unsupported versions, checksum mismatches and
//! checksum-valid-but-structurally-broken payloads.

use agmdp_graph::io::{
    fnv1a64, from_binary, is_binary, load_frozen_file, read_binary_file, to_binary, to_text,
    write_binary_file, BINARY_MAGIC, BINARY_VERSION,
};
use agmdp_graph::{AttributeSchema, AttributedGraph, GraphError, GraphView};

fn sample_graph() -> AttributedGraph {
    let mut g = AttributedGraph::new(6, AttributeSchema::new(2));
    g.set_all_attribute_codes(&[0, 1, 2, 3, 1, 0]).unwrap();
    for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
        g.add_edge(u, v).unwrap();
    }
    g
}

/// Re-stamps a tampered buffer with a valid checksum, so tests can separate
/// "the checksum catches corruption" from "validation catches structurally
/// broken but checksum-consistent files".
fn restamp_checksum(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let hash = fnv1a64(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&hash.to_le_bytes());
}

#[test]
fn text_binary_text_roundtrip_is_byte_identical() {
    let g = sample_graph();
    let original_text = to_text(&g);
    let binary = to_binary(&g);
    let back_to_text = to_text(&from_binary(&binary).unwrap());
    assert_eq!(original_text.as_bytes(), back_to_text.as_bytes());
}

#[test]
fn binary_binary_roundtrip_is_byte_identical() {
    let g = sample_graph();
    let first = to_binary(&g);
    let second = to_binary(&from_binary(&first).unwrap());
    assert_eq!(first, second);
}

#[test]
fn truncated_files_return_typed_errors_at_every_length() {
    let bytes = to_binary(&sample_graph());
    // Every strict prefix must fail without panicking; prefixes long enough
    // to carry the magic must report exactly BadMagic (length < 4) or
    // TruncatedBinary — never a checksum or format error.
    for len in 0..bytes.len() {
        let err = from_binary(&bytes[..len]).unwrap_err();
        match err {
            GraphError::BadMagic => assert!(len < BINARY_MAGIC.len(), "BadMagic at length {len}"),
            GraphError::TruncatedBinary { expected, actual } => {
                assert_eq!(actual, len);
                assert!(expected > len, "expected {expected} not beyond {len}");
            }
            other => panic!("unexpected error {other:?} at length {len}"),
        }
    }
}

#[test]
fn bad_magic_is_reported() {
    let mut bytes = to_binary(&sample_graph());
    bytes[0] = b'X';
    assert!(matches!(from_binary(&bytes), Err(GraphError::BadMagic)));
    // Text content is not binary either.
    assert!(!is_binary(b"nodes 3 0\n"));
    assert!(matches!(
        from_binary(b"nodes 3 0\n"),
        Err(GraphError::BadMagic)
    ));
}

#[test]
fn unsupported_version_is_reported() {
    let mut bytes = to_binary(&sample_graph());
    bytes[4..8].copy_from_slice(&(BINARY_VERSION + 1).to_le_bytes());
    match from_binary(&bytes) {
        Err(GraphError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, BINARY_VERSION + 1);
            assert_eq!(supported, BINARY_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn corrupted_payload_fails_the_checksum() {
    let clean = to_binary(&sample_graph());
    // Flip one bit in every payload byte position (past the version field,
    // before the checksum) — each corruption must be caught.
    for pos in [28, 40, clean.len() - 12, clean.len() - 9] {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x01;
        assert!(
            matches!(
                from_binary(&bytes),
                Err(GraphError::ChecksumMismatch { .. })
            ),
            "corruption at byte {pos} escaped the checksum"
        );
    }
    // Corrupting the stored checksum itself is also a mismatch.
    let mut bytes = clean.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    assert!(matches!(
        from_binary(&bytes),
        Err(GraphError::ChecksumMismatch { .. })
    ));
}

#[test]
fn checksum_valid_but_inconsistent_csr_is_rejected() {
    // Make node 0's list unsorted (swap its two neighbors) and re-stamp the
    // checksum: integrity passes, structural validation must still refuse.
    let g = sample_graph();
    assert_eq!(g.neighbors(0), &[1, 2]);
    let mut bytes = to_binary(&g);
    let neighbors_start = 28 + 4 * (g.num_nodes() + 1);
    let (a, b) = (neighbors_start, neighbors_start + 4);
    for i in 0..4 {
        bytes.swap(a + i, b + i);
    }
    restamp_checksum(&mut bytes);
    match from_binary(&bytes) {
        Err(GraphError::Format(msg)) => assert!(msg.contains("sorted"), "message: {msg}"),
        other => panic!("expected a Format error, got {other:?}"),
    }

    // A self-loop smuggled in with a matching mirror-free entry: point node
    // 0's first neighbor at itself.
    let mut bytes = to_binary(&g);
    bytes[neighbors_start..neighbors_start + 4].copy_from_slice(&0u32.to_le_bytes());
    restamp_checksum(&mut bytes);
    assert!(matches!(
        from_binary(&bytes),
        Err(GraphError::SelfLoop { .. }) | Err(GraphError::Format(_))
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = to_binary(&sample_graph());
    bytes.extend_from_slice(b"extra");
    assert!(matches!(from_binary(&bytes), Err(GraphError::Format(_))));
}

#[test]
fn oversized_width_is_rejected() {
    let mut bytes = to_binary(&sample_graph());
    bytes[24..28].copy_from_slice(&17u32.to_le_bytes());
    restamp_checksum(&mut bytes);
    // Width is validated before the payload is interpreted, so this is a
    // Format error rather than a downstream panic in AttributeSchema::new.
    assert!(matches!(from_binary(&bytes), Err(GraphError::Format(_))));
}

#[test]
fn file_helpers_report_io_and_format_errors() {
    let err = read_binary_file("/definitely/not/a/real/path.agb").unwrap_err();
    assert!(matches!(err, GraphError::Io(_)));
    assert!(matches!(
        load_frozen_file("/definitely/not/a/real/path.agb").unwrap_err(),
        GraphError::Io(_)
    ));

    let dir = std::env::temp_dir().join(format!("agmdp_binary_io_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A non-UTF-8, non-magic file is neither format.
    let junk_path = dir.join("junk.bin");
    std::fs::write(&junk_path, [0xFFu8, 0xFE, 0x00, 0x01]).unwrap();
    assert!(matches!(
        load_frozen_file(&junk_path).unwrap_err(),
        GraphError::Format(_)
    ));

    // A truncated binary file fails typed through the file helpers too.
    let g = sample_graph();
    let full = to_binary(&g);
    let trunc_path = dir.join("truncated.agb");
    std::fs::write(&trunc_path, &full[..full.len() / 2]).unwrap();
    assert!(matches!(
        read_binary_file(&trunc_path).unwrap_err(),
        GraphError::TruncatedBinary { .. }
    ));
    assert!(matches!(
        load_frozen_file(&trunc_path).unwrap_err(),
        GraphError::TruncatedBinary { .. }
    ));

    // And the happy path through the same helpers.
    let good_path = dir.join("good.agb");
    write_binary_file(&g, &good_path).unwrap();
    assert_eq!(load_frozen_file(&good_path).unwrap(), g.freeze());

    std::fs::remove_dir_all(&dir).ok();
}
