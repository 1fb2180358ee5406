//! Interchange formats for attributed graphs: line-oriented text and the
//! binary `.agb` container.
//!
//! ## Text format
//!
//! Line oriented, mirroring how the paper's datasets are distributed (an edge
//! list plus a node-attribute table):
//!
//! ```text
//! # comments and blank lines are ignored
//! nodes <n> <w>
//! attr <node id> <bit_0> <bit_1> ... <bit_{w-1}>
//! edge <u> <v>
//! ```
//!
//! `attr` lines are optional (missing nodes default to the all-zero vector);
//! `edge` lines may contain duplicates or self-loops, which are skipped
//! exactly as the paper's pre-processing does.
//!
//! ## Binary format (`.agb`)
//!
//! A versioned little-endian container whose payload is exactly the CSR
//! arrays of a [`FrozenGraph`], so reading it requires no parsing, sorting
//! or re-indexing — the bytes *are* the analysis-phase representation:
//!
//! ```text
//! offset  size      field
//! 0       4         magic  b"AGB1"
//! 4       4         format version (u32, currently 1)
//! 8       8         n  — node count (u64)
//! 16      8         m  — undirected edge count (u64)
//! 24      4         w  — attribute width (u32)
//! 28      4(n+1)    CSR offsets (u32 each)
//! …       4·2m      CSR neighbors (u32 each)
//! …       4n        attribute codes (u32 each; present only when w > 0)
//! end-8   8         FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! All malformations are reported as typed [`GraphError`]s
//! ([`GraphError::BadMagic`], [`GraphError::UnsupportedVersion`],
//! [`GraphError::TruncatedBinary`], [`GraphError::ChecksumMismatch`]) and a
//! checksum-valid file still passes full CSR validation before a graph is
//! returned. [`from_binary`] copies the words into an owned buffer;
//! [`FrozenGraph::open`] maps the file instead. Both run the same parser
//! (see [`FrozenGraph`] for its validation tiers).
//!
//! [`load_frozen_file`] auto-detects the format from the file's leading
//! bytes and maps `.agb` files through [`FrozenGraph::open`], so every
//! path-based loader (CLI `--input`, the service's `POST /datasets` path
//! registration) accepts both formats transparently.
//! The round-trip text → binary → text reproduces any canonically written
//! text file (the output of [`to_text`]) byte for byte; hand-authored files
//! that rely on the parser's leniencies (comments, blank lines,
//! duplicate/self-loop edges, arbitrary line order) round-trip to the same
//! *graph* in canonical form.

use std::fmt::Write as _;
use std::fs;
use std::io::{Read, Seek};
use std::path::Path;

use crate::attributes::AttributeSchema;
use crate::error::GraphError;
use crate::frozen::FrozenGraph;
use crate::graph::AttributedGraph;
use crate::view::GraphView;
use crate::Result;

/// Serialises a graph to the text format described in the module docs.
///
/// Accepts any [`GraphView`]; the output depends only on the graph's
/// logical content, so a frozen snapshot serialises byte-identically to
/// the graph it was frozen from.
#[must_use]
pub fn to_text<G: GraphView>(g: &G) -> String {
    let w = g.schema().width();
    let mut out = String::new();
    let _ = writeln!(out, "nodes {} {}", g.num_nodes(), w);
    if w > 0 {
        for v in g.nodes() {
            let bits = g.schema().bits_from_code(g.attribute_code(v));
            let _ = write!(out, "attr {v}");
            for b in bits {
                let _ = write!(out, " {b}");
            }
            out.push('\n');
        }
    }
    for e in g.edges() {
        let _ = writeln!(out, "edge {} {}", e.u, e.v);
    }
    out
}

/// Parses a graph from the text format described in the module docs.
pub fn from_text(text: &str) -> Result<AttributedGraph> {
    let mut graph: Option<AttributedGraph> = None;
    let mut schema = AttributeSchema::new(0);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or_default();
        let ctx = |msg: &str| GraphError::Format(format!("line {}: {msg}", lineno + 1));
        match tag {
            "nodes" => {
                let n: usize = parts
                    .next()
                    .ok_or_else(|| ctx("missing node count"))?
                    .parse()
                    .map_err(|_| ctx("invalid node count"))?;
                let w: usize = parts
                    .next()
                    .ok_or_else(|| ctx("missing attribute width"))?
                    .parse()
                    .map_err(|_| ctx("invalid attribute width"))?;
                if w > 16 {
                    return Err(ctx("attribute width exceeds 16"));
                }
                schema = AttributeSchema::new(w);
                graph = Some(AttributedGraph::new(n, schema));
            }
            "attr" => {
                let g = graph
                    .as_mut()
                    .ok_or_else(|| ctx("attr before nodes header"))?;
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| ctx("missing node id"))?
                    .parse()
                    .map_err(|_| ctx("invalid node id"))?;
                let bits: Vec<u8> = parts
                    .map(|p| p.parse::<u8>().map_err(|_| ctx("invalid attribute bit")))
                    .collect::<Result<_>>()?;
                let code = schema.code_from_bits(&bits)?;
                g.set_attribute_code(v, code)?;
            }
            "edge" => {
                let g = graph
                    .as_mut()
                    .ok_or_else(|| ctx("edge before nodes header"))?;
                let u: u32 = parts
                    .next()
                    .ok_or_else(|| ctx("missing edge endpoint"))?
                    .parse()
                    .map_err(|_| ctx("invalid edge endpoint"))?;
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| ctx("missing edge endpoint"))?
                    .parse()
                    .map_err(|_| ctx("invalid edge endpoint"))?;
                // Self-loops and duplicates are dataset noise and are
                // skipped; a self-loop is skipped before its node ids are
                // range-checked.
                if u != v {
                    g.try_add_edge(u, v)?;
                }
            }
            other => {
                return Err(ctx(&format!("unknown record type '{other}'")));
            }
        }
    }
    graph.ok_or_else(|| GraphError::Format("missing 'nodes' header".into()))
}

/// Writes a graph to a file in the text format.
pub fn write_file<G: GraphView, P: AsRef<Path>>(g: &G, path: P) -> Result<()> {
    fs::write(path, to_text(g))?;
    Ok(())
}

/// Reads a graph from a file in the text format.
pub fn read_file<P: AsRef<Path>>(path: P) -> Result<AttributedGraph> {
    let text = fs::read_to_string(path)?;
    from_text(&text)
}

/// Magic bytes opening every binary graph file.
pub const BINARY_MAGIC: [u8; 4] = *b"AGB1";
/// The binary format version this build writes (and the newest it reads).
pub const BINARY_VERSION: u32 = 1;
/// Conventional file extension for the binary format.
pub const BINARY_EXTENSION: &str = "agb";

pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4;
pub(crate) const CHECKSUM_LEN: usize = 8;

/// FNV-1a 64-bit hash — the binary format's integrity checksum, also used
/// to name content-addressed artifacts. Not cryptographic; it guards
/// against bit rot and interrupted writes.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a graph to the binary `.agb` format described in the module
/// docs. Accepts any [`GraphView`]; the payload written is the graph's CSR
/// image (offsets derived from degrees, neighbors in node order), identical
/// for both representations of the same graph.
/// # Panics
///
/// Panics if the graph has more than `u32::MAX / 2` edges (the CSR offsets
/// are 32-bit; same bound as [`AttributedGraph::freeze`]).
#[must_use]
pub fn to_binary<G: GraphView>(g: &G) -> Vec<u8> {
    let n = g.num_nodes();
    let m = g.num_edges();
    assert!(
        u32::try_from(2 * m).is_ok(),
        "graph too large for binary serialisation: {} half-edges exceed u32 offsets",
        2 * m
    );
    let w = g.schema().width();
    let attr_words = if w > 0 { n } else { 0 };
    let mut out =
        Vec::with_capacity(HEADER_LEN + 4 * (n + 1) + 4 * 2 * m + 4 * attr_words + CHECKSUM_LEN);
    out.extend_from_slice(&BINARY_MAGIC);
    push_u32(&mut out, BINARY_VERSION);
    push_u64(&mut out, n as u64);
    push_u64(&mut out, m as u64);
    push_u32(&mut out, w as u32);
    let mut offset = 0u32;
    push_u32(&mut out, 0);
    for v in g.nodes() {
        offset += g.degree(v) as u32;
        push_u32(&mut out, offset);
    }
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            push_u32(&mut out, u);
        }
    }
    if w > 0 {
        for v in g.nodes() {
            push_u32(&mut out, g.attribute_code(v));
        }
    }
    let checksum = fnv1a64(&out);
    push_u64(&mut out, checksum);
    out
}

/// Returns `true` when `bytes` start with the binary graph magic — the
/// format auto-detection used by [`load_frozen_file`].
#[must_use]
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= BINARY_MAGIC.len() && bytes[..BINARY_MAGIC.len()] == BINARY_MAGIC
}

/// Parses a binary `.agb` graph into a validated [`FrozenGraph`] over an
/// owned copy of its words.
///
/// Every malformation maps to a typed [`GraphError`]: wrong magic, a newer
/// format version, a payload shorter than the header implies, a checksum
/// mismatch, and any structural CSR inconsistency a checksum-valid file
/// might still encode.
pub fn from_binary(bytes: &[u8]) -> Result<FrozenGraph> {
    crate::mmap::parse_bytes(bytes, true)
}

/// Writes a graph to a file in the binary `.agb` format.
pub fn write_binary_file<G: GraphView, P: AsRef<Path>>(g: &G, path: P) -> Result<()> {
    fs::write(path, to_binary(g))?;
    Ok(())
}

/// Reads a binary `.agb` graph file into a [`FrozenGraph`].
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<FrozenGraph> {
    let bytes = fs::read(path)?;
    from_binary(&bytes)
}

/// Loads a graph file in either format (auto-detected from the leading
/// bytes) as a frozen snapshot: `.agb` files go through
/// [`FrozenGraph::open`] (the verified tier, memory-mapped where the
/// platform allows), text files are parsed and frozen.
pub fn load_frozen_file<P: AsRef<Path>>(path: P) -> Result<FrozenGraph> {
    let path = path.as_ref();
    let mut file = fs::File::open(path)?;
    let mut magic = [0u8; BINARY_MAGIC.len()];
    if file.read_exact(&mut magic).is_ok() && magic == BINARY_MAGIC {
        return FrozenGraph::open(path);
    }
    let mut bytes = Vec::new();
    file.rewind()?;
    file.read_to_end(&mut bytes)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| GraphError::Format("graph file is neither binary nor UTF-8 text".into()))?;
    Ok(from_text(&text)?.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> AttributedGraph {
        let mut g = AttributedGraph::new(4, AttributeSchema::new(2));
        g.set_attribute_code(0, 1).unwrap();
        g.set_attribute_code(1, 3).unwrap();
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g
    }

    #[test]
    fn text_roundtrip_preserves_graph() {
        let g = sample_graph();
        let text = to_text(&g);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.num_nodes(), g.num_nodes());
        assert_eq!(parsed.num_edges(), g.num_edges());
        assert_eq!(parsed.attribute_codes(), g.attribute_codes());
        assert_eq!(parsed.edge_vec(), g.edge_vec());
    }

    #[test]
    fn parser_ignores_comments_blank_lines_and_noise_edges() {
        let text = "# a comment\n\nnodes 3 1\nattr 0 1\nedge 0 1\nedge 1 0\nedge 2 2\nedge 1 2\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.attribute_code(0), 1);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(from_text("").is_err());
        assert!(from_text("edge 0 1\n").is_err());
        assert!(from_text("nodes x 2\n").is_err());
        assert!(from_text("nodes 3 1\nattr 0 2\n").is_err());
        assert!(from_text("nodes 3 1\nbogus 1 2\n").is_err());
        assert!(from_text("nodes 3 1\nedge 0\n").is_err());
        assert!(from_text("nodes 2 17\n").is_err());
        assert!(from_text("nodes 2 1\nedge 0 9\n").is_err());
        assert!(from_text("nodes 2 1\nattr 7 1\n").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join("agmdp_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.graph");
        write_file(&g, &path).unwrap();
        let parsed = read_file(&path).unwrap();
        assert_eq!(parsed, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let err = read_file("/definitely/not/a/real/path.graph").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn binary_roundtrip_preserves_graph() {
        let g = sample_graph();
        let frozen = g.freeze();
        let bytes = to_binary(&g);
        assert!(is_binary(&bytes));
        let parsed = from_binary(&bytes).unwrap();
        assert_eq!(parsed, frozen);
        // Serialising the frozen snapshot is byte-identical to serialising
        // the mutable original.
        assert_eq!(to_binary(&frozen), bytes);
        // Text render of both representations agrees too.
        assert_eq!(to_text(&frozen), to_text(&g));
    }

    #[test]
    fn binary_roundtrip_of_unattributed_and_empty_graphs() {
        for g in [
            AttributedGraph::unattributed(0),
            AttributedGraph::unattributed(5),
            sample_graph(),
        ] {
            let parsed = from_binary(&to_binary(&g)).unwrap();
            assert_eq!(parsed.thaw(), g);
        }
    }

    #[test]
    fn binary_file_roundtrip_and_autodetection() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join(format!("agmdp_graph_bin_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("roundtrip.agb");
        let txt_path = dir.join("roundtrip.graph");
        write_binary_file(&g, &bin_path).unwrap();
        write_file(&g, &txt_path).unwrap();
        assert_eq!(read_binary_file(&bin_path).unwrap(), g.freeze());
        // Auto-detection loads both formats through one entry point.
        assert_eq!(load_frozen_file(&bin_path).unwrap(), g.freeze());
        assert_eq!(load_frozen_file(&txt_path).unwrap(), g.freeze());
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&txt_path).ok();
    }

    #[test]
    fn unattributed_graph_omits_attr_lines() {
        let g = AttributedGraph::unattributed(2);
        let text = to_text(&g);
        assert!(!text.contains("attr"));
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.num_nodes(), 2);
    }
}
