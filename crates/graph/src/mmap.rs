//! The storage under [`FrozenGraph`] and the one `.agb` parser.
//!
//! The `.agb` payload (see [`crate::io`]) *is* the CSR arrays of a
//! [`FrozenGraph`] in little-endian byte order, so a frozen graph is a `u32`
//! word buffer plus the word ranges of its three sections. The buffer is
//! either an owned vector (freezing, owned deserialisation) or a read-only
//! memory mapping of the file, which is viewed in place:
//!
//! * [`Mapping`] is the unsafe island (mirroring `agmdp-service`'s `sys`
//!   module): raw `mmap`/`munmap` bindings — the container has no libc
//!   crate — on little-endian unix. Every `unsafe` block carries a SAFETY
//!   comment; nothing else in the crate may use `unsafe`
//!   (`#![deny(unsafe_code)]` with a scoped allow here). Elsewhere the file
//!   is read into an owned buffer instead.
//! * [`Words`] is the owned-or-mapped buffer a [`FrozenGraph`] holds.
//!
//! Opening a mapping with the trusted tier is O(header + offsets scan)
//! instead of O(file): a million-node release opens in under a
//! millisecond, and N processes mapping the same file share one page-cache copy of the
//! CSR arrays. Every load path — [`FrozenGraph::open`],
//! [`FrozenGraph::open_trusted`] and the owned [`crate::io::from_binary`] —
//! runs the one parser below; the [`FrozenGraph`] docs describe its two
//! validation tiers.
//!
//! A mapped file must not be truncated or rewritten in place while mapped
//! (the OS would deliver `SIGBUS`); writers must publish `.agb` artifacts
//! atomically (write to a temporary file, then rename), which is how the
//! service's release store behaves.

use std::path::Path;

use crate::attributes::AttributeSchema;
use crate::error::GraphError;
use crate::frozen::FrozenGraph;
use crate::graph::NodeId;
use crate::io::{fnv1a64, BINARY_MAGIC, BINARY_VERSION, CHECKSUM_LEN, HEADER_LEN};
use crate::Result;

/// A read-only, page-aligned memory mapping of a whole file.
#[cfg(all(unix, target_endian = "little"))]
pub(crate) struct Mapping {
    ptr: *const u8,
    len: usize,
}

#[cfg(all(unix, target_endian = "little"))]
mod unix_mmap {
    //! Raw `mmap`/`munmap` bindings against the platform libc (the container
    //! has no `libc` crate), in the same style as `agmdp-service`'s `sys`
    //! module: the smallest possible surface, every unsafe block annotated.
    use core::ffi::c_void;
    use std::fs::File;
    use std::os::fd::AsRawFd;
    use std::path::Path;

    use super::Mapping;
    use crate::error::GraphError;
    use crate::Result;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    fn map_failed() -> *mut c_void {
        // MAP_FAILED is ((void *) -1).
        usize::MAX as *mut c_void
    }

    impl Mapping {
        /// Maps `path` read-only in its entirety.
        ///
        /// Empty files are rejected up front (`mmap` of length 0 is
        /// `EINVAL`, and no valid `.agb` is shorter than its header) with
        /// the same [`GraphError::BadMagic`] the parser reports.
        pub(crate) fn open(path: &Path) -> Result<Self> {
            let file = File::open(path)?;
            let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
                GraphError::Format("graph file exceeds this platform's address space".into())
            })?;
            if len == 0 {
                return Err(GraphError::BadMagic);
            }
            // SAFETY: plain FFI call. A PROT_READ + MAP_PRIVATE mapping of a
            // file we own a handle to has no preconditions beyond a valid
            // fd, which `file` guarantees; the result is checked below.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == map_failed() || ptr.is_null() {
                return Err(GraphError::Io(format!(
                    "mmap of {} failed: {}",
                    path.display(),
                    std::io::Error::last_os_error()
                )));
            }
            // Closing `file` on return is fine: POSIX keeps the mapping
            // alive independently of the descriptor.
            Ok(Self {
                ptr: ptr.cast::<u8>().cast_const(),
                len,
            })
        }

        /// The mapped bytes.
        pub(crate) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is the non-null base of a live PROT_READ mapping
            // of exactly `len` bytes (established in `open`, released only
            // in `drop`), and u8 has no alignment or validity requirements.
            unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// The mapped bytes as little-endian `u32` words (a trailing partial
        /// word, which no valid `.agb` has, is left out).
        #[inline]
        pub(crate) fn words(&self) -> &[u32] {
            // SAFETY: `ptr` is the base of a live mapping of `len` bytes, and
            // mappings are page-aligned, hence 4-byte aligned; `len / 4`
            // words lie inside it; every bit pattern is a valid u32. This
            // module compiles only for little-endian targets, where the
            // words read back exactly the values `to_binary` wrote.
            unsafe { core::slice::from_raw_parts(self.ptr.cast::<u32>(), self.len / 4) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe exactly the region `mmap`
            // returned in `open`, unmapped exactly once (Drop). Failure is
            // ignored: there is no recovery from a bad munmap and the
            // process will release the region at exit anyway.
            unsafe {
                munmap(self.ptr.cast_mut().cast(), self.len);
            }
        }
    }

    // SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime,
    // so shared references from any thread observe frozen bytes; the raw
    // pointer is owned uniquely by this struct.
    unsafe impl Send for Mapping {}
    // SAFETY: as above — concurrent reads of an immutable mapping are safe.
    unsafe impl Sync for Mapping {}
}

#[cfg(all(unix, target_endian = "little"))]
impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping").field("len", &self.len).finish()
    }
}

/// The word buffer a [`FrozenGraph`] reads its CSR sections from.
#[derive(Debug)]
pub(crate) enum Words {
    /// Owned words: a freeze, an owned deserialisation or a clone.
    Owned(Vec<u32>),
    /// A zero-copy mapping of an `.agb` file.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(Mapping),
}

impl Words {
    /// The buffer's words.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            Words::Owned(words) => words,
            #[cfg(all(unix, target_endian = "little"))]
            Words::Mapped(mapping) => mapping.words(),
        }
    }

    /// Whether the words live in a memory mapping.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            Words::Owned(_) => false,
            #[cfg(all(unix, target_endian = "little"))]
            Words::Mapped(_) => true,
        }
    }
}

impl Clone for Words {
    /// Cloning copies the words into an owned buffer.
    fn clone(&self) -> Self {
        Words::Owned(self.as_slice().to_vec())
    }
}

/// Words of the `.agb` header, where the offsets section starts.
const HEADER_WORDS: usize = HEADER_LEN / 4;

impl FrozenGraph {
    /// Opens an `.agb` file with the **verified** tier (layout, checksum,
    /// every structural CSR invariant; see the [type docs](FrozenGraph)),
    /// accepting and rejecting exactly the files
    /// [`crate::io::read_binary_file`] does. On little-endian unix the file
    /// is memory-mapped, not copied. Use for untrusted input paths.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        load(path.as_ref(), true)
    }

    /// Opens an `.agb` file with the **trusted** tier: layout plus an O(n)
    /// offsets scan only — microseconds-to-milliseconds for a million-node
    /// graph. For artifacts the caller itself wrote (see the type docs' trust
    /// contract).
    pub fn open_trusted<P: AsRef<Path>>(path: P) -> Result<Self> {
        load(path.as_ref(), false)
    }
}

#[cfg(all(unix, target_endian = "little"))]
fn load(path: &Path, verify: bool) -> Result<FrozenGraph> {
    let mapping = Mapping::open(path)?;
    let layout = check_image(mapping.bytes(), verify)?;
    from_words(Words::Mapped(mapping), layout, verify)
}

#[cfg(not(all(unix, target_endian = "little")))]
fn load(path: &Path, verify: bool) -> Result<FrozenGraph> {
    // No mapping path here: read the file and parse it into owned words.
    parse_bytes(&std::fs::read(path)?, verify)
}

/// Parses an `.agb` byte image into a graph over an owned copy of its
/// words (the [`crate::io::from_binary`] path).
pub(crate) fn parse_bytes(bytes: &[u8], verify: bool) -> Result<FrozenGraph> {
    let layout = check_image(bytes, verify)?;
    let words = bytes
        .chunks_exact(4)
        .map(|c| <[u8; 4]>::try_from(c).map(u32::from_le_bytes))
        .collect::<std::result::Result<Vec<u32>, _>>()
        .map_err(|_| GraphError::Format("binary graph word out of bounds".into()))?;
    from_words(Words::Owned(words), layout, verify)
}

/// The section geometry a validated `.agb` header implies.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Node count `n`.
    n: usize,
    /// Undirected edge count `m`.
    m: usize,
    /// Attribute width `w` (0 ⇒ no attribute section).
    width: usize,
}

/// Validates the header and overall length of an `.agb` byte image (magic,
/// version, dimension limits, truncation, trailing bytes) and, for the
/// verified tier, its trailing checksum.
fn check_image(bytes: &[u8], verify: bool) -> Result<Layout> {
    if bytes.get(..BINARY_MAGIC.len()) != Some(BINARY_MAGIC.as_slice()) {
        return Err(GraphError::BadMagic);
    }
    let truncated = |expected: usize| GraphError::TruncatedBinary {
        expected,
        actual: bytes.len(),
    };
    let field = |at: usize, len: usize| {
        bytes
            .get(at..at + len)
            .map(|b| {
                b.iter()
                    .rev()
                    .fold(0u64, |acc, &x| (acc << 8) | u64::from(x))
            })
            .ok_or_else(|| truncated(HEADER_LEN))
    };
    let version = field(4, 4)?;
    if version != u64::from(BINARY_VERSION) {
        return Err(GraphError::UnsupportedVersion {
            found: version as u32,
            supported: BINARY_VERSION,
        });
    }
    let (n, m, width) = (field(8, 8)?, field(16, 8)?, field(24, 4)?);
    if width > 16 {
        return Err(GraphError::Format(format!(
            "binary graph attribute width {width} exceeds 16"
        )));
    }
    if n > u64::from(u32::MAX) || m.checked_mul(2).is_none_or(|h| h > u64::from(u32::MAX)) {
        return Err(GraphError::Format(format!(
            "binary graph dimensions n={n}, m={m} exceed the 32-bit CSR limits"
        )));
    }
    // In u64 the sizes cannot overflow (n and 2m are below 2^32); the file
    // must still fit this platform's address space.
    let attr_words = if width > 0 { n } else { 0 };
    let total_len = (HEADER_LEN + CHECKSUM_LEN) as u64 + 4 * (n + 1 + 2 * m + attr_words);
    let (Ok(total_len), Ok(n), Ok(m)) = (
        usize::try_from(total_len),
        usize::try_from(n),
        usize::try_from(m),
    ) else {
        return Err(GraphError::Format(
            "binary graph exceeds this platform's address space".into(),
        ));
    };
    let layout = Layout {
        n,
        m,
        width: width as usize,
    };
    if bytes.len() < total_len {
        return Err(truncated(total_len));
    }
    if bytes.len() > total_len {
        return Err(GraphError::Format(format!(
            "binary graph has {} trailing bytes after the checksum",
            bytes.len() - total_len
        )));
    }
    if verify {
        let (body, tail) = bytes
            .split_at_checked(total_len - CHECKSUM_LEN)
            .ok_or_else(|| truncated(total_len))?;
        let stored = tail
            .iter()
            .rev()
            .fold(0u64, |acc, &x| (acc << 8) | u64::from(x));
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(GraphError::ChecksumMismatch { stored, computed });
        }
    }
    Ok(layout)
}

/// Builds the graph over a checked image's words and validates its CSR
/// contents at the requested tier.
fn from_words(words: Words, layout: Layout, verify: bool) -> Result<FrozenGraph> {
    let schema = AttributeSchema::new(layout.width);
    let graph = FrozenGraph::over(schema, words, HEADER_WORDS, layout.n, layout.m)
        .ok_or_else(|| GraphError::Format("binary graph sections exceed the file".into()))?;
    let (offsets, neighbors, attributes) = graph.sections();
    validate_offsets(offsets, neighbors.len())?;
    if verify {
        validate_lists(offsets, neighbors)?;
        for &code in attributes {
            schema.validate_code(code)?;
        }
    }
    Ok(graph)
}

fn invalid(msg: String) -> GraphError {
    GraphError::Format(format!("invalid CSR graph: {msg}"))
}

/// The offsets scan every load runs: start at 0, never decrease, end at the
/// neighbor count. It is what keeps every neighbor slice in bounds.
fn validate_offsets(offsets: &[u32], half_edges: usize) -> Result<()> {
    if offsets.first() != Some(&0) {
        return Err(invalid("offsets must start at 0".into()));
    }
    if offsets.last().map(|&o| o as usize) != Some(half_edges) {
        return Err(invalid(format!(
            "final offset does not match {half_edges} neighbor entries"
        )));
    }
    if offsets
        .iter()
        .zip(offsets.iter().skip(1))
        .any(|(a, b)| b < a)
    {
        return Err(invalid("offsets must be non-decreasing".into()));
    }
    Ok(())
}

/// The verified tier's structural checks over offset-checked sections: every
/// neighbor list strictly sorted, in range and self-loop-free, and every
/// half-edge mirrored. `AttributedGraph::check_consistency` runs them over
/// its freeze.
pub(crate) fn validate_lists(offsets: &[u32], neighbors: &[NodeId]) -> Result<()> {
    let n = offsets.len().saturating_sub(1);
    for v in 0..n {
        let mut prev: Option<NodeId> = None;
        for &u in list(offsets, neighbors, v) {
            if (u as usize) >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    num_nodes: n,
                });
            }
            if u as usize == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            if prev.is_some_and(|p| p >= u) {
                return Err(invalid(format!(
                    "neighbor list of node {v} is not strictly sorted"
                )));
            }
            prev = Some(u);
        }
    }
    let mut cursors: Vec<u32> = offsets.iter().take(n).copied().collect();
    for v in 0..n {
        for &u in list(offsets, neighbors, v) {
            let mirrored = match (cursors.get_mut(u as usize), offsets.get(u as usize + 1)) {
                (Some(at), Some(&end)) if *at < end => {
                    let hit = neighbors.get(*at as usize) == Some(&(v as NodeId));
                    *at += 1;
                    hit
                }
                _ => false,
            };
            if !mirrored {
                return Err(invalid(format!("edge ({v}, {u}) is not symmetric")));
            }
        }
    }
    Ok(())
}

/// Node `v`'s neighbor list (empty when out of range).
fn list<'a>(offsets: &[u32], neighbors: &'a [NodeId], v: usize) -> &'a [NodeId] {
    match (offsets.get(v), offsets.get(v + 1)) {
        (Some(&start), Some(&end)) => neighbors.get(start as usize..end as usize).unwrap_or(&[]),
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AttributedGraph;
    use crate::io;
    use crate::view::GraphView;

    fn sample_graph() -> AttributedGraph {
        let mut g = AttributedGraph::new(6, AttributeSchema::new(2));
        g.set_all_attribute_codes(&[0, 1, 2, 3, 1, 0]).unwrap();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    fn temp_agb(name: &str, g: &AttributedGraph) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("agmdp_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        io::write_binary_file(g, &path).unwrap();
        path
    }

    /// An `.agb` image of raw CSR arrays, with a valid checksum.
    fn image(width: u32, offsets: &[u32], neighbors: &[u32], attributes: &[u32]) -> Vec<u8> {
        let n = offsets.len() as u64 - 1;
        let m = neighbors.len() as u64 / 2;
        let mut bytes = BINARY_MAGIC.to_vec();
        bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&m.to_le_bytes());
        bytes.extend_from_slice(&width.to_le_bytes());
        for w in offsets.iter().chain(neighbors).chain(attributes) {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn mapped_graph_matches_owned_deserialisation() {
        let g = sample_graph();
        let frozen = g.freeze();
        let path = temp_agb("match_owned.agb", &g);
        for mapped in [
            FrozenGraph::open(&path).unwrap(),
            FrozenGraph::open_trusted(&path).unwrap(),
        ] {
            assert_eq!(
                mapped.is_mapped(),
                cfg!(all(unix, target_endian = "little"))
            );
            assert_eq!(mapped, frozen);
            for v in frozen.nodes() {
                assert_eq!(mapped.neighbors(v), frozen.neighbors(v));
                assert_eq!(mapped.degree(v), frozen.degree(v));
                assert_eq!(mapped.attribute_code(v), frozen.attribute_code(v));
            }
            assert_eq!(io::to_text(&mapped), io::to_text(&frozen));
            assert_eq!(
                mapped.byte_len(),
                std::fs::metadata(&path).unwrap().len() as usize
            );
            let copy = mapped.clone();
            assert!(!copy.is_mapped());
            assert_eq!(copy, mapped);
        }
        assert!(!frozen.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = FrozenGraph::open("/definitely/not/here.agb").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn open_empty_file_is_bad_magic() {
        let dir = std::env::temp_dir().join(format!("agmdp_mmap_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.agb");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            FrozenGraph::open(&path).unwrap_err(),
            GraphError::BadMagic
        ));
        assert!(matches!(
            FrozenGraph::open_trusted(&path).unwrap_err(),
            GraphError::BadMagic
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parser_accepts_valid_and_rejects_broken_csr() {
        let parse = |width, offsets: &[u32], neighbors: &[u32], attributes: &[u32]| {
            parse_bytes(&image(width, offsets, neighbors, attributes), true)
        };
        let g = parse(0, &[0, 1, 2], &[1, 0], &[]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.attribute_code(1), 0);
        // Final offset disagrees with the neighbor array.
        assert!(parse(0, &[0, 2, 1], &[1, 0], &[]).is_err());
        // Self-loop.
        assert!(matches!(
            parse(0, &[0, 2, 2], &[0, 1], &[]),
            Err(GraphError::SelfLoop { .. })
        ));
        // Asymmetric edges: 0 -> 1 without 1 -> 0 (paired with 1 -> 2), and
        // 2 -> 3 whose partner list holds 1 instead, though every list has
        // the length a symmetric graph would give it.
        assert!(parse(0, &[0, 1, 2, 2], &[1, 2], &[]).is_err());
        assert!(parse(0, &[0, 1, 2, 3, 4], &[1, 0, 3, 1], &[]).is_err());
        // Out-of-range neighbor.
        assert!(matches!(
            parse(0, &[0, 1, 2], &[5, 0], &[]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        // Unsorted neighbor list.
        assert!(parse(0, &[0, 2, 3, 4], &[2, 1, 0, 0], &[]).is_err());
        // Attribute code outside the schema.
        assert!(matches!(
            parse(1, &[0, 0], &[], &[7]),
            Err(GraphError::AttributeCodeOutOfRange { .. })
        ));
        // Decreasing offsets fail even the trusted tier.
        let bytes = image(0, &[0, 2, 1, 2], &[1, 0], &[]);
        assert!(parse_bytes(&bytes, false).is_err());
    }
}
