//! The immutable CSR graph: the one read-side representation.
//!
//! The pipeline reads the sensitive graph once, to fit the model parameters,
//! and afterwards only ever reads finished graphs — TriCycLe acceptance
//! scoring, every metric in `agmdp-metrics`, the evaluation harness, the
//! service's datasets and releases. The mutable [`AttributedGraph`] pays for
//! its insertability with slack behind every list in its arena, a per-node
//! span to find each list, and lists that move to the arena's end as they
//! grow; [`FrozenGraph`] is the same graph *frozen* into three flat sections
//! of one `u32` word buffer (compressed sparse row):
//!
//! * `offsets[v] .. offsets[v + 1]` indexes node `v`'s slice of `neighbors`,
//! * `neighbors` holds every (half-)edge endpoint, sorted within each node,
//! * `attributes[v]` is node `v`'s attribute code (absent when `w = 0`).
//!
//! Degrees become two adjacent array reads, neighbor iteration is a single
//! contiguous scan, and whole-graph traversals (triangle counting, degree
//! histograms) stream linearly through memory. Freezing is `O(n + m)` and
//! performed once per graph; thawing reconstructs an [`AttributedGraph`]
//! equal to the original.
//!
//! The sections are also the payload of the binary `.agb` interchange format
//! (see [`crate::io`]), so a `.agb` file is loaded either by memory-mapping
//! it and viewing the sections in place, or by copying its words — never by
//! re-sorting or re-indexing.

use crate::attributes::AttributeSchema;
use crate::graph::{AttributedGraph, NodeId};
use crate::io::{CHECKSUM_LEN, HEADER_LEN};
use crate::mmap::Words;
use crate::view::GraphView;

/// An immutable attributed graph in compressed-sparse-row form, over an
/// owned or memory-mapped word buffer.
///
/// Construct one with [`AttributedGraph::freeze`], by deserialising `.agb`
/// bytes ([`crate::io::from_binary`]), or by opening an `.agb` file in place
/// ([`FrozenGraph::open`], [`FrozenGraph::open_trusted`]). The section
/// bounds are fixed at construction, so [`GraphView::neighbors`] is one
/// slice of the buffer. [`GraphView`] is its read API: every analysis
/// function and every DP learner reads it in place, and its values are
/// identical to the [`AttributedGraph`] it was frozen from.
///
/// ## Validation tiers
///
/// Every `.agb` load path runs one parser. It always checks the layout
/// (magic, version, dimensions, exact length) and scans the offsets (start
/// at 0, non-decreasing, end at `2m`), which keeps every later slice access
/// in bounds. The *verified* tier ([`FrozenGraph::open`],
/// [`crate::io::from_binary`]) first checks the checksum and then every
/// structural CSR invariant: each list strictly sorted, in range and
/// self-loop-free, every edge symmetric, every attribute code valid. The
/// *trusted* tier ([`FrozenGraph::open_trusted`]) skips those; it is for
/// artifacts the caller itself wrote moments or restarts ago (e.g. a
/// service's release store). A violated trust contract can produce wrong
/// analysis results or a panic, but never memory unsafety.
///
/// ```
/// use agmdp_graph::{AttributedGraph, GraphView};
///
/// let mut g = AttributedGraph::unattributed(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// g.add_edge(2, 0).unwrap();
/// let frozen = g.freeze();
/// assert_eq!(frozen.num_edges(), 3);
/// assert_eq!(frozen.neighbors(2), &[0, 1]);
/// assert!(frozen.has_edge(0, 2));
/// assert_eq!(agmdp_graph::triangles::count_triangles(&frozen), 1);
/// assert_eq!(frozen.thaw(), g);
/// ```
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    schema: AttributeSchema,
    words: Words,
    /// Word positions in `words`: offsets are `[s[0], s[1])` (`n + 1`
    /// entries), neighbors `[s[1], s[2])` (`2m`), attribute codes
    /// `[s[2], s[3])` (`n`, or none for a width-0 schema).
    sections: [usize; 4],
}

/// Section bounds for `n` nodes and `m` edges whose offsets start at word
/// `first`.
fn section_bounds(first: usize, n: usize, m: usize, schema: AttributeSchema) -> [usize; 4] {
    let neighbors = first + n + 1;
    let attributes = neighbors + 2 * m;
    let end = attributes + if schema.width() > 0 { n } else { 0 };
    [first, neighbors, attributes, end]
}

impl FrozenGraph {
    /// Snapshots `g` into CSR form. `O(n + m)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX / 2` edges (the CSR
    /// offsets are 32-bit; at the pipeline's million-node scale this bound is
    /// three orders of magnitude away).
    #[must_use]
    pub(crate) fn from_graph(g: &AttributedGraph) -> Self {
        let (n, m) = (g.num_nodes(), g.num_edges());
        assert!(
            u32::try_from(2 * m).is_ok(),
            "graph too large to freeze: {} half-edges exceed u32 offsets",
            2 * m
        );
        let sections = section_bounds(0, n, m, g.schema());
        let mut words = Vec::with_capacity(sections[3]);
        words.push(0u32);
        let mut offset = 0u32;
        for v in g.nodes() {
            offset += g.degree(v) as u32;
            words.push(offset);
        }
        for v in g.nodes() {
            words.extend_from_slice(g.neighbors(v));
        }
        if g.schema().width() > 0 {
            words.extend_from_slice(g.attribute_codes());
        }
        Self {
            schema: g.schema(),
            words: Words::Owned(words),
            sections,
        }
    }

    /// A graph over `words` whose sections start at word `first` — `n + 1`
    /// offsets, `2m` neighbors, then `n` attribute codes when the schema has
    /// attributes — or `None` if they do not fit. Bounds only: the `.agb`
    /// parser validates the contents.
    pub(crate) fn over(
        schema: AttributeSchema,
        words: Words,
        first: usize,
        n: usize,
        m: usize,
    ) -> Option<Self> {
        let sections = section_bounds(first, n, m, schema);
        (sections[3] <= words.as_slice().len()).then_some(Self {
            schema,
            words,
            sections,
        })
    }

    /// The raw CSR sections `(offsets, neighbors, attributes)`;
    /// `attributes` is empty for a width-0 schema.
    #[inline]
    pub(crate) fn sections(&self) -> (&[u32], &[NodeId], &[u32]) {
        let words = self.words.as_slice();
        let [o, nb, a, end] = self.sections;
        (&words[o..nb], &words[nb..a], &words[a..end])
    }

    /// The offsets and neighbors sections — the hot-path half of
    /// [`FrozenGraph::sections`].
    #[inline]
    fn csr(&self) -> (&[u32], &[NodeId]) {
        let words = self.words.as_slice();
        let [o, nb, a, _] = self.sections;
        (&words[o..nb], &words[nb..a])
    }

    /// Reconstructs a mutable [`AttributedGraph`] equal to the graph this
    /// snapshot was frozen from (adjacency lists come back sorted, so
    /// `frozen.thaw() == original` holds exactly).
    #[must_use]
    pub fn thaw(&self) -> AttributedGraph {
        let mut g = AttributedGraph::new(self.num_nodes(), self.schema);
        let (_, _, attributes) = self.sections();
        if !attributes.is_empty() {
            g.set_all_attribute_codes(attributes)
                .expect("frozen attribute codes are schema-valid");
        }
        for e in self.edges() {
            g.add_edge(e.u, e.v)
                .expect("frozen snapshot contains no duplicate edges or self-loops");
        }
        g
    }

    /// The graph itself. The repository benchmark (`perfbench/`) reads
    /// counts through `MappedGraph::open(..)?.view()`; this keeps that call
    /// compiling.
    #[must_use]
    pub fn view(&self) -> &Self {
        self
    }

    /// Number of nodes: [`GraphView::num_nodes`], kept inherent because the
    /// repository benchmark (`perfbench/`) calls it without importing
    /// `GraphView`.
    #[must_use]
    #[inline]
    pub fn num_nodes(&self) -> usize {
        GraphView::num_nodes(self)
    }

    /// Number of edges: [`GraphView::num_edges`], kept inherent because the
    /// repository benchmark (`perfbench/`) calls it without importing
    /// `GraphView`.
    #[must_use]
    #[inline]
    pub fn num_edges(&self) -> usize {
        GraphView::num_edges(self)
    }

    /// Whether this graph is served zero-copy from a memory mapping (`false`
    /// for frozen and deserialised graphs, and for every graph on hosts
    /// without the mapping path).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.words.is_mapped()
    }

    /// Size in bytes of the graph's `.agb` image (the file it was mapped
    /// from, or the one [`crate::io::to_binary`] would write).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        HEADER_LEN + 4 * (self.sections[3] - self.sections[0]) + CHECKSUM_LEN
    }
}

/// Logical equality: same schema and identical CSR sections, whether the
/// words are owned or mapped.
impl PartialEq for FrozenGraph {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.sections() == other.sections()
    }
}

// `#[inline]` on the accessors lets the generic metric and learner code in
// other crates inline them: each one dispatches on the buffer kind and
// slices a section, which is more than the compiler inlines across crates
// unprompted.
impl GraphView for FrozenGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.sections[1] - self.sections[0] - 1
    }
    #[inline]
    fn num_edges(&self) -> usize {
        (self.sections[2] - self.sections[1]) / 2
    }
    #[inline]
    fn schema(&self) -> AttributeSchema {
        self.schema
    }
    /// A contiguous slice of the CSR neighbors section.
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (offsets, neighbors) = self.csr();
        let v = v as usize;
        &neighbors[offsets[v] as usize..offsets[v + 1] as usize]
    }
    /// 0 for every node of a width-0 schema, which stores no attribute
    /// section.
    #[inline]
    fn attribute_code(&self, v: NodeId) -> u32 {
        let [_, _, a, end] = self.sections;
        match self.words.as_slice()[a..end].get(v as usize) {
            Some(&code) => code,
            None => {
                let n = GraphView::num_nodes(self);
                assert!((v as usize) < n, "node id {v} out of range for {n} nodes");
                0
            }
        }
    }
    /// Two adjacent offset reads, no indirection.
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        let (offsets, _) = self.csr();
        let v = v as usize;
        (offsets[v + 1] - offsets[v]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;

    fn sample() -> AttributedGraph {
        let mut g = AttributedGraph::new(5, AttributeSchema::new(2));
        g.set_all_attribute_codes(&[0, 1, 2, 3, 1]).unwrap();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    #[test]
    fn freeze_preserves_every_read_accessor() {
        let g = sample();
        let f = g.freeze();
        assert_eq!(f.num_nodes(), g.num_nodes());
        assert_eq!(f.num_edges(), g.num_edges());
        assert_eq!(f.schema(), g.schema());
        assert_eq!(f.max_degree(), g.max_degree());
        assert_eq!(f.avg_degree(), g.avg_degree());
        assert_eq!(f.degrees(), g.degrees());
        for v in g.nodes() {
            assert_eq!(f.neighbors(v), g.neighbors(v));
            assert_eq!(f.degree(v), g.degree(v));
            assert_eq!(f.attribute_code(v), g.attribute_code(v));
        }
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(f.has_edge(u, v), g.has_edge(u, v));
                if u != v {
                    assert_eq!(f.common_neighbor_count(u, v), g.common_neighbor_count(u, v));
                    assert_eq!(f.edge_config(u, v), g.edge_config(u, v));
                }
            }
        }
        let fe: Vec<Edge> = f.edges().collect();
        assert_eq!(fe, g.edge_vec());
        assert_eq!(f.byte_len(), crate::io::to_binary(&g).len());
    }

    #[test]
    fn thaw_roundtrips_exactly() {
        let g = sample();
        assert_eq!(g.freeze().thaw(), g);
        let empty = AttributedGraph::unattributed(0);
        assert_eq!(empty.freeze().thaw(), empty);
        let isolated = AttributedGraph::unattributed(3);
        assert_eq!(isolated.freeze().thaw(), isolated);
    }

    #[test]
    fn empty_and_edgeless_graphs_freeze() {
        let f = AttributedGraph::unattributed(0).freeze();
        assert_eq!(f.num_nodes(), 0);
        assert_eq!(f.num_edges(), 0);
        assert_eq!(f.max_degree(), 0);
        assert_eq!(f.avg_degree(), 0.0);
        assert_eq!(f.edges().count(), 0);
        let f = AttributedGraph::unattributed(4).freeze();
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.degrees(), vec![0; 4]);
        assert_eq!(f.attribute_code(3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn attribute_code_of_a_missing_node_panics() {
        let _ = AttributedGraph::unattributed(2).freeze().attribute_code(2);
    }

    #[test]
    fn equality_compares_content() {
        let f = sample().freeze();
        assert_eq!(f.clone(), f);
        let mut other = sample();
        other.set_attribute_code(4, 0).unwrap();
        assert_ne!(other.freeze(), f);
        assert_ne!(AttributedGraph::unattributed(5).freeze(), f);
    }

    #[test]
    fn generic_consumers_accept_both_representations() {
        fn wedge_sum<G: GraphView>(g: &G) -> usize {
            g.degree_iter().map(|d| d * d.saturating_sub(1) / 2).sum()
        }
        let g = sample();
        assert_eq!(wedge_sum(&g), wedge_sum(&g.freeze()));
    }
}
