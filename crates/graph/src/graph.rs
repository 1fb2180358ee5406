//! The [`AttributedGraph`] representation.
//!
//! An `AttributedGraph` is an undirected, unweighted simple graph with a fixed
//! node set `{0, …, n-1}` and a `w`-bit attribute code on every node
//! (Section 2.1 of the paper). Adjacency is stored as sorted neighbor lists,
//! which keeps edge existence queries at `O(log d)`, neighbor iteration
//! allocation-free, and common-neighbor counting at `O(d_u + d_v)` for
//! similar degrees and `O(min · log(max / min))` when one endpoint is a hub
//! ([`sorted_intersection_count`](crate::view::sorted_intersection_count))
//! — the operations that dominate TriCycLe generation and triangle counting.
//! Every read goes through the [`GraphView`] impl below.
//!
//! All lists live in one `Vec<NodeId>` arena. Each node owns a private span
//! of it — a start, a length and a capacity, all `u32` — so a rewiring step
//! reads a 12-byte span and then its list, with no per-node heap header or
//! allocation. Removing a neighbor shifts the rest of its span left; adding
//! one shifts right into the span's slack. A full list moves to the arena's
//! end with doubled capacity, leaving a hole behind; once the holes pass half
//! the slots the spans cover, the arena is compacted back into node order.
//! [`from_unique_edges`] lays the lists out in node order by a counting sort
//! on the source node, each with a quarter of its length plus two slots of
//! slack, so a list can grow that much under TriCycLe's rewiring before it
//! moves. Offsets are checked: a graph whose arena would pass `u32::MAX`
//! slots is refused with [`GraphError::ArenaOverflow`].
//!
//! [`from_unique_edges`]: AttributedGraph::from_unique_edges

use serde::Serialize;

use crate::attributes::AttributeSchema;
use crate::error::GraphError;
use crate::frozen::FrozenGraph;
use crate::mmap::validate_lists;
use crate::view::GraphView;
use crate::Result;

/// Dense node identifier in `0..n`.
pub type NodeId = u32;

/// An undirected edge; stored with `u <= v` by convention when enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Edge {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates an edge, normalising so that `u <= v`.
    #[must_use]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Self { u: a, v: b }
        } else {
            Self { u: b, v: a }
        }
    }

    /// Returns the endpoint that is not `x`, or `None` if `x` is not an endpoint.
    #[must_use]
    pub fn other(&self, x: NodeId) -> Option<NodeId> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }
}

/// The smallest capacity a list gets when it first grows.
const MIN_CAPACITY: usize = 4;

/// [`AttributedGraph::from_unique_edges`] gives a list of length `d`
/// `d / SLACK_DIVISOR + MIN_SLACK` free slots.
const SLACK_DIVISOR: usize = 4;

/// See [`SLACK_DIVISOR`].
const MIN_SLACK: usize = 2;

/// A full list's capacity is multiplied by this when it moves.
const GROWTH: usize = 2;

/// A node's list in the arena: `arena[start..start + len]`, sorted, with
/// `cap - len` slack slots behind it that no other span covers.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// An undirected, unweighted, simple graph with binary node attributes.
///
/// See the [crate-level documentation](crate) for an example. Two graphs are
/// equal when their schemas, attribute codes and neighbor lists are; where
/// the lists sit in the arena does not matter.
#[derive(Debug, Clone)]
pub struct AttributedGraph {
    schema: AttributeSchema,
    /// Every neighbor list, addressed by `spans`; slots no span covers are
    /// holes left by lists that moved.
    arena: Vec<NodeId>,
    /// `spans[u]` locates the neighbors of `u`, in increasing order.
    spans: Vec<Span>,
    /// Arena slots covered by no span: `arena.len() - Σ cap`.
    holes: usize,
    /// Attribute code of each node (`f_w` encoding).
    attributes: Vec<u32>,
    /// Number of undirected edges currently in the graph.
    num_edges: usize,
}

impl PartialEq for AttributedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.attributes == other.attributes
            && self.num_edges == other.num_edges
            && self
                .nodes()
                .all(|v| self.neighbors(v) == other.neighbors(v))
    }
}

/// `start + cap` as a `u32` arena bound, or [`GraphError::ArenaOverflow`].
fn arena_end(start: usize, cap: usize) -> Result<u32> {
    start
        .checked_add(cap)
        .and_then(|end| u32::try_from(end).ok())
        .ok_or(GraphError::ArenaOverflow {
            slots: start.saturating_add(cap),
        })
}

impl AttributedGraph {
    /// Creates an empty graph with `n` isolated nodes, all with attribute code 0.
    #[must_use]
    pub fn new(n: usize, schema: AttributeSchema) -> Self {
        Self {
            schema,
            arena: Vec::new(),
            spans: vec![Span::default(); n],
            holes: 0,
            attributes: vec![0; n],
            num_edges: 0,
        }
    }

    /// Creates an empty unattributed graph (`w = 0`) with `n` isolated nodes.
    #[must_use]
    pub fn unattributed(n: usize) -> Self {
        Self::new(n, AttributeSchema::new(0))
    }

    /// Builds a graph in one shot from edges that are already known to be
    /// **unique and self-loop-free** (e.g. the deduplicated output of the
    /// chunked edge sampler). Costs `O(n + m log d_max)` with sequential
    /// passes instead of `m` binary-search-and-shift insertions, which is
    /// what makes bulk loads of millions of edges cheap: a counting sort on
    /// the source node lays the lists out back to back in node order, each
    /// followed by its slack, then each list is sorted in place. Canonical
    /// edges in increasing `(u, v)` order fill every list in increasing
    /// order, so its sort is one pass. Any order builds the same graph.
    ///
    /// The preconditions are verified, not trusted: out-of-range endpoints,
    /// self-loops and duplicates all error (the duplicate check is a free
    /// by-product of sorting the adjacency lists), and so does an edge set
    /// whose lists and slack pass `u32::MAX` arena slots.
    pub fn from_unique_edges<I>(n: usize, schema: AttributeSchema, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = Edge>,
        I::IntoIter: Clone + ExactSizeIterator,
    {
        let edges = edges.into_iter();
        let num_edges = edges.len();
        arena_end(num_edges, num_edges)?;
        let mut spans = vec![Span::default(); n];
        for e in edges.clone() {
            for node in [e.u, e.v] {
                if node as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node, num_nodes: n });
                }
            }
            if e.u == e.v {
                return Err(GraphError::SelfLoop { node: e.u });
            }
            spans[e.u as usize].cap += 1;
            spans[e.v as usize].cap += 1;
        }
        // `cap` holds the node's degree, which the check above keeps in a
        // `u32`; give it slack and place it.
        let mut next = 0u32;
        for span in &mut spans {
            let degree = span.cap as usize;
            span.start = next;
            next = arena_end(next as usize, degree + degree / SLACK_DIVISOR + MIN_SLACK)?;
            span.cap = next - span.start;
        }
        let mut arena = vec![0; next as usize];
        for e in edges {
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                let span = &mut spans[from as usize];
                arena[(span.start + span.len) as usize] = to;
                span.len += 1;
            }
        }
        for (u, span) in spans.iter().enumerate() {
            let list = &mut arena[span.range()];
            list.sort_unstable();
            if let Some(pair) = list.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(GraphError::DuplicateEdge {
                    u: u as NodeId,
                    v: pair[0],
                });
            }
        }
        Ok(Self {
            schema,
            arena,
            spans,
            holes: 0,
            attributes: vec![0; n],
            num_edges,
        })
    }

    /// The attribute schema: [`GraphView::schema`], kept inherent because
    /// the repository benchmark (`perfbench/`) calls it without importing
    /// `GraphView`.
    #[must_use]
    pub fn schema(&self) -> AttributeSchema {
        GraphView::schema(self)
    }

    /// Number of nodes: [`GraphView::num_nodes`], kept inherent because the
    /// repository benchmark (`perfbench/`) calls it without importing
    /// `GraphView`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        GraphView::num_nodes(self)
    }

    /// The degrees of all nodes: [`GraphView::degrees`], kept inherent
    /// because the repository benchmark (`perfbench/`) calls it without
    /// importing `GraphView`.
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        GraphView::degrees(self)
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes(),
            })
        }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Returns an error on self-loops, duplicate edges, or out-of-range nodes,
    /// and [`GraphError::ArenaOverflow`] if a list would have to move past
    /// `u32::MAX` arena slots; the graph's edges are unchanged on every error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let Err(pos_u) = self.neighbors(u).binary_search(&v) else {
            return Err(GraphError::DuplicateEdge { u, v });
        };
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        // Moving a list keeps its contents, so a failure on `v` after `u`
        // moved leaves the same graph.
        self.reserve_one(u)?;
        self.reserve_one(v)?;
        self.insert_at(u, pos_u, v);
        self.insert_at(v, pos_v, u);
        self.num_edges += 1;
        Ok(())
    }

    /// Makes room for one more neighbor of `node`: a full list moves to the
    /// arena's end (or grows in place if it is already there) with
    /// `GROWTH` times its capacity, at least `MIN_CAPACITY`.
    fn reserve_one(&mut self, node: NodeId) -> Result<()> {
        let span = self.spans[node as usize];
        if span.len < span.cap {
            return Ok(());
        }
        let cap = (span.cap as usize).saturating_mul(GROWTH).max(MIN_CAPACITY);
        let at_end = span.start as usize + span.cap as usize == self.arena.len();
        let start = if at_end {
            span.start as usize
        } else {
            self.arena.len()
        };
        let end = arena_end(start, cap)?;
        if !at_end {
            self.arena.extend_from_within(span.range());
            self.holes += span.cap as usize;
        }
        self.arena.resize(end as usize, 0);
        // `start ≤ end`, and `end` fits a `u32`.
        self.spans[node as usize] = Span {
            start: start as u32,
            len: span.len,
            cap: end - start as u32,
        };
        // A move adds its old capacity both to the holes and to the covered
        // slots, so holes alone never pass half the arena; compact once they
        // pass half the covered slots (a third of the arena).
        if 3 * self.holes > self.arena.len() {
            self.compact();
        }
        Ok(())
    }

    /// Rewrites the arena without holes, lists in node order, each keeping
    /// its capacity. The new arena is shorter than the old, whose length
    /// fits a `u32`, so the new starts do too.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.holes);
        for span in &mut self.spans {
            let start = arena.len();
            arena.extend_from_slice(&self.arena[span.range()]);
            arena.resize(start + span.cap as usize, 0);
            span.start = start as u32;
        }
        self.arena = arena;
        self.holes = 0;
    }

    /// Inserts `x` at position `pos` of `node`'s list, which has slack.
    fn insert_at(&mut self, node: NodeId, pos: usize, x: NodeId) {
        let span = &mut self.spans[node as usize];
        debug_assert!(span.len < span.cap);
        let at = span.start as usize + pos;
        let end = span.start as usize + span.len as usize;
        span.len += 1;
        self.arena.copy_within(at..end, at + 1);
        self.arena[at] = x;
    }

    /// Removes position `pos` of `node`'s list.
    fn remove_at(&mut self, node: NodeId, pos: usize) {
        let span = &mut self.spans[node as usize];
        let at = span.start as usize + pos;
        let end = span.start as usize + span.len as usize;
        span.len -= 1;
        self.arena.copy_within(at + 1..end, at);
    }

    /// Adds the edge `(u, v)` if it is absent and not a self-loop.
    ///
    /// Returns `true` if the edge was inserted. Out-of-range nodes still error.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge { .. }) | Err(GraphError::SelfLoop { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes the undirected edge `(u, v)`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        let Ok(pos_u) = self.neighbors(u).binary_search(&v) else {
            return Err(GraphError::MissingEdge { u, v });
        };
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect("adjacency lists out of sync");
        self.remove_at(u, pos_u);
        self.remove_at(v, pos_v);
        self.num_edges -= 1;
        Ok(())
    }

    /// Collects all edges into a vector (canonical order).
    #[must_use]
    pub fn edge_vec(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges);
        out.extend(self.edges());
        out
    }

    /// Attribute codes for all nodes, indexed by node id.
    #[must_use]
    pub fn attribute_codes(&self) -> &[u32] {
        &self.attributes
    }

    /// Sets the attribute code of node `v`.
    pub fn set_attribute_code(&mut self, v: NodeId, code: u32) -> Result<()> {
        self.check_node(v)?;
        self.schema.validate_code(code)?;
        self.attributes[v as usize] = code;
        Ok(())
    }

    /// Sets the attribute codes of all nodes at once.
    pub fn set_all_attribute_codes(&mut self, codes: &[u32]) -> Result<()> {
        if codes.len() != self.num_nodes() {
            return Err(GraphError::InvalidParameter(format!(
                "expected {} attribute codes, got {}",
                self.num_nodes(),
                codes.len()
            )));
        }
        for &c in codes {
            self.schema.validate_code(c)?;
        }
        self.attributes.copy_from_slice(codes);
        Ok(())
    }

    /// Snapshots this graph into an immutable CSR [`FrozenGraph`] for the
    /// read-only analysis phase (metrics, evaluation, serving). `O(n + m)`.
    ///
    /// Every read accessor of the snapshot returns exactly the values this
    /// graph would, and computations over the snapshot are bit-identical to
    /// the same computations here — freezing is free of semantic drift.
    #[must_use]
    pub fn freeze(&self) -> FrozenGraph {
        FrozenGraph::from_graph(self)
    }

    /// Verifies the structural invariants: every span lies inside the arena
    /// with `len ≤ cap`, no two spans overlap and the holes are counted; the
    /// edge count is half the degree sum; and the lists pass the `.agb`
    /// verified tier's checks (each strictly sorted, in range and loop-free,
    /// every edge mirrored), run over this graph's [freeze](Self::freeze).
    /// Intended for tests and debug assertions.
    pub fn check_consistency(&self) -> Result<()> {
        let layout = |msg: String| Err(GraphError::InvalidParameter(msg));
        let mut covered: Vec<(usize, usize, NodeId)> = Vec::new();
        for (v, span) in self.spans.iter().enumerate() {
            let (start, cap) = (span.start as usize, span.cap as usize);
            if span.len > span.cap || start + cap > self.arena.len() {
                return layout(format!(
                    "node {v}: span {span:?} does not fit an arena of {} slots",
                    self.arena.len()
                ));
            }
            if cap > 0 {
                covered.push((start, start + cap, v as NodeId));
            }
        }
        covered.sort_unstable();
        if let Some(pair) = covered.windows(2).find(|pair| pair[1].0 < pair[0].1) {
            return layout(format!(
                "the spans of nodes {} and {} overlap",
                pair[0].2, pair[1].2
            ));
        }
        let live: usize = covered.iter().map(|&(start, end, _)| end - start).sum();
        if live + self.holes != self.arena.len() {
            return layout(format!(
                "{live} covered slots and {} holes do not add up to {} arena slots",
                self.holes,
                self.arena.len()
            ));
        }
        let half_edges: usize = self.spans.iter().map(|span| span.len as usize).sum();
        // Checked first: `freeze` sizes its neighbor section from `num_edges`.
        if self.num_edges.checked_mul(2) != Some(half_edges) {
            return Err(GraphError::InvalidParameter(format!(
                "edge count {} does not match adjacency ({half_edges} half edges)",
                self.num_edges
            )));
        }
        let frozen = self.freeze();
        let (offsets, neighbors, _) = frozen.sections();
        validate_lists(offsets, neighbors)
    }
}

// `#[inline]` lets the generic metric, learner and model code in other
// crates inline the accessors.
impl GraphView for AttributedGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.spans.len()
    }
    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }
    #[inline]
    fn schema(&self) -> AttributeSchema {
        self.schema
    }
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.arena[self.spans[v as usize].range()]
    }
    #[inline]
    fn attribute_code(&self, v: NodeId) -> u32 {
        self.attributes[v as usize]
    }
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.spans[v as usize].len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> AttributedGraph {
        let mut g = AttributedGraph::new(3, AttributeSchema::new(1));
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = AttributedGraph::new(5, AttributeSchema::new(2));
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.check_consistency().is_ok());
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = AttributedGraph::unattributed(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let g = triangle_graph();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        g.check_consistency().unwrap();
    }

    #[test]
    fn has_edge_out_of_range_is_false() {
        let g = triangle_graph();
        assert!(!g.has_edge(0, 99));
        assert!(!g.has_edge(99, 0));
    }

    #[test]
    fn self_loops_and_duplicates_rejected() {
        let mut g = AttributedGraph::unattributed(3);
        assert!(matches!(
            g.add_edge(1, 1),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        g.add_edge(0, 1).unwrap();
        assert!(matches!(
            g.add_edge(0, 1),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            g.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn out_of_range_nodes_rejected() {
        let mut g = AttributedGraph::unattributed(3);
        assert!(matches!(
            g.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.remove_edge(5, 0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn try_add_edge_reports_insertion() {
        let mut g = AttributedGraph::unattributed(3);
        assert!(g.try_add_edge(0, 1).unwrap());
        assert!(!g.try_add_edge(0, 1).unwrap());
        assert!(!g.try_add_edge(2, 2).unwrap());
        assert!(g.try_add_edge(1, 2).unwrap());
        assert!(g.try_add_edge(0, 99).is_err());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn remove_edge_works_and_errors_on_missing() {
        let mut g = triangle_graph();
        g.remove_edge(1, 0).unwrap();
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 2);
        assert!(matches!(
            g.remove_edge(0, 1),
            Err(GraphError::MissingEdge { .. })
        ));
        g.check_consistency().unwrap();
    }

    #[test]
    fn edges_are_canonical_and_unique() {
        let g = triangle_graph();
        let edges = g.edge_vec();
        assert_eq!(
            edges,
            vec![
                Edge { u: 0, v: 1 },
                Edge { u: 0, v: 2 },
                Edge { u: 1, v: 2 }
            ]
        );
    }

    #[test]
    fn edge_constructor_normalises() {
        let e = Edge::new(5, 2);
        assert_eq!(e, Edge { u: 2, v: 5 });
        assert_eq!(e.other(2), Some(5));
        assert_eq!(e.other(5), Some(2));
        assert_eq!(e.other(7), None);
    }

    #[test]
    fn common_neighbors_counts_correctly() {
        let mut g = AttributedGraph::unattributed(5);
        // Star around 0 plus edge 1-2: common neighbors of 1 and 2 is {0}.
        for v in 1..5 {
            g.add_edge(0, v).unwrap();
        }
        g.add_edge(1, 2).unwrap();
        assert_eq!(g.common_neighbor_count(1, 2), 1);
        assert_eq!(g.common_neighbor_count(3, 4), 1);
        assert_eq!(g.common_neighbor_count(0, 1), 1); // node 2 adjacent to both
        assert_eq!(g.common_neighbor_count(0, 3), 0);
    }

    #[test]
    fn attributes_set_and_get() {
        let mut g = AttributedGraph::new(3, AttributeSchema::new(2));
        g.set_attribute_code(0, 3).unwrap();
        g.set_attribute_code(1, 1).unwrap();
        assert_eq!(g.attribute_code(0), 3);
        assert_eq!(g.attribute_code(1), 1);
        assert_eq!(g.attribute_code(2), 0);
        assert!(g.set_attribute_code(0, 4).is_err());
        assert!(g.set_attribute_code(9, 0).is_err());
    }

    #[test]
    fn set_all_attribute_codes_validates() {
        let mut g = AttributedGraph::new(3, AttributeSchema::new(1));
        assert!(g.set_all_attribute_codes(&[0, 1]).is_err());
        assert!(g.set_all_attribute_codes(&[0, 1, 2]).is_err());
        g.set_all_attribute_codes(&[0, 1, 1]).unwrap();
        assert_eq!(g.attribute_codes(), &[0, 1, 1]);
    }

    #[test]
    fn edge_config_is_direction_independent() {
        let mut g = AttributedGraph::new(2, AttributeSchema::new(2));
        g.set_attribute_code(0, 1).unwrap();
        g.set_attribute_code(1, 3).unwrap();
        assert_eq!(g.edge_config(0, 1), g.edge_config(1, 0));
    }

    /// A graph whose `lists` sit back to back in the arena, each with no
    /// slack; the lists are not checked.
    fn from_lists(lists: &[&[NodeId]], num_edges: usize) -> AttributedGraph {
        let mut g = AttributedGraph::unattributed(lists.len());
        for (span, list) in g.spans.iter_mut().zip(lists) {
            let len = list.len() as u32;
            let start = g.arena.len() as u32;
            *span = Span {
                start,
                len,
                cap: len,
            };
            g.arena.extend_from_slice(list);
        }
        g.num_edges = num_edges;
        g
    }

    #[test]
    fn consistency_check_rejects_each_defect() {
        let triangle: [&[NodeId]; 3] = [&[1, 2], &[0, 2], &[0, 1]];
        let with_spans = |edit: fn(&mut AttributedGraph)| {
            let mut g = from_lists(&triangle, 3);
            edit(&mut g);
            g
        };
        // Each graph breaks one invariant and keeps Σ degree = 2m, except
        // the edge-count row, which breaks only that.
        let defects = [
            ("unsorted list", from_lists(&[&[2, 1], &[0], &[0]], 2)),
            ("repeated neighbour", from_lists(&[&[1, 1], &[0, 0]], 2)),
            ("self-loop", from_lists(&[&[0, 1], &[0, 1]], 2)),
            ("out-of-range id", from_lists(&[&[1, 5], &[0, 5]], 2)),
            ("one-sided edge", from_lists(&[&[1, 2], &[0], &[1]], 2)),
            ("edge count", from_lists(&triangle, 4)),
            (
                "span outside the arena",
                with_spans(|g| g.spans[2].start = 5),
            ),
            ("len > cap", with_spans(|g| g.spans[0].cap = 1)),
            ("overlapping spans", with_spans(|g| g.spans[1].start = 1)),
            ("uncounted hole", with_spans(|g| g.holes = 1)),
        ];
        for (defect, g) in defects {
            assert!(g.check_consistency().is_err(), "{defect} accepted");
        }
        assert!(from_lists(&triangle, 3).check_consistency().is_ok());
    }

    #[test]
    fn arena_offsets_are_checked() {
        assert_eq!(arena_end(4, 8), Ok(12));
        assert_eq!(arena_end(u32::MAX as usize - 8, 8), Ok(u32::MAX));
        assert_eq!(
            arena_end(u32::MAX as usize - 8, 9),
            Err(GraphError::ArenaOverflow {
                slots: u32::MAX as usize + 1
            })
        );
        assert!(arena_end(usize::MAX, 1).is_err());
    }

    #[test]
    fn full_lists_move_and_holes_compact() {
        let mut g = AttributedGraph::unattributed(6);
        // Node 0's list fills its first span, then moves past node 1's.
        for v in 1..=MIN_CAPACITY as NodeId {
            g.add_edge(0, v).unwrap();
        }
        assert_eq!(g.spans[0].cap as usize, MIN_CAPACITY);
        g.add_edge(0, 5).unwrap();
        assert_eq!(g.spans[0].cap as usize, GROWTH * MIN_CAPACITY);
        assert_eq!(g.holes, MIN_CAPACITY);
        g.check_consistency().unwrap();
        // Growing four interleaved hubs on 24 nodes, tearing them down and
        // growing them again keeps moving lists; every step stays
        // consistent, and the holes reach the threshold and are compacted
        // away at least once.
        let mut g = AttributedGraph::unattributed(24);
        let mut compactions = 0;
        for round in 0..3 {
            for v in 4..24 {
                for hub in 0..4 {
                    let holes = g.holes;
                    if round == 1 {
                        g.remove_edge(hub, v).unwrap();
                    } else {
                        g.add_edge(hub, v).unwrap();
                    }
                    compactions += usize::from(g.holes < holes);
                    assert!(3 * g.holes <= g.arena.len());
                    g.check_consistency().unwrap();
                }
            }
        }
        assert!(compactions > 0);
        let rebuilt = AttributedGraph::from_unique_edges(24, g.schema(), g.edge_vec()).unwrap();
        assert_eq!(g, rebuilt);
        assert_eq!(rebuilt.holes, 0);
        for v in rebuilt.nodes() {
            let degree = rebuilt.degree(v);
            let slack = degree / SLACK_DIVISOR + MIN_SLACK;
            assert_eq!(rebuilt.spans[v as usize].cap as usize, degree + slack);
        }
        rebuilt.check_consistency().unwrap();
    }

    #[test]
    fn degrees_vector_matches_individual_queries() {
        let g = triangle_graph();
        let degs = g.degrees();
        for v in g.nodes() {
            assert_eq!(degs[v as usize], g.degree(v));
        }
    }
}
