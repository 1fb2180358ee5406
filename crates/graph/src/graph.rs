//! The [`AttributedGraph`] representation.
//!
//! An `AttributedGraph` is an undirected, unweighted simple graph with a fixed
//! node set `{0, …, n-1}` and a `w`-bit attribute code on every node
//! (Section 2.1 of the paper). Adjacency is stored as sorted neighbor lists,
//! which keeps edge existence queries at `O(log d)`, neighbor iteration
//! allocation-free, and common-neighbor counting at `O(d_u + d_v)` for
//! similar degrees and `O(min · log(max / min))` when one endpoint is a hub
//! ([`sorted_intersection_count`]) — the operations that dominate TriCycLe
//! generation and triangle counting.

use serde::{Deserialize, Serialize};

use crate::attributes::{AttributeSchema, EdgeConfigIndex};
use crate::error::GraphError;
use crate::frozen::FrozenGraph;
use crate::view::{sorted_intersection_count, GraphView};
use crate::Result;

/// Dense node identifier in `0..n`.
pub type NodeId = u32;

/// An undirected edge; stored with `u <= v` by convention when enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

/// An undirected, unweighted, simple graph with binary node attributes.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributedGraph {
    schema: AttributeSchema,
    /// Sorted adjacency lists; `adjacency[u]` holds the neighbors of `u` in
    /// increasing order.
    adjacency: Vec<Vec<NodeId>>,
    /// Attribute code of each node (`f_w` encoding).
    attributes: Vec<u32>,
    /// Number of undirected edges currently in the graph.
    num_edges: usize,
}

impl AttributedGraph {
    /// Creates an empty graph with `n` isolated nodes, all with attribute code 0.
    #[must_use]
    pub fn new(n: usize, schema: AttributeSchema) -> Self {
        Self {
            schema,
            adjacency: vec![Vec::new(); n],
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
    /// what makes bulk loads of millions of edges cheap.
    ///
    /// The preconditions are verified, not trusted: out-of-range endpoints,
    /// self-loops and duplicates all error (the duplicate check is a free
    /// by-product of sorting the adjacency lists).
    pub fn from_unique_edges(n: usize, schema: AttributeSchema, edges: &[Edge]) -> Result<Self> {
        let mut counts = vec![0usize; n];
        for e in edges {
            for node in [e.u, e.v] {
                if node as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node, num_nodes: n });
                }
            }
            if e.u == e.v {
                return Err(GraphError::SelfLoop { node: e.u });
            }
            counts[e.u as usize] += 1;
            counts[e.v as usize] += 1;
        }
        let mut adjacency: Vec<Vec<NodeId>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for e in edges {
            adjacency[e.u as usize].push(e.v);
            adjacency[e.v as usize].push(e.u);
        }
        for (u, list) in adjacency.iter_mut().enumerate() {
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
            adjacency,
            attributes: vec![0; n],
            num_edges: edges.len(),
        })
    }

    /// Re-labels the graph with a new schema and per-node attribute codes,
    /// keeping the edge set. Consumes the graph so the adjacency structure is
    /// reused rather than rebuilt edge by edge.
    pub fn with_attributes(mut self, schema: AttributeSchema, codes: &[u32]) -> Result<Self> {
        self.schema = schema;
        self.set_all_attribute_codes(codes)?;
        Ok(self)
    }

    /// The attribute schema of this graph.
    #[must_use]
    pub fn schema(&self) -> AttributeSchema {
        self.schema
    }

    /// Number of nodes `n = |N|`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges `m = |E|`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns an iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
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

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (use [`Self::nodes`] to iterate safely).
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// Allocation-free iterator over all node degrees, by node id.
    ///
    /// Hot paths that only fold over the sequence (histograms, maxima, sums)
    /// should prefer this over the allocating [`Self::degrees`].
    pub fn degree_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.adjacency.iter().map(Vec::len)
    }

    /// The degrees of all nodes, indexed by node id (routed through
    /// [`Self::degree_iter`]).
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        self.degree_iter().collect()
    }

    /// Maximum degree `d_max` (0 for an empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.degree_iter().max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for an empty graph).
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_nodes() as f64
        }
    }

    /// The sorted neighbor list `Γ(v)` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[v as usize]
    }

    /// Returns `true` if the undirected edge `(u, v)` is present.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.num_nodes() || (v as usize) >= self.num_nodes() {
            return false;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacency[a as usize].binary_search(&b).is_ok()
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Returns an error on self-loops, duplicate edges, or out-of-range nodes.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        match self.adjacency[u as usize].binary_search(&v) {
            Ok(_) => Err(GraphError::DuplicateEdge { u, v }),
            Err(pos_u) => {
                self.adjacency[u as usize].insert(pos_u, v);
                let pos_v = self.adjacency[v as usize]
                    .binary_search(&u)
                    .expect_err("adjacency lists out of sync");
                self.adjacency[v as usize].insert(pos_v, u);
                self.num_edges += 1;
                Ok(())
            }
        }
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
        match self.adjacency[u as usize].binary_search(&v) {
            Err(_) => Err(GraphError::MissingEdge { u, v }),
            Ok(pos_u) => {
                self.adjacency[u as usize].remove(pos_u);
                let pos_v = self.adjacency[v as usize]
                    .binary_search(&u)
                    .expect("adjacency lists out of sync");
                self.adjacency[v as usize].remove(pos_v);
                self.num_edges -= 1;
                Ok(())
            }
        }
    }

    /// Enumerates all edges in canonical (lexicographic) order with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeId;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge { u, v })
        })
    }

    /// Collects all edges into a vector (canonical order).
    #[must_use]
    pub fn edge_vec(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges);
        out.extend(self.edges());
        out
    }

    /// Number of common neighbors `|Γ(u) ∩ Γ(v)|`, counted by
    /// [`sorted_intersection_count`]: a merge when the two degrees are
    /// similar, a gallop through the hub's list when they are skewed.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[must_use]
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        sorted_intersection_count(&self.adjacency[u as usize], &self.adjacency[v as usize])
    }

    /// The attribute code (`f_w` encoding) of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn attribute_code(&self, v: NodeId) -> u32 {
        self.attributes[v as usize]
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

    /// The edge-configuration index `F_w(x_u, x_v)` of an edge's endpoints.
    ///
    /// The edge does not need to be present; the value depends only on the
    /// endpoints' current attribute codes.
    #[must_use]
    pub fn edge_config(&self, u: NodeId, v: NodeId) -> EdgeConfigIndex {
        self.schema
            .edge_config(self.attributes[u as usize], self.attributes[v as usize])
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

    /// Removes every edge while keeping nodes and attributes.
    pub fn clear_edges(&mut self) {
        for nbrs in &mut self.adjacency {
            nbrs.clear();
        }
        self.num_edges = 0;
    }

    /// Verifies internal invariants (sorted, symmetric adjacency, consistent
    /// edge count). Intended for tests and debug assertions.
    pub fn check_consistency(&self) -> Result<()> {
        let mut half_edges = 0usize;
        for (u, nbrs) in self.adjacency.iter().enumerate() {
            let mut prev: Option<NodeId> = None;
            for &v in nbrs {
                if (v as usize) >= self.num_nodes() {
                    return Err(GraphError::NodeOutOfRange {
                        node: v,
                        num_nodes: self.num_nodes(),
                    });
                }
                if v as usize == u {
                    return Err(GraphError::SelfLoop { node: v });
                }
                if let Some(p) = prev {
                    if p >= v {
                        return Err(GraphError::InvalidParameter(format!(
                            "adjacency list of node {u} is not strictly sorted"
                        )));
                    }
                }
                prev = Some(v);
                if self.adjacency[v as usize]
                    .binary_search(&(u as NodeId))
                    .is_err()
                {
                    return Err(GraphError::InvalidParameter(format!(
                        "edge ({u}, {v}) is not symmetric"
                    )));
                }
                half_edges += 1;
            }
        }
        if half_edges != 2 * self.num_edges {
            return Err(GraphError::InvalidParameter(format!(
                "edge count {} does not match adjacency ({} half edges)",
                self.num_edges, half_edges
            )));
        }
        Ok(())
    }
}

impl GraphView for AttributedGraph {
    fn num_nodes(&self) -> usize {
        AttributedGraph::num_nodes(self)
    }
    fn num_edges(&self) -> usize {
        AttributedGraph::num_edges(self)
    }
    fn schema(&self) -> AttributeSchema {
        AttributedGraph::schema(self)
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        AttributedGraph::neighbors(self, v)
    }
    fn attribute_code(&self, v: NodeId) -> u32 {
        AttributedGraph::attribute_code(self, v)
    }
    fn degree(&self, v: NodeId) -> usize {
        AttributedGraph::degree(self, v)
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

    #[test]
    fn clear_edges_keeps_nodes_and_attributes() {
        let mut g = triangle_graph();
        g.set_attribute_code(0, 1).unwrap();
        g.clear_edges();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.attribute_code(0), 1);
        g.check_consistency().unwrap();
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
