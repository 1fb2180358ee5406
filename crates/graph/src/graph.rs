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

use serde::{Deserialize, Serialize};

use crate::attributes::AttributeSchema;
use crate::error::GraphError;
use crate::frozen::FrozenGraph;
use crate::mmap::validate_lists;
use crate::view::GraphView;
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

    /// Verifies the structural invariants: the edge count is half the degree
    /// sum, and the lists pass the `.agb` verified tier's checks (each
    /// strictly sorted, in range and loop-free, every edge mirrored), run
    /// over this graph's [freeze](Self::freeze). Intended for tests and
    /// debug assertions.
    pub fn check_consistency(&self) -> Result<()> {
        let half_edges: usize = self.adjacency.iter().map(Vec::len).sum();
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
        self.adjacency.len()
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
        &self.adjacency[v as usize]
    }
    #[inline]
    fn attribute_code(&self, v: NodeId) -> u32 {
        self.attributes[v as usize]
    }
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v as usize].len()
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
    fn consistency_check_rejects_each_defect() {
        let check = |adjacency: Vec<Vec<NodeId>>, num_edges| {
            AttributedGraph {
                schema: AttributeSchema::new(0),
                attributes: vec![0; adjacency.len()],
                adjacency,
                num_edges,
            }
            .check_consistency()
        };
        // Each graph breaks one invariant and keeps Σ degree = 2m, except
        // the last, which breaks only that.
        let defects = [
            ("unsorted list", vec![vec![2, 1], vec![0], vec![0]], 2),
            ("repeated neighbour", vec![vec![1, 1], vec![0, 0]], 2),
            ("self-loop", vec![vec![0, 1], vec![0, 1]], 2),
            ("out-of-range id", vec![vec![1, 5], vec![0, 5]], 2),
            ("one-sided edge", vec![vec![1, 2], vec![0], vec![1]], 2),
            ("edge count", triangle_graph().adjacency, 4),
        ];
        for (defect, adjacency, num_edges) in defects {
            assert!(check(adjacency, num_edges).is_err(), "{defect} accepted");
        }
        assert!(check(triangle_graph().adjacency, 3).is_ok());
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
