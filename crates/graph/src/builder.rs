//! A forgiving builder for constructing [`AttributedGraph`]s from raw data.
//!
//! The datasets used by the paper (Appendix A) arrive as edge lists that may
//! contain duplicate edges, reversed duplicates (the paper keeps only mutual
//! relationships of directed crawls) and self-loops. [`GraphBuilder`] absorbs
//! those quirks: duplicates and self-loops are silently skipped and counted,
//! so callers can report how much cleaning was applied.

use crate::attributes::AttributeSchema;
use crate::graph::{AttributedGraph, NodeId};
use crate::Result;

/// Incrementally builds an [`AttributedGraph`], tolerating duplicate edges and
/// self-loops in the input.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    graph: AttributedGraph,
    skipped_duplicates: usize,
    skipped_self_loops: usize,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` nodes and the given schema.
    #[must_use]
    pub fn new(n: usize, schema: AttributeSchema) -> Self {
        Self {
            graph: AttributedGraph::new(n, schema),
            skipped_duplicates: 0,
            skipped_self_loops: 0,
        }
    }

    /// Starts a builder for an unattributed graph with `n` nodes.
    #[must_use]
    pub fn unattributed(n: usize) -> Self {
        Self::new(n, AttributeSchema::new(0))
    }

    /// Adds an edge, skipping duplicates and self-loops without error.
    ///
    /// Out-of-range node ids still produce an error, because they indicate a
    /// corrupted input rather than ordinary dataset noise.
    pub fn edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self> {
        if u == v {
            self.skipped_self_loops += 1;
            return Ok(self);
        }
        if !self.graph.try_add_edge(u, v)? {
            self.skipped_duplicates += 1;
        }
        Ok(self)
    }

    /// Adds many edges at once (same semantics as [`Self::edge`]).
    pub fn edges<I>(&mut self, iter: I) -> Result<&mut Self>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in iter {
            self.edge(u, v)?;
        }
        Ok(self)
    }

    /// Sets the attribute code of a node.
    pub fn attribute(&mut self, v: NodeId, code: u32) -> Result<&mut Self> {
        self.graph.set_attribute_code(v, code)?;
        Ok(self)
    }

    /// Number of duplicate edges that were skipped so far.
    #[must_use]
    pub fn skipped_duplicates(&self) -> usize {
        self.skipped_duplicates
    }

    /// Number of self-loops that were skipped so far.
    #[must_use]
    pub fn skipped_self_loops(&self) -> usize {
        self.skipped_self_loops
    }

    /// Finishes construction and returns the graph.
    #[must_use]
    pub fn build(self) -> AttributedGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::GraphView;

    #[test]
    fn builder_skips_noise_and_counts_it() {
        let mut b = GraphBuilder::unattributed(4);
        b.edges([(0, 1), (1, 0), (1, 1), (1, 2), (2, 3), (0, 1)])
            .unwrap();
        assert_eq!(b.skipped_duplicates(), 2);
        assert_eq!(b.skipped_self_loops(), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        g.check_consistency().unwrap();
    }

    #[test]
    fn builder_sets_attributes() {
        let mut b = GraphBuilder::new(2, AttributeSchema::new(2));
        b.attribute(0, 3).unwrap();
        b.edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.attribute_code(0), 3);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn builder_rejects_out_of_range_nodes() {
        let mut b = GraphBuilder::unattributed(2);
        assert!(b.edge(0, 5).is_err());
        assert!(b.attribute(7, 0).is_err());
    }

    #[test]
    fn builder_chained_calls() {
        let mut b = GraphBuilder::unattributed(3);
        b.edge(0, 1).unwrap().edge(1, 2).unwrap();
        assert_eq!(b.build().num_edges(), 2);
    }
}
