//! The [`GraphView`] read-only abstraction over graph representations.
//!
//! The AGM-DP pipeline is write-once/read-many: a graph is built (or loaded)
//! exactly once during synthesis, then traversed repeatedly by metrics,
//! acceptance checks and the evaluation harness. `GraphView` captures exactly
//! the read surface those consumers need — node/edge counts, sorted neighbor
//! slices and attribute codes — so every analysis function can run unchanged
//! on both the mutable [`AttributedGraph`](crate::AttributedGraph) (build
//! phase) and the immutable CSR [`FrozenGraph`](crate::FrozenGraph) snapshot
//! (analysis phase).
//!
//! `GraphView` is the one read API of both representations: each answers
//! reads through its trait impl, and apart from five inherent pins that
//! delegate to the trait (the repository benchmark calls them without
//! importing it) neither type declares a read method of its own. The
//! provided methods are defined in terms of the five required accessors, and
//! both types keep every neighbor list sorted, so a computation over a
//! frozen snapshot walks the same orders and is bit-identical to the same
//! computation over the adjacency-list original — the invariance the
//! committed golden evaluation aggregates pin down.

use crate::attributes::{AttributeSchema, EdgeConfigIndex};
use crate::graph::{Edge, NodeId};

/// Read-only access to an undirected attributed simple graph.
///
/// Implemented by [`AttributedGraph`](crate::AttributedGraph) (the mutable
/// build-phase representation) and [`FrozenGraph`](crate::FrozenGraph) (the
/// immutable CSR snapshot). Analysis code should be generic over `GraphView`
/// and never require mutation.
pub trait GraphView {
    /// Number of nodes `n = |N|`.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges `m = |E|`.
    fn num_edges(&self) -> usize;

    /// The attribute schema of the graph.
    fn schema(&self) -> AttributeSchema;

    /// The sorted neighbor list `Γ(v)` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (use [`GraphView::nodes`] to iterate
    /// safely).
    fn neighbors(&self, v: NodeId) -> &[NodeId];

    /// The attribute code (`f_w` encoding) of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn attribute_code(&self, v: NodeId) -> u32;

    /// Iterator over all node ids `0..n`.
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Allocation-free iterator over all node degrees, by node id.
    ///
    /// This is the hot-path replacement for the allocating
    /// [`GraphView::degrees`]: callers that only fold over the sequence
    /// (histograms, maxima, sums) should consume the iterator directly.
    fn degree_iter(&self) -> impl Iterator<Item = usize> + '_
    where
        Self: Sized,
    {
        self.nodes().map(move |v| self.degree(v))
    }

    /// The degrees of all nodes, indexed by node id.
    ///
    /// Allocates; prefer [`GraphView::degree_iter`] on hot paths.
    fn degrees(&self) -> Vec<usize>
    where
        Self: Sized,
    {
        self.degree_iter().collect()
    }

    /// Maximum degree `d_max` (0 for an empty graph).
    fn max_degree(&self) -> usize
    where
        Self: Sized,
    {
        self.degree_iter().max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for an empty graph).
    fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Returns `true` if the undirected edge `(u, v)` is present.
    ///
    /// Out-of-range endpoints return `false`. Searches the shorter of the two
    /// neighbor lists in `O(log d)`.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.num_nodes() || (v as usize) >= self.num_nodes() {
            return false;
        }
        let (a, b) = if self.neighbors(u).len() <= self.neighbors(v).len() {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Number of common neighbors `|Γ(u) ∩ Γ(v)|`, counted by
    /// [`sorted_intersection_count`]: a merge in `O(d_u + d_v)` when the
    /// degrees are similar, a gallop in `O(min · log(max / min))` when one
    /// endpoint is a hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        sorted_intersection_count(self.neighbors(u), self.neighbors(v))
    }

    /// Enumerates all edges in canonical (lexicographic) order with `u < v`.
    fn edges(&self) -> impl Iterator<Item = Edge> + '_
    where
        Self: Sized,
    {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge { u, v })
        })
    }

    /// The edge-configuration index `F_w(x_u, x_v)` of an edge's endpoints.
    ///
    /// The edge does not need to be present; the value depends only on the
    /// endpoints' current attribute codes.
    fn edge_config(&self, u: NodeId, v: NodeId) -> EdgeConfigIndex {
        self.schema()
            .edge_config(self.attribute_code(u), self.attribute_code(v))
    }
}

/// A list at least this many times longer than the other is galloped
/// through rather than merged. Below it the merge's sequential scan wins;
/// above it the gallop's `O(log)` skips do.
const GALLOP_RATIO: usize = 8;

/// `|a ∩ b|` for two strictly increasing node lists — the one
/// common-neighbor count behind both representations'
/// `common_neighbor_count`.
///
/// Degrees on social graphs are heavy-tailed, so a pair often joins a hub's
/// neighbor list with a leaf's. When the lists are similar in length this
/// is a branch-free merge, `O(|a| + |b|)`. When the longer list is at least
/// `GALLOP_RATIO` (8) times the shorter, every element of the shorter list
/// is located in the rest of the longer one by exponential then binary
/// search, `O(min · log(max / min))`. Both paths return the same count.
#[must_use]
pub fn sorted_intersection_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        0
    } else if long.len() / short.len() >= GALLOP_RATIO {
        gallop_count(short, long)
    } else {
        merge_count(short, long)
    }
}

/// Branch-free merge: each step advances the side(s) holding the smaller
/// head, so the only branch is the loop bound.
fn merge_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        count += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    count
}

/// Gallops each element of `short` through the unsearched suffix of `long`:
/// probe offsets 1, 2, 4, … until one reaches the element, then binary
/// search between the last two probes.
fn gallop_count(short: &[NodeId], long: &[NodeId]) -> usize {
    let mut rest = long;
    let mut count = 0;
    for &x in short {
        let mut bound = 1;
        while bound < rest.len() && rest[bound] < x {
            bound *= 2;
        }
        let lo = bound / 2;
        let hi = rest.len().min(bound);
        rest = &rest[lo + rest[lo..hi].partition_point(|&y| y < x)..];
        match rest.first() {
            None => break,
            Some(&y) if y == x => {
                count += 1;
                rest = &rest[1..];
            }
            Some(_) => {}
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal hand-rolled implementation to exercise every provided method
    /// independently of the two real representations.
    struct PathView {
        lists: Vec<Vec<NodeId>>,
    }

    impl PathView {
        fn new(n: usize) -> Self {
            let lists = (0..n)
                .map(|v| {
                    let mut l = Vec::new();
                    if v > 0 {
                        l.push((v - 1) as NodeId);
                    }
                    if v + 1 < n {
                        l.push((v + 1) as NodeId);
                    }
                    l
                })
                .collect();
            Self { lists }
        }
    }

    impl GraphView for PathView {
        fn num_nodes(&self) -> usize {
            self.lists.len()
        }
        fn num_edges(&self) -> usize {
            self.lists.len().saturating_sub(1)
        }
        fn schema(&self) -> AttributeSchema {
            AttributeSchema::new(0)
        }
        fn neighbors(&self, v: NodeId) -> &[NodeId] {
            &self.lists[v as usize]
        }
        fn attribute_code(&self, _v: NodeId) -> u32 {
            0
        }
    }

    #[test]
    fn provided_methods_on_custom_view() {
        let p = PathView::new(4);
        assert_eq!(p.degrees(), vec![1, 2, 2, 1]);
        assert_eq!(p.degree_iter().sum::<usize>(), 6);
        assert_eq!(p.max_degree(), 2);
        assert!((p.avg_degree() - 1.5).abs() < 1e-12);
        assert!(p.has_edge(0, 1));
        assert!(p.has_edge(1, 0));
        assert!(!p.has_edge(0, 2));
        assert!(!p.has_edge(0, 99));
        assert_eq!(p.common_neighbor_count(0, 2), 1);
        let edges: Vec<Edge> = p.edges().collect();
        assert_eq!(
            edges,
            vec![
                Edge { u: 0, v: 1 },
                Edge { u: 1, v: 2 },
                Edge { u: 2, v: 3 }
            ]
        );
    }
}
