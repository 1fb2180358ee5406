//! Connected components and orphaned-node detection.
//!
//! The paper assumes input graphs are connected (only the main connected
//! component of each dataset is kept, Appendix A) and defines an *orphaned*
//! node as one that is not part of the main connected component of a generated
//! graph (Section 3.3, footnote 2). The orphan post-processing step
//! (Algorithm 2) repeatedly queries these notions.

use crate::graph::NodeId;
use crate::view::GraphView;

/// Labels each node with a component id in `0..num_components` and returns the
/// labels together with the component sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component id of each node.
    pub labels: Vec<u32>,
    /// Size of each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    #[must_use]
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Id of the largest component (ties broken by smallest id); `None` for an
    /// empty graph.
    #[must_use]
    pub fn largest(&self) -> Option<u32> {
        self.sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(id, _)| id as u32)
    }

    /// Nodes belonging to the largest component.
    #[must_use]
    pub fn largest_component_nodes(&self) -> Vec<NodeId> {
        match self.largest() {
            None => Vec::new(),
            Some(id) => self
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == id)
                .map(|(v, _)| v as NodeId)
                .collect(),
        }
    }

    /// Nodes *not* in the largest component — the paper's orphaned nodes.
    #[must_use]
    pub fn orphaned_nodes(&self) -> Vec<NodeId> {
        match self.largest() {
            None => Vec::new(),
            Some(id) => self
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l != id)
                .map(|(v, _)| v as NodeId)
                .collect(),
        }
    }
}

/// Computes connected components with a union-find over the edges in node
/// order, linking every root under the smaller one so that each component's
/// root is its smallest node. Components are numbered in the order of their
/// smallest nodes — the numbering a BFS started from each unlabelled node
/// in turn would give — which fixes what [`Components::largest`] breaks ties
/// on and the order of [`Components::orphaned_nodes`].
#[must_use]
pub fn connected_components<G: GraphView>(g: &G) -> Components {
    let mut parent: Vec<NodeId> = g.nodes().collect();
    for u in g.nodes() {
        let mut root = find(&mut parent, u);
        let neighbors = g.neighbors(u);
        for &v in &neighbors[..neighbors.partition_point(|&v| v < u)] {
            let other = find(&mut parent, v);
            if other < root {
                parent[root as usize] = other;
                root = other;
            } else if other > root {
                parent[other as usize] = root;
            }
        }
    }
    let mut labels = vec![0u32; parent.len()];
    let mut sizes = Vec::new();
    for v in g.nodes() {
        let root = find(&mut parent, v);
        if root == v {
            labels[v as usize] = sizes.len() as u32;
            sizes.push(0);
        } else {
            labels[v as usize] = labels[root as usize];
        }
        sizes[labels[v as usize] as usize] += 1;
    }
    Components { labels, sizes }
}

/// The root of `v`'s set, halving the path on the way.
fn find(parent: &mut [NodeId], mut v: NodeId) -> NodeId {
    while parent[v as usize] != v {
        let grandparent = parent[parent[v as usize] as usize];
        parent[v as usize] = grandparent;
        v = grandparent;
    }
    v
}

/// Returns `true` if the graph is connected (trivially true for `n <= 1`).
#[must_use]
pub fn is_connected<G: GraphView>(g: &G) -> bool {
    g.num_nodes() <= 1 || connected_components(g).count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AttributedGraph;

    #[test]
    fn single_component_path() {
        let mut g = AttributedGraph::unattributed(4);
        for v in 1..4 {
            g.add_edge(v - 1, v).unwrap();
        }
        let c = connected_components(&g);
        assert_eq!(c.count(), 1);
        assert!(is_connected(&g));
        assert!(c.orphaned_nodes().is_empty());
        assert_eq!(c.largest_component_nodes().len(), 4);
    }

    #[test]
    fn two_components_and_isolated_node() {
        let mut g = AttributedGraph::unattributed(6);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(3, 4).unwrap();
        // node 5 isolated
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        assert!(!is_connected(&g));
        assert_eq!(c.sizes.iter().sum::<usize>(), 6);
        let orphans = c.orphaned_nodes();
        assert_eq!(orphans, vec![3, 4, 5]);
        assert_eq!(c.largest_component_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = AttributedGraph::unattributed(0);
        let c = connected_components(&g);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), None);
        assert!(is_connected(&g));
        assert!(is_connected(&AttributedGraph::unattributed(1)));
    }

    #[test]
    fn largest_ties_resolved_deterministically() {
        let mut g = AttributedGraph::unattributed(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(2, 3).unwrap();
        let c = connected_components(&g);
        // Both components have size 2; the smaller id wins.
        assert_eq!(c.largest(), Some(0));
    }
}
