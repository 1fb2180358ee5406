//! AGM parameter sets `Θ_X`, `Θ_F`, `Θ_M` and their exact (non-private)
//! learners (Section 2.2 of the paper).

use rand::Rng;
use serde::{Deserialize, Serialize};

use agmdp_graph::triangles::count_triangles;
use agmdp_graph::{AttributeSchema, Edge, GraphView};

use crate::error::CoreError;
use crate::Result;

/// `Θ_X`: the distribution of attribute configurations over nodes.
///
/// `ΘX(y)` is the fraction of nodes whose attribute vector encodes to `y`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThetaX {
    schema: AttributeSchema,
    probabilities: Vec<f64>,
}

impl ThetaX {
    /// Wraps an explicit distribution (must have `2^w` entries; it is
    /// re-normalised defensively).
    pub fn new(schema: AttributeSchema, probabilities: Vec<f64>) -> Result<Self> {
        if probabilities.len() != schema.num_node_configs() {
            return Err(CoreError::InvalidConfig(format!(
                "Theta_X needs {} entries, got {}",
                schema.num_node_configs(),
                probabilities.len()
            )));
        }
        Ok(Self {
            schema,
            probabilities: agmdp_privacy::postprocess::normalize(&probabilities),
        })
    }

    /// Exact (non-private) estimate from a graph (any [`GraphView`]).
    #[must_use]
    pub fn from_graph<G: GraphView>(graph: &G) -> Self {
        let counts = node_config_counts(graph);
        Self {
            schema: graph.schema(),
            probabilities: agmdp_privacy::postprocess::normalize(&counts),
        }
    }

    /// The attribute schema this distribution refers to.
    #[must_use]
    pub fn schema(&self) -> AttributeSchema {
        self.schema
    }

    /// The probability vector, indexed by node-configuration code.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Samples one attribute code from the distribution.
    pub fn sample_code<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let mut target = rng.gen::<f64>();
        for (code, &p) in self.probabilities.iter().enumerate() {
            if target < p {
                return code as u32;
            }
            target -= p;
        }
        (self.probabilities.len() - 1) as u32
    }

    /// Samples attribute codes for `n` nodes independently.
    pub fn sample_codes<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u32> {
        (0..n).map(|_| self.sample_code(rng)).collect()
    }
}

/// `Θ_F`: the distribution of attribute configurations over edges — the
/// attribute–edge correlations (homophily etc.).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThetaF {
    schema: AttributeSchema,
    probabilities: Vec<f64>,
}

impl ThetaF {
    /// Wraps an explicit distribution (must have `C(2^w + 1, 2)` entries; it is
    /// re-normalised defensively).
    pub fn new(schema: AttributeSchema, probabilities: Vec<f64>) -> Result<Self> {
        if probabilities.len() != schema.num_edge_configs() {
            return Err(CoreError::InvalidConfig(format!(
                "Theta_F needs {} entries, got {}",
                schema.num_edge_configs(),
                probabilities.len()
            )));
        }
        Ok(Self {
            schema,
            probabilities: agmdp_privacy::postprocess::normalize(&probabilities),
        })
    }

    /// Exact (non-private) estimate from a graph (any [`GraphView`]). A graph
    /// with no edges yields the uniform distribution.
    #[must_use]
    pub fn from_graph<G: GraphView>(graph: &G) -> Self {
        let counts = edge_config_counts(graph);
        Self {
            schema: graph.schema(),
            probabilities: agmdp_privacy::postprocess::normalize(&counts),
        }
    }

    /// [`ThetaF::from_graph`] computed straight from an edge list and the
    /// per-node attribute codes, without an adjacency structure. Equals
    /// `from_graph` on the graph those edges and codes describe — Θ_F only
    /// counts edge configurations, so the refinement loop of Algorithm 3 can
    /// observe intermediate samples it never materialises.
    ///
    /// `codes[i]` must be a valid node configuration for `schema` and every
    /// endpoint must index into `codes`; both hold by construction for edge
    /// lists produced by a [`agmdp_models::StructuralModel`] fed the same
    /// code vector.
    #[must_use]
    pub fn from_edges(schema: AttributeSchema, codes: &[u32], edges: &[Edge]) -> Self {
        let mut counts = vec![0.0; schema.num_edge_configs()];
        for e in edges {
            counts[schema.edge_config(codes[e.u as usize], codes[e.v as usize])] += 1.0;
        }
        Self {
            schema,
            probabilities: agmdp_privacy::postprocess::normalize(&counts),
        }
    }

    /// The attribute schema this distribution refers to.
    #[must_use]
    pub fn schema(&self) -> AttributeSchema {
        self.schema
    }

    /// The probability vector, indexed by edge-configuration index.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }
}

/// `Θ_M`: the structural-model parameters. For TriCycLe these are the degree
/// sequence `S` and the triangle count `n_Δ`; FCL only uses the degrees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThetaM {
    /// The (noisy or exact) degree sequence, one entry per node.
    pub degree_sequence: Vec<usize>,
    /// The (noisy or exact) triangle count; `None` for models that do not use
    /// one (e.g. FCL).
    pub triangles: Option<u64>,
}

impl ThetaM {
    /// Exact (non-private) estimate from a graph, including the triangle count.
    #[must_use]
    pub fn from_graph<G: GraphView>(graph: &G) -> Self {
        Self {
            degree_sequence: graph.degrees(),
            triangles: Some(count_triangles(graph)),
        }
    }

    /// Exact estimate without the triangle count (for FCL).
    #[must_use]
    pub fn from_graph_degrees_only<G: GraphView>(graph: &G) -> Self {
        Self {
            degree_sequence: graph.degrees(),
            triangles: None,
        }
    }

    /// The total number of edges implied by the degree sequence.
    #[must_use]
    pub fn implied_edges(&self) -> usize {
        (self.degree_sequence.iter().sum::<usize>() as f64 / 2.0).round() as usize
    }
}

/// The raw node-configuration counts `Q_X` (one per element of `Y_w`).
#[must_use]
pub fn node_config_counts<G: GraphView>(graph: &G) -> Vec<f64> {
    let mut counts = vec![0.0; graph.schema().num_node_configs()];
    for v in graph.nodes() {
        counts[graph.schema().node_config(graph.attribute_code(v))] += 1.0;
    }
    counts
}

/// The raw edge-configuration counts `Q_F` (one per element of `Y^F_w`).
#[must_use]
pub fn edge_config_counts<G: GraphView>(graph: &G) -> Vec<f64> {
    let mut counts = vec![0.0; graph.schema().num_edge_configs()];
    for e in graph.edges() {
        counts[graph.edge_config(e.u, e.v)] += 1.0;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::AttributedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_graph() -> AttributedGraph {
        let schema = AttributeSchema::new(1);
        let mut g = AttributedGraph::new(4, schema);
        g.set_all_attribute_codes(&[0, 0, 1, 1]).unwrap();
        g.add_edge(0, 1).unwrap(); // (0,0)
        g.add_edge(2, 3).unwrap(); // (1,1)
        g.add_edge(1, 2).unwrap(); // (0,1)
        g.add_edge(0, 2).unwrap(); // (0,1)
        g
    }

    #[test]
    fn theta_x_from_graph_matches_fractions() {
        let g = small_graph();
        let tx = ThetaX::from_graph(&g);
        assert_eq!(tx.probabilities(), &[0.5, 0.5]);
        assert_eq!(tx.schema().width(), 1);
    }

    #[test]
    fn theta_f_from_graph_matches_fractions() {
        let g = small_graph();
        let tf = ThetaF::from_graph(&g);
        // Configs: (0,0), (0,1), (1,1) -> counts 1, 2, 1 of 4 edges.
        assert_eq!(tf.probabilities(), &[0.25, 0.5, 0.25]);
    }

    #[test]
    fn theta_f_empty_graph_is_uniform() {
        let g = AttributedGraph::new(3, AttributeSchema::new(1));
        let tf = ThetaF::from_graph(&g);
        assert_eq!(tf.probabilities(), &[1.0 / 3.0; 3]);
    }

    #[test]
    fn explicit_construction_validates_lengths() {
        let schema = AttributeSchema::new(1);
        assert!(ThetaX::new(schema, vec![0.5, 0.5]).is_ok());
        assert!(ThetaX::new(schema, vec![0.5]).is_err());
        assert!(ThetaF::new(schema, vec![0.2, 0.3, 0.5]).is_ok());
        assert!(ThetaF::new(schema, vec![0.5, 0.5]).is_err());
        // Non-normalised input is normalised.
        let tx = ThetaX::new(schema, vec![2.0, 2.0]).unwrap();
        assert_eq!(tx.probabilities(), &[0.5, 0.5]);
    }

    #[test]
    fn theta_x_sampling_follows_distribution() {
        let schema = AttributeSchema::new(2);
        let tx = ThetaX::new(schema, vec![0.7, 0.1, 0.1, 0.1]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let codes = tx.sample_codes(50_000, &mut rng);
        let frac0 = codes.iter().filter(|&&c| c == 0).count() as f64 / 50_000.0;
        assert!((frac0 - 0.7).abs() < 0.02);
        assert!(codes.iter().all(|&c| c < 4));
    }

    #[test]
    fn theta_m_from_graph() {
        let g = small_graph();
        let tm = ThetaM::from_graph(&g);
        assert_eq!(tm.degree_sequence, vec![2, 2, 3, 1]);
        assert_eq!(tm.triangles, Some(1)); // triangle 0-1-2
        assert_eq!(tm.implied_edges(), 4);
        let tm2 = ThetaM::from_graph_degrees_only(&g);
        assert_eq!(tm2.triangles, None);
    }

    #[test]
    fn raw_counts_sum_to_nodes_and_edges() {
        let g = small_graph();
        assert_eq!(
            node_config_counts(&g).iter().sum::<f64>(),
            g.num_nodes() as f64
        );
        assert_eq!(
            edge_config_counts(&g).iter().sum::<f64>(),
            g.num_edges() as f64
        );
    }
}
