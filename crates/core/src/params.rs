//! AGM parameter sets `Θ_X`, `Θ_F`, `Θ_M` and their exact (non-private)
//! learners (Section 2.2 of the paper).

use rand::Rng;
use serde::Serialize;

use agmdp_graph::truncation::truncated_edges;
use agmdp_graph::{AttributeSchema, Edge, GraphView};

use crate::error::CoreError;
use crate::Result;

/// `Θ_X`: the distribution of attribute configurations over nodes.
///
/// `ΘX(y)` is the fraction of nodes whose attribute vector encodes to `y`.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
        Self::from_counts(graph.schema(), &node_config_counts(graph))
    }

    /// Exact estimate from the `Q_X` counts, one-normalised.
    #[must_use]
    pub fn from_counts(schema: AttributeSchema, counts: &[f64]) -> Self {
        Self {
            schema,
            probabilities: agmdp_privacy::postprocess::normalize(counts),
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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
        Self::from_counts(graph.schema(), &edge_config_counts(graph))
    }

    /// Exact estimate from the `Q_F` counts, one-normalised.
    #[must_use]
    pub fn from_counts(schema: AttributeSchema, counts: &[f64]) -> Self {
        Self {
            schema,
            probabilities: agmdp_privacy::postprocess::normalize(counts),
        }
    }

    /// [`ThetaF::from_graph`] of `edges` with node `i` carrying `codes[i]`:
    /// Algorithm 3's refinement counts each pass under the codes it sampled,
    /// which the temporary edge set `E'` does not carry. Every endpoint must
    /// index into `codes`, and each code must be valid for `schema`.
    #[must_use]
    pub fn from_edges(
        schema: AttributeSchema,
        codes: &[u32],
        edges: impl IntoIterator<Item = Edge>,
    ) -> Self {
        let mut counts = vec![0.0; schema.num_edge_configs()];
        for e in edges {
            counts[schema.edge_config(codes[e.u as usize], codes[e.v as usize])] += 1.0;
        }
        Self::from_counts(schema, &counts)
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThetaM {
    /// The (noisy or exact) degree sequence, one entry per node.
    pub degree_sequence: Vec<usize>,
    /// The (noisy or exact) triangle count; `None` for models that do not use
    /// one (e.g. FCL).
    pub triangles: Option<u64>,
}

impl ThetaM {
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
    count_edge_configs(graph, graph.edges())
}

/// The `Q_F` counts of the truncated graph µ(G, k) (Algorithm 4), in one
/// pass over the canonical edge order without building µ(G, k): equal to
/// `edge_config_counts(&edge_truncation(graph, k).graph)`, since
/// truncation keeps every node's attribute code.
#[must_use]
pub fn truncated_edge_config_counts<G: GraphView>(graph: &G, k: usize) -> Vec<f64> {
    count_edge_configs(graph, truncated_edges(graph, k))
}

fn count_edge_configs<G: GraphView>(graph: &G, edges: impl Iterator<Item = Edge>) -> Vec<f64> {
    let mut counts = vec![0.0; graph.schema().num_edge_configs()];
    for e in edges {
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
        assert_eq!(ThetaX::from_counts(g.schema(), &[2.0, 2.0]), tx);
    }

    #[test]
    fn theta_f_from_graph_matches_fractions() {
        let g = small_graph();
        let tf = ThetaF::from_graph(&g);
        // Configs: (0,0), (0,1), (1,1) -> counts 1, 2, 1 of 4 edges.
        assert_eq!(tf.probabilities(), &[0.25, 0.5, 0.25]);
        assert_eq!(ThetaF::from_counts(g.schema(), &[1.0, 2.0, 1.0]), tf);
        assert_eq!(
            ThetaF::from_edges(g.schema(), g.attribute_codes(), g.edges()),
            tf
        );
        // The codes passed in count, not the graph's own.
        let all_zero = ThetaF::from_edges(g.schema(), &[0; 4], g.edges());
        assert_eq!(all_zero.probabilities(), &[1.0, 0.0, 0.0]);
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
    fn theta_m_implies_half_the_degree_sum() {
        let tm = ThetaM {
            degree_sequence: vec![2, 2, 3, 1],
            triangles: None,
        };
        assert_eq!(tm.implied_edges(), 4);
    }

    #[test]
    fn truncated_counts_equal_the_counts_of_the_truncated_graph() {
        use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
        use agmdp_graph::truncation::edge_truncation;
        let lastfm = generate_dataset(&DatasetSpec::lastfm().scaled(0.1), 7).unwrap();
        for g in [toy_social_graph(), lastfm] {
            for k in 1..=g.max_degree() {
                assert_eq!(
                    truncated_edge_config_counts(&g, k),
                    edge_config_counts(&edge_truncation(&g, k).graph),
                    "k = {k}"
                );
            }
        }
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
