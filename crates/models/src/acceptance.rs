//! The structural-model abstraction used by AGM / AGM-DP.
//!
//! AGM treats the structural model `M` as a black box that proposes edges;
//! the attribute correlations are injected by accepting or rejecting each
//! proposed edge with a probability that depends only on the edge's attribute
//! configuration (Section 4, footnote 4). [`AcceptanceContext`] carries the
//! per-configuration acceptance probabilities together with the attribute
//! codes that were sampled for the synthetic nodes; [`StructuralModel`] is the
//! trait each generator implements so AGM-DP can swap FCL, TCL or TriCycLe
//! without changing the workflow. Its one entry point takes a
//! [`GenerateRequest`] naming the acceptance filter, the execution policy and
//! the stage observer, so a new model joins the workflow by implementing
//! `generate` alone.

use rand::Rng;
use rand::RngCore;

use agmdp_graph::{AttributeSchema, AttributedGraph, NodeId};

use crate::error::ModelError;
use crate::observe::{NoopStageObserver, StageObserver};
use crate::parallel::ExecPolicy;
use crate::Result;

/// Acceptance-probability context for attribute-aware edge generation.
#[derive(Debug, Clone)]
pub struct AcceptanceContext {
    /// Attribute code of every synthetic node (indexed by node id).
    pub attribute_codes: Vec<u32>,
    /// The attribute schema the codes belong to.
    pub schema: AttributeSchema,
    /// Acceptance probability for each edge configuration
    /// (indexed by [`agmdp_graph::attributes::EdgeConfigIndex`]), each in `[0, 1]`.
    pub acceptance: Vec<f64>,
}

impl AcceptanceContext {
    /// Creates a context, validating dimensions and probability ranges.
    pub fn new(
        attribute_codes: Vec<u32>,
        schema: AttributeSchema,
        acceptance: Vec<f64>,
    ) -> Result<Self> {
        if acceptance.len() != schema.num_edge_configs() {
            return Err(ModelError::AcceptanceMismatch(format!(
                "expected {} acceptance probabilities, got {}",
                schema.num_edge_configs(),
                acceptance.len()
            )));
        }
        if acceptance
            .iter()
            .any(|&p| !(0.0..=1.0).contains(&p) || p.is_nan())
        {
            return Err(ModelError::AcceptanceMismatch(
                "acceptance probabilities must lie in [0, 1]".to_string(),
            ));
        }
        for &code in &attribute_codes {
            if schema.validate_code(code).is_err() {
                return Err(ModelError::AcceptanceMismatch(format!(
                    "attribute code {code} out of range for schema width {}",
                    schema.width()
                )));
            }
        }
        Ok(Self {
            attribute_codes,
            schema,
            acceptance,
        })
    }

    /// Acceptance probability of a proposed edge between nodes `u` and `v`.
    #[must_use]
    pub fn probability(&self, u: NodeId, v: NodeId) -> f64 {
        let cu = self.attribute_codes[u as usize];
        let cv = self.attribute_codes[v as usize];
        self.acceptance[self.schema.edge_config(cu, cv)]
    }

    /// Performs the accept/reject coin flip for a proposed edge.
    pub fn accepts<R: Rng + ?Sized>(&self, u: NodeId, v: NodeId, rng: &mut R) -> bool {
        rng.gen::<f64>() <= self.probability(u, v)
    }

    /// Validates that the context carries exactly `num_nodes` attribute
    /// codes (every model checks this before generating with the context).
    pub fn check_node_count(&self, num_nodes: usize) -> Result<()> {
        if self.attribute_codes.len() != num_nodes {
            return Err(ModelError::AcceptanceMismatch(format!(
                "model has {num_nodes} nodes but context has {} attribute codes",
                self.attribute_codes.len()
            )));
        }
        Ok(())
    }

    /// Copies the attribute codes onto a generated graph.
    pub fn apply_attributes(&self, graph: &mut AttributedGraph) -> Result<()> {
        graph
            .set_all_attribute_codes(&self.attribute_codes)
            .map_err(|e| ModelError::AcceptanceMismatch(e.to_string()))
    }
}

/// What one [`StructuralModel`] call samples and how. The default is a
/// plain, sequential, unobserved sample: no acceptance filter, the serial
/// sampler on the caller's RNG, and nobody listening for stage boundaries.
#[derive(Clone, Copy)]
pub struct GenerateRequest<'a> {
    /// AGM acceptance probabilities applied to every proposed edge; the
    /// generated graph then carries the context's attribute codes. `None`
    /// samples from the structural parameters alone, as for the temporary
    /// edge set `E'` in Algorithm 3.
    pub acceptance: Option<&'a AcceptanceContext>,
    /// Runs the chunked, deterministically parallel sampler of
    /// [`crate::parallel`]. `policy.threads()` never changes the output —
    /// only how chunks are scheduled. `None` keeps the serial sampler,
    /// whose draw sequence differs from the chunked one (dataset generation
    /// depends on it).
    pub policy: Option<&'a ExecPolicy>,
    /// Receives the [`crate::SynthesisStage::EdgeSample`] and
    /// [`crate::SynthesisStage::Rewire`] boundaries of the run. Observers receive
    /// *only* callbacks — no model may read a clock.
    pub observer: &'a dyn StageObserver,
}

impl Default for GenerateRequest<'_> {
    fn default() -> Self {
        Self {
            acceptance: None,
            policy: None,
            observer: &NoopStageObserver,
        }
    }
}

impl<'a> GenerateRequest<'a> {
    /// The acceptance context after checking it against the model's node
    /// count (every model calls this before sampling).
    pub fn checked_acceptance(&self, num_nodes: usize) -> Result<Option<&'a AcceptanceContext>> {
        if let Some(ctx) = self.acceptance {
            ctx.check_node_count(num_nodes)?;
        }
        Ok(self.acceptance)
    }
}

/// A generative structural model in the sense of Section 2.2: anything that
/// can produce an edge set over a fixed node set, optionally filtered by AGM
/// acceptance probabilities. AGM treats the model as a black box that
/// proposes edges, so one request-driven entry point serves every caller.
pub trait StructuralModel {
    /// Number of nodes in the graphs this model generates.
    fn num_nodes(&self) -> usize;

    /// Samples a graph as `request` describes.
    fn generate(
        &self,
        request: &GenerateRequest<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<AttributedGraph>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn context_validation() {
        let schema = AttributeSchema::new(1); // 3 edge configs
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 3]).is_ok());
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 2]).is_err());
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![1.0, 2.0, 0.5]).is_err());
        assert!(AcceptanceContext::new(vec![0, 5], schema, vec![1.0; 3]).is_err());
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![f64::NAN, 0.5, 0.5]).is_err());
    }

    #[test]
    fn probability_lookup_uses_edge_config() {
        let schema = AttributeSchema::new(1);
        // Edge configs for w=1: (0,0) -> 0, (0,1) -> 1, (1,1) -> 2.
        let ctx = AcceptanceContext::new(vec![0, 1, 1], schema, vec![0.1, 0.5, 0.9]).unwrap();
        assert!((ctx.probability(0, 0) - 0.1).abs() < 1e-12);
        assert!((ctx.probability(0, 1) - 0.5).abs() < 1e-12);
        assert!((ctx.probability(1, 2) - 0.9).abs() < 1e-12);
        assert!((ctx.probability(1, 0) - ctx.probability(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn accepts_respects_extreme_probabilities() {
        let schema = AttributeSchema::new(1);
        let ctx = AcceptanceContext::new(vec![0, 1], schema, vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(ctx.accepts(0, 1, &mut rng)); // config (0,1) has p = 1
            assert!(!ctx.accepts(0, 0, &mut rng)); // config (0,0) has p = 0
        }
    }

    #[test]
    fn apply_attributes_copies_codes() {
        let schema = AttributeSchema::new(2);
        let ctx = AcceptanceContext::new(vec![3, 0, 2], schema, vec![1.0; 10]).unwrap();
        let mut g = AttributedGraph::new(3, schema);
        ctx.apply_attributes(&mut g).unwrap();
        assert_eq!(g.attribute_codes(), &[3, 0, 2]);
        // Wrong node count fails.
        let mut small = AttributedGraph::new(2, schema);
        assert!(ctx.apply_attributes(&mut small).is_err());
    }
}
