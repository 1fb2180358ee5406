//! The Transitive Chung-Lu (TCL) model of Pfeiffer et al. (PASSAT 2012).
//!
//! TCL is the model TriCycLe is inspired by and one of the non-private
//! baselines in Figures 2–3 of the paper. It extends Chung-Lu with a
//! *transitive closure probability* ρ: when refining the CL seed graph, a new
//! edge connects a π-sampled node either to a random two-hop neighbor (with
//! probability ρ, creating a triangle) or to another π-sampled node (with
//! probability 1 − ρ). Each new edge replaces the oldest edge in the graph so
//! the expected degree sequence is preserved; refinement stops once every seed
//! edge has been replaced.
//!
//! ρ is learned from the input graph with expectation–maximisation: for every
//! observed edge the E-step computes the posterior probability that the edge
//! was formed transitively rather than at random, and the M-step sets ρ to the
//! mean of those posteriors. (The paper notes that exactly this EM step is
//! what makes TCL hard to release under differential privacy, motivating
//! TriCycLe.)

use std::collections::VecDeque;

use rand::Rng;
use rand::RngCore;

use agmdp_graph::graph::Edge;
use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};

use crate::acceptance::{GenerateRequest, StructuralModel};
use crate::chung_lu::{sample_cl_graph, sample_uniform};
use crate::error::ModelError;
use crate::observe::SynthesisStage;
use crate::pi::PiSampler;
use crate::Result;

/// The TCL structural model: a desired degree sequence plus the transitive
/// closure probability ρ.
#[derive(Debug, Clone)]
pub struct TclModel {
    degrees: Vec<usize>,
    rho: f64,
    max_iteration_factor: usize,
}

impl TclModel {
    /// Creates a model from a degree sequence and a transitive closure
    /// probability `rho ∈ [0, 1]`.
    pub fn new(degrees: Vec<usize>, rho: f64) -> Result<Self> {
        let total: usize = degrees.iter().sum();
        if degrees.is_empty() || total == 0 {
            return Err(ModelError::InvalidDegreeSequence(
                "degree sequence must contain a positive degree".to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&rho) || rho.is_nan() {
            return Err(ModelError::InvalidParameter(format!(
                "transitive closure probability must lie in [0, 1], got {rho}"
            )));
        }
        Ok(Self {
            degrees,
            rho,
            max_iteration_factor: 60,
        })
    }

    /// Fits a TCL model to an input graph: degrees are read off directly and ρ
    /// is estimated with `em_iterations` rounds of EM.
    pub fn fit(graph: &AttributedGraph, em_iterations: usize) -> Result<Self> {
        let degrees = graph.degrees();
        let rho = estimate_rho(graph, em_iterations);
        Self::new(degrees, rho)
    }

    /// The learned transitive closure probability ρ.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The desired degree sequence.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Total number of edges implied by the degree sequence.
    #[must_use]
    pub fn target_edges(&self) -> usize {
        (self.degrees.iter().sum::<usize>() as f64 / 2.0).round() as usize
    }

    /// Generation body behind [`StructuralModel::generate`].
    fn sample(
        &self,
        request: &GenerateRequest<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<AttributedGraph> {
        let acceptance = request.checked_acceptance(self.degrees.len())?;
        let n = self.degrees.len();
        let schema = acceptance.map_or(AttributeSchema::new(0), |c| c.schema);
        let m = self.target_edges().max(1);
        let pi = PiSampler::from_degrees(&self.degrees)?;

        let (mut graph, order) =
            sample_cl_graph(n, &pi, m, schema, acceptance, request.policy, rng);
        if let Some(ctx) = acceptance {
            ctx.apply_attributes(&mut graph)?;
        }
        let seed_count = order.len();
        let mut ages: VecDeque<Edge> = order.into();

        let mut replaced = 0usize;
        let max_iterations = self
            .max_iteration_factor
            .saturating_mul(m)
            .saturating_add(1_000);
        let mut iterations = 0usize;
        while replaced < seed_count && iterations < max_iterations {
            iterations += 1;
            let vi = pi.sample(rng);
            let vj = if rng.gen::<f64>() < self.rho {
                // Transitive: friend of a friend of vi.
                let Some(&vk) = sample_uniform(graph.neighbors(vi), rng) else {
                    continue;
                };
                let Some(&vj) = sample_uniform(graph.neighbors(vk), rng) else {
                    continue;
                };
                vj
            } else {
                pi.sample(rng)
            };
            if vj == vi || graph.has_edge(vi, vj) {
                continue;
            }
            if let Some(ctx) = acceptance {
                if !ctx.accepts(vi, vj, rng) {
                    continue;
                }
            }
            let Some(oldest) = ages.pop_front() else {
                break;
            };
            if graph.has_edge(oldest.u, oldest.v) {
                graph
                    .remove_edge(oldest.u, oldest.v)
                    .expect("presence just checked");
            }
            graph.add_edge(vi, vj).expect("non-edge just checked");
            ages.push_back(Edge::new(vi, vj));
            replaced += 1;
        }
        Ok(graph)
    }
}

impl StructuralModel for TclModel {
    fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// The Chung-Lu seed phase — the `O(m)` bulk of the work — runs through
    /// the chunked parallel sampler when the request carries a policy; the
    /// edge-replacement refinement that follows is inherently sequential
    /// (every replacement reads the evolving graph) and always runs on the
    /// caller's RNG, so its stream is identical for every thread count. TCL
    /// has no separate rewiring phase: the observer sees the whole run as
    /// [`SynthesisStage::EdgeSample`].
    fn generate(
        &self,
        request: &GenerateRequest<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<AttributedGraph> {
        request.observer.stage_start(SynthesisStage::EdgeSample);
        let result = self.sample(request, rng);
        request.observer.stage_end(SynthesisStage::EdgeSample);
        result
    }
}

/// EM estimate of the transitive closure probability ρ from an input graph.
///
/// E-step: for an edge `(i, j)`, the probability of being generated by the
/// transitive path is proportional to `ρ · T_ij` with
/// `T_ij = Σ_{k ∈ Γ(i) ∩ Γ(j)} 1 / (d_i · d_k)` (pick a neighbor of `i`
/// uniformly, then a neighbor of that node uniformly), while the random path
/// has probability proportional to `(1 − ρ) · d_j / 2m`. M-step: ρ becomes the
/// mean posterior over all edges.
#[must_use]
pub fn estimate_rho(graph: &AttributedGraph, em_iterations: usize) -> f64 {
    let m = graph.num_edges();
    if m == 0 {
        return 0.0;
    }
    let two_m = 2.0 * m as f64;
    let edges: Vec<Edge> = graph.edge_vec();
    // Pre-compute, for each edge, the symmetrised transitive proposal mass and
    // the random proposal mass.
    let mut transitive = Vec::with_capacity(edges.len());
    let mut random = Vec::with_capacity(edges.len());
    for e in &edges {
        let di = graph.degree(e.u) as f64;
        let dj = graph.degree(e.v) as f64;
        let mut t_ij = 0.0;
        let mut t_ji = 0.0;
        // Common neighbors via merge of sorted adjacency lists.
        let (a, b) = (graph.neighbors(e.u), graph.neighbors(e.v));
        let (mut x, mut y) = (0usize, 0usize);
        while x < a.len() && y < b.len() {
            match a[x].cmp(&b[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    let dk = graph.degree(a[x]) as f64;
                    if di > 0.0 && dk > 0.0 {
                        t_ij += 1.0 / (di * dk);
                    }
                    if dj > 0.0 && dk > 0.0 {
                        t_ji += 1.0 / (dj * dk);
                    }
                    x += 1;
                    y += 1;
                }
            }
        }
        transitive.push(0.5 * (t_ij + t_ji));
        random.push(0.5 * (dj / two_m + di / two_m));
    }

    let mut rho: f64 = 0.5;
    for _ in 0..em_iterations.max(1) {
        let mut sum_posterior = 0.0;
        for (t, r) in transitive.iter().zip(&random) {
            let num = rho * t;
            let den = num + (1.0 - rho) * r;
            if den > 0.0 {
                sum_posterior += num / den;
            }
        }
        rho = (sum_posterior / edges.len() as f64).clamp(0.0, 1.0);
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::AcceptanceContext;
    use agmdp_graph::clustering::average_local_clustering;
    use agmdp_graph::triangles::count_triangles;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clustered_graph(groups: usize, group_size: usize) -> AttributedGraph {
        // Disjoint cliques joined in a ring: heavy clustering.
        let n = groups * group_size;
        let mut g = AttributedGraph::unattributed(n);
        for c in 0..groups {
            let base = (c * group_size) as u32;
            for a in 0..group_size as u32 {
                for b in (a + 1)..group_size as u32 {
                    g.add_edge(base + a, base + b).unwrap();
                }
            }
            let next_base = (((c + 1) % groups) * group_size) as u32;
            let _ = g.try_add_edge(base, next_base);
        }
        g
    }

    fn random_sparse_graph(n: usize, m: usize, seed: u64) -> AttributedGraph {
        let mut g = AttributedGraph::unattributed(n);
        let mut rng = StdRng::seed_from_u64(seed);
        while g.num_edges() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = g.try_add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn construction_validates() {
        assert!(TclModel::new(vec![], 0.5).is_err());
        assert!(TclModel::new(vec![0], 0.5).is_err());
        assert!(TclModel::new(vec![2, 2], -0.1).is_err());
        assert!(TclModel::new(vec![2, 2], 1.5).is_err());
        assert!(TclModel::new(vec![2, 2], f64::NAN).is_err());
        let m = TclModel::new(vec![2, 2, 2], 0.3).unwrap();
        assert_eq!(m.rho(), 0.3);
        assert_eq!(m.target_edges(), 3);
        assert_eq!(m.degrees().len(), 3);
    }

    #[test]
    fn rho_estimate_higher_on_clustered_graph() {
        let clustered = clustered_graph(10, 6);
        let random = random_sparse_graph(60, clustered.num_edges(), 3);
        let rho_clustered = estimate_rho(&clustered, 15);
        let rho_random = estimate_rho(&random, 15);
        assert!(
            rho_clustered > rho_random,
            "clustered graph should get a larger rho ({rho_clustered} vs {rho_random})"
        );
        assert!((0.0..=1.0).contains(&rho_clustered));
        assert!((0.0..=1.0).contains(&rho_random));
    }

    #[test]
    fn rho_estimate_on_empty_graph_is_zero() {
        assert_eq!(estimate_rho(&AttributedGraph::unattributed(5), 10), 0.0);
    }

    #[test]
    fn fit_and_generate_preserves_clustering_better_than_cl() {
        use crate::chung_lu::ChungLuModel;
        let input = clustered_graph(12, 6);
        let tcl = TclModel::fit(&input, 10).unwrap();
        assert!(
            tcl.rho() > 0.2,
            "clustered input should yield substantial rho"
        );
        let mut rng = StdRng::seed_from_u64(5);
        let tcl_graph = tcl.generate(&GenerateRequest::default(), &mut rng).unwrap();
        let cl_graph = ChungLuModel::new(input.degrees())
            .unwrap()
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert!(count_triangles(&tcl_graph) > count_triangles(&cl_graph));
        assert!(average_local_clustering(&tcl_graph) > average_local_clustering(&cl_graph));
    }

    #[test]
    fn generation_keeps_edge_count() {
        let degrees = vec![4usize; 100];
        let model = TclModel::new(degrees, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert_eq!(g.num_edges(), model.target_edges());
        g.check_consistency().unwrap();
    }

    #[test]
    fn acceptance_filtering_applies() {
        let n = 100;
        let schema = AttributeSchema::new(1);
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 0)).collect();
        let ctx = AcceptanceContext::new(codes, schema, vec![1.0, 0.0, 1.0]).unwrap();
        let model = TclModel::new(vec![4; n], 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let request = GenerateRequest {
            acceptance: Some(&ctx),
            ..GenerateRequest::default()
        };
        let g = model.generate(&request, &mut rng).unwrap();
        let mixed = g
            .edges()
            .filter(|e| g.attribute_code(e.u) != g.attribute_code(e.v))
            .count();
        assert_eq!(mixed, 0);
    }
}
