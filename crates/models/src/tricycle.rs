//! The TriCycLe random graph model (Algorithm 1 of the paper).
//!
//! TriCycLe is the paper's new structural model, designed so that its
//! parameters — the degree sequence `S` and the triangle count `n_Δ` — are
//! statistics with accurate differentially private estimators. Generation has
//! two phases:
//!
//! 1. **Seed phase.** A Chung-Lu graph with the desired number of edges is
//!    sampled from the degree-proportional distribution π.
//! 2. **Triangle phase.** While the graph has fewer than `n_Δ` triangles, a
//!    transitive edge is proposed: sample `v_i ~ π`, pick a uniform neighbor
//!    `v_k`, then a uniform neighbor `v_j` of `v_k` (a friend of a friend).
//!    The *oldest* edge `e_qr` is removed to keep the expected degree sequence,
//!    but the replacement is rejected (and `e_qr` reinstated as the *youngest*
//!    edge) if it would decrease the net triangle count.
//!
//! The orphan-node extension of Section 3.3 excludes degree-one nodes from π,
//! generates `m − |N₁|` seed edges, and wires the remaining orphans up with
//! Algorithm 2 (applied to both the seed and the final graph). When AGM
//! acceptance probabilities are supplied, every proposed edge (seed and
//! transitive) is additionally subjected to the accept/reject filter, which is
//! exactly how Algorithm 3 integrates TriCycLe (footnote 4).

use std::collections::VecDeque;

use rand::RngCore;

use agmdp_graph::graph::Edge;
use agmdp_graph::triangles::DegreeOrientation;
use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};

use crate::acceptance::{GenerateRequest, StructuralModel};
use crate::chung_lu::{sample_cl_graph, sample_uniform};
use crate::error::ModelError;
use crate::observe::SynthesisStage;
use crate::parallel::{run_chunks, ExecPolicy};
use crate::pi::PiSampler;
use crate::postprocess::wire_orphans;
use crate::Result;

/// The TriCycLe structural model, parameterised by `Θ_M = {S, n_Δ}`.
#[derive(Debug, Clone)]
pub struct TriCycLeModel {
    degrees: Vec<usize>,
    target_triangles: u64,
    orphan_extension: bool,
    max_iteration_factor: usize,
    /// The π alias table, built once per (degrees, orphan flag) and shared
    /// by every generate call — the AGM workflow samples from the same model
    /// four times per synthesis.
    pi: PiSampler,
}

impl TriCycLeModel {
    /// Creates a model from the desired degree sequence and triangle count.
    pub fn new(degrees: Vec<usize>, target_triangles: u64) -> Result<Self> {
        let total: usize = degrees.iter().sum();
        if degrees.is_empty() || total == 0 {
            return Err(ModelError::InvalidDegreeSequence(
                "degree sequence must contain a positive degree".to_string(),
            ));
        }
        let pi = Self::build_pi(&degrees, true)?;
        Ok(Self {
            degrees,
            target_triangles,
            orphan_extension: true,
            max_iteration_factor: 30,
            pi,
        })
    }

    /// π excludes degree-one nodes under the orphan extension (they are
    /// wired afterwards by Algorithm 2); falls back to the full distribution
    /// if that would leave the pool empty.
    fn build_pi(degrees: &[usize], orphan_extension: bool) -> Result<PiSampler> {
        if orphan_extension {
            PiSampler::from_degrees_excluding(degrees, 1)
                .or_else(|_| PiSampler::from_degrees(degrees))
        } else {
            PiSampler::from_degrees(degrees)
        }
    }

    /// Enables or disables the orphan-node extension (enabled by default).
    #[must_use]
    pub fn with_orphan_extension(mut self, enabled: bool) -> Self {
        if self.orphan_extension != enabled {
            self.pi = Self::build_pi(&self.degrees, enabled)
                .expect("a constructed model has a valid degree sequence");
        }
        self.orphan_extension = enabled;
        self
    }

    /// Sets the safety cap on rewiring iterations, expressed as a multiple of
    /// the edge count (default 30). The cap only matters when the requested
    /// triangle count is unreachable for the degree sequence (e.g. a very
    /// noisy DP estimate); generation then stops with the triangles it has.
    #[must_use]
    pub fn with_max_iteration_factor(mut self, factor: usize) -> Self {
        self.max_iteration_factor = factor.max(1);
        self
    }

    /// The desired degree sequence `S`.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The target triangle count `n_Δ`.
    #[must_use]
    pub fn target_triangles(&self) -> u64 {
        self.target_triangles
    }

    /// Total number of edges implied by the degree sequence.
    #[must_use]
    pub fn target_edges(&self) -> usize {
        (self.degrees.iter().sum::<usize>() as f64 / 2.0).round() as usize
    }
}

impl StructuralModel for TriCycLeModel {
    fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// Phase 1 (the Chung-Lu seed graph, the `O(m)` bulk) runs through the
    /// chunked parallel sampler when the request carries a policy, and so
    /// does the seed graph's triangle count; phase 2 (triangle-targeted
    /// rewiring) is inherently sequential — each accepted replacement
    /// changes the neighbor lists the next proposal samples from — and
    /// always draws from the caller's RNG, so its stream is identical for
    /// every thread count.
    ///
    /// The observer sees the two phases as [`SynthesisStage::EdgeSample`]
    /// (seed graph) and [`SynthesisStage::Rewire`] (triangle rewiring plus
    /// orphan post-processing); no clock is read here.
    fn generate(
        &self,
        request: &GenerateRequest<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<AttributedGraph> {
        let acceptance = request.checked_acceptance(self.degrees.len())?;
        let observer = request.observer;
        let n = self.degrees.len();
        let schema = acceptance.map_or(AttributeSchema::new(0), |c| c.schema);
        let m_total = self.target_edges();

        let pi = &self.pi;

        let degree_one = self.degrees.iter().filter(|&&d| d == 1).count();
        let seed_edges = if self.orphan_extension {
            m_total.saturating_sub(degree_one).max(1)
        } else {
            m_total.max(1)
        };

        // Phase 1: Chung-Lu seed graph (with acceptance filtering when given).
        observer.stage_start(SynthesisStage::EdgeSample);
        let (mut graph, order) =
            sample_cl_graph(n, pi, seed_edges, schema, acceptance, request.policy, rng);
        if self.orphan_extension {
            wire_orphans(&mut graph, &self.degrees, pi, rng);
        }
        observer.stage_end(SynthesisStage::EdgeSample);
        let mut ages: VecDeque<Edge> = order.into();

        // Phase 2: rewire edges until the triangle target is met.
        observer.stage_start(SynthesisStage::Rewire);
        let mut tau = count_seed_triangles(&graph, request.policy);
        let max_iterations = self
            .max_iteration_factor
            .saturating_mul(m_total)
            .saturating_add(1_000);
        let mut iterations = 0usize;
        while tau < self.target_triangles && iterations < max_iterations {
            iterations += 1;
            let vi = pi.sample(rng);
            let Some(&vk) = sample_uniform(graph.neighbors(vi), rng) else {
                continue;
            };
            let Some(&vj) = sample_uniform(graph.neighbors(vk), rng) else {
                continue;
            };
            if vj == vi || graph.has_edge(vi, vj) {
                continue;
            }
            if let Some(ctx) = acceptance {
                if !ctx.accepts(vi, vj, rng) {
                    continue;
                }
            }
            // Oldest still-present edge to replace.
            let Some(eqr) = pop_oldest_present(&mut ages, &graph) else {
                break;
            };
            let cn_qr = graph.common_neighbor_count(eqr.u, eqr.v) as u64;
            graph
                .remove_edge(eqr.u, eqr.v)
                .expect("edge presence was just checked");
            let cn_ij = graph.common_neighbor_count(vi, vj) as u64;
            if cn_ij >= cn_qr {
                graph.add_edge(vi, vj).expect("non-edge was just checked");
                ages.push_back(Edge::new(vi, vj));
                tau = tau + cn_ij - cn_qr;
            } else {
                // Undo the removal; e_qr becomes the youngest edge so the
                // algorithm cannot get stuck re-proposing it immediately.
                graph.add_edge(eqr.u, eqr.v).expect("edge was just removed");
                ages.push_back(eqr);
            }
        }

        if self.orphan_extension {
            wire_orphans(&mut graph, &self.degrees, pi, rng);
        }
        let result = match acceptance {
            Some(ctx) => ctx.apply_attributes(&mut graph).map(|()| graph),
            None => Ok(graph),
        };
        observer.stage_end(SynthesisStage::Rewire);
        result
    }
}

/// The seed graph's triangle count, over node chunks on the request's
/// threads when it carries a policy. The chunks partition the nodes, so
/// their sum is the count at every thread count.
fn count_seed_triangles(graph: &AttributedGraph, policy: Option<&ExecPolicy>) -> u64 {
    let oriented = DegreeOrientation::new(graph);
    let n = graph.num_nodes();
    let Some(policy) = policy else {
        return oriented.triangles_in(0..n);
    };
    let size = policy.chunk_size();
    run_chunks(policy.threads(), n.div_ceil(size), |chunk| {
        oriented.triangles_in(chunk * size..((chunk + 1) * size).min(n))
    })
    .into_iter()
    .sum()
}

fn pop_oldest_present(ages: &mut VecDeque<Edge>, graph: &AttributedGraph) -> Option<Edge> {
    while let Some(e) = ages.pop_front() {
        if graph.has_edge(e.u, e.v) {
            return Some(e);
        }
        // The edge was removed by post-processing; skip it.
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::AcceptanceContext;
    use agmdp_graph::clustering::average_local_clustering;
    use agmdp_graph::components::is_connected;
    use agmdp_graph::triangles::count_triangles;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small power-law-ish degree sequence summing to an even total.
    fn test_degrees(n: usize) -> Vec<usize> {
        let mut d: Vec<usize> = (0..n).map(|i| 2 + (n / (4 * (i + 1))).min(12)).collect();
        if d.iter().sum::<usize>() % 2 == 1 {
            d[0] += 1;
        }
        d
    }

    #[test]
    fn construction_validates() {
        assert!(TriCycLeModel::new(vec![], 5).is_err());
        assert!(TriCycLeModel::new(vec![0, 0], 5).is_err());
        let m = TriCycLeModel::new(vec![2, 2, 2], 1).unwrap();
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.target_triangles(), 1);
        assert_eq!(m.target_edges(), 3);
        assert_eq!(m.degrees(), &[2, 2, 2]);
    }

    #[test]
    fn reaches_the_triangle_target_when_feasible() {
        let degrees = test_degrees(150);
        let target = 120u64;
        let model = TriCycLeModel::new(degrees, target)
            .unwrap()
            .with_orphan_extension(false);
        let mut rng = StdRng::seed_from_u64(11);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        let triangles = count_triangles(&g);
        assert!(
            triangles >= target,
            "generated {triangles} triangles, wanted at least {target}"
        );
        g.check_consistency().unwrap();
    }

    #[test]
    fn produces_more_clustering_than_plain_chung_lu() {
        use crate::chung_lu::ChungLuModel;
        let degrees = test_degrees(200);
        let target = 250u64;
        let mut rng = StdRng::seed_from_u64(12);
        let tri = TriCycLeModel::new(degrees.clone(), target)
            .unwrap()
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        let cl = ChungLuModel::new(degrees)
            .unwrap()
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert!(
            count_triangles(&tri) > count_triangles(&cl),
            "TriCycLe should create more triangles than CL"
        );
        assert!(average_local_clustering(&tri) > average_local_clustering(&cl));
    }

    #[test]
    fn edge_count_stays_close_to_target() {
        let degrees = test_degrees(150);
        let m_target: usize = degrees.iter().sum::<usize>() / 2;
        let model = TriCycLeModel::new(degrees, 100).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        let m = g.num_edges() as f64;
        assert!(
            (m - m_target as f64).abs() / m_target as f64 <= 0.15,
            "edge count {m} strays too far from {m_target}"
        );
    }

    #[test]
    fn orphan_extension_yields_connected_graph() {
        let mut degrees = vec![1usize; 120];
        for d in degrees.iter_mut().take(30) {
            *d = 7;
        }
        let model = TriCycLeModel::new(degrees, 60).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert!(
            is_connected(&g),
            "orphan extension must produce a connected graph"
        );
    }

    #[test]
    fn unreachable_target_terminates() {
        // Only 4 nodes of degree 1 — one or two edges, no triangles possible,
        // but a huge target: generation must still terminate quickly.
        let model = TriCycLeModel::new(vec![1, 1, 1, 1], 1_000)
            .unwrap()
            .with_orphan_extension(false)
            .with_max_iteration_factor(5);
        let mut rng = StdRng::seed_from_u64(15);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert!(count_triangles(&g) < 1_000);
    }

    #[test]
    fn acceptance_probabilities_shape_edge_configurations() {
        let n = 160;
        let schema = AttributeSchema::new(1);
        let degrees = vec![5usize; n];
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 0)).collect();
        // Forbid mixed (0,1) edges: homophily taken to the extreme.
        let ctx = AcceptanceContext::new(codes, schema, vec![1.0, 0.0, 1.0]).unwrap();
        let model = TriCycLeModel::new(degrees, 200)
            .unwrap()
            .with_orphan_extension(false);
        let mut rng = StdRng::seed_from_u64(16);
        let request = GenerateRequest {
            acceptance: Some(&ctx),
            ..GenerateRequest::default()
        };
        let g = model.generate(&request, &mut rng).unwrap();
        let mixed = g
            .edges()
            .filter(|e| g.attribute_code(e.u) != g.attribute_code(e.v))
            .count();
        assert_eq!(mixed, 0, "acceptance probability 0 must block mixed edges");
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let model = TriCycLeModel::new(test_degrees(80), 50).unwrap();
        let g1 = model
            .generate(&GenerateRequest::default(), &mut StdRng::seed_from_u64(21))
            .unwrap();
        let g2 = model
            .generate(&GenerateRequest::default(), &mut StdRng::seed_from_u64(21))
            .unwrap();
        assert_eq!(g1.edge_vec(), g2.edge_vec());
    }

    #[test]
    fn seed_triangles_count_the_same_in_any_chunking() {
        let model = crate::chung_lu::ChungLuModel::new(test_degrees(300)).unwrap();
        let g = model
            .generate(&GenerateRequest::default(), &mut StdRng::seed_from_u64(22))
            .unwrap();
        let exact = count_triangles(&g);
        assert!(exact > 0);
        assert_eq!(count_seed_triangles(&g, None), exact);
        for threads in [1, 2, 4] {
            for chunk_size in [1, 7, 64, ExecPolicy::DEFAULT_CHUNK_SIZE] {
                let policy = ExecPolicy::new(threads).with_chunk_size(chunk_size);
                assert_eq!(count_seed_triangles(&g, Some(&policy)), exact);
            }
        }
    }
}
