//! The (Fast) Chung-Lu random graph model.
//!
//! CL generates a graph matching a desired degree sequence in expectation by
//! sampling both endpoints of every edge from the degree-proportional
//! distribution π (Section 3.3). The FCL implementation keeps a pool of node
//! ids repeated by degree so each endpoint draw is constant time; proposals
//! that would create self-loops or duplicate edges are redrawn, which is the
//! bias-corrected variant (cFCL) behaviour of resampling rather than silently
//! dropping edge slots.
//!
//! The model optionally applies AGM acceptance probabilities to every proposal
//! (used by AGM-DP-FCL) and optionally excludes degree-one nodes from π and
//! wires them up afterwards with the orphan post-processing of Algorithm 2.

use rand::Rng;
use rand::RngCore;

use agmdp_graph::graph::Edge;
use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};

use crate::acceptance::{AcceptanceContext, GenerateRequest, StructuralModel};
use crate::error::ModelError;
use crate::observe::SynthesisStage;
use crate::parallel::{chunk_rng, run_chunks, BlockRng, ExecPolicy};
use crate::pi::PiSampler;
use crate::postprocess::wire_orphans;
use crate::Result;

/// Attempt multiplier: edge sampling gives up after
/// `MAX_ATTEMPT_FACTOR * target_edges + 1000` proposals, which keeps
/// generation total even when acceptance probabilities are very small.
const MAX_ATTEMPT_FACTOR: usize = 200;

/// Oversampling factor of the chunked sampler: each round proposes twice the
/// missing edge count, so duplicate- and acceptance-rejections rarely force a
/// second round on sparse graphs.
const ROUND_OVERSAMPLE: usize = 2;

/// Samples `target_edges` CL edges over `n` nodes into a fresh graph.
///
/// Returns the graph together with the edges in insertion order (TriCycLe
/// needs the age order for its oldest-edge replacement rule).
pub(crate) fn sample_cl_edges(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    schema: AttributeSchema,
    acceptance: Option<&AcceptanceContext>,
    rng: &mut dyn RngCore,
) -> (AttributedGraph, Vec<Edge>) {
    let mut graph = AttributedGraph::new(n, schema);
    let mut order = Vec::with_capacity(target_edges);
    let max_attempts = MAX_ATTEMPT_FACTOR
        .saturating_mul(target_edges)
        .saturating_add(1_000);
    let mut attempts = 0usize;
    while graph.num_edges() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = pi.sample(rng);
        let v = pi.sample(rng);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        if let Some(ctx) = acceptance {
            if !ctx.accepts(u, v, rng) {
                continue;
            }
        }
        graph.add_edge(u, v).expect("endpoints validated above");
        order.push(Edge::new(u, v));
    }
    (graph, order)
}

/// The chunked, deterministically parallel form of [`sample_cl_edges`].
///
/// Proposals are generated round by round: every round proposes
/// `ROUND_OVERSAMPLE ×` the missing edge count, split into fixed-size chunks.
/// Each chunk wraps its own [`chunk_rng`] stream in a [`BlockRng`] (ChaCha
/// output pulled in 1 KiB blocks instead of word-at-a-time) and runs three
/// cache-friendly passes over a flat, pre-sized proposal buffer:
///
/// 1. **Propose** — fill the buffer with π-sampled endpoint pairs in one
///    tight loop (the alias table and the RNG block stay hot in cache).
/// 2. **Filter** — drop self-loops and edges already accepted in earlier
///    rounds, by binary search over a flat sorted array of packed edge keys
///    (skipped entirely against an empty snapshot, which is every proposal
///    of the first round). No randomness is consumed.
/// 3. **Accept** — flip the AGM acceptance coin for each surviving pair
///    from the same chunk stream.
///
/// The surviving candidates are then merged serially in chunk order,
/// skipping intra-round duplicates, until the target is reached.
///
/// The chunk layout, per-chunk draw sequence and merge order depend only on
/// the target and the master seed drawn from `rng`, so the output is
/// **bit-identical for every thread count** — including `threads = 1`,
/// which runs the same chunk sequence inline. (The stream differs from the
/// serial [`sample_cl_edges`], which redraws rejected proposals from a
/// single sequential RNG — and the per-draw sequence itself is pinned by
/// the goldens; see `docs/ARCHITECTURE.md`.)
pub(crate) fn sample_cl_edges_chunked(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    schema: AttributeSchema,
    acceptance: Option<&AcceptanceContext>,
    policy: &ExecPolicy,
    rng: &mut dyn RngCore,
) -> (AttributedGraph, Vec<Edge>) {
    let order = sample_cl_edge_list_chunked(pi, target_edges, acceptance, policy, rng);
    let graph = AttributedGraph::from_unique_edges(n, schema, &order)
        .expect("sampled edges are deduplicated, in range and loop-free");
    (graph, order)
}

/// The CL graph a [`GenerateRequest`] asks for: [`sample_cl_edges_chunked`]
/// under the request's execution policy, the serial [`sample_cl_edges`]
/// without one.
pub(crate) fn sample_cl_graph(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    schema: AttributeSchema,
    acceptance: Option<&AcceptanceContext>,
    policy: Option<&ExecPolicy>,
    rng: &mut dyn RngCore,
) -> (AttributedGraph, Vec<Edge>) {
    match policy {
        Some(policy) => {
            sample_cl_edges_chunked(n, pi, target_edges, schema, acceptance, policy, rng)
        }
        None => sample_cl_edges(n, pi, target_edges, schema, acceptance, rng),
    }
}

/// The sampling core of [`sample_cl_edges_chunked`], stopping at the
/// deduplicated edge list: same chunk layout, same draw sequence, same
/// accepted edges in the same order — the adjacency structure is just never
/// materialised. Callers that only need the edge multiset (the AGM
/// refinement loop observes Θ_F of intermediate samples and discards them)
/// use this to skip the `O(n + m)` graph build.
pub(crate) fn sample_cl_edge_list_chunked(
    pi: &PiSampler,
    target_edges: usize,
    acceptance: Option<&AcceptanceContext>,
    policy: &ExecPolicy,
    rng: &mut dyn RngCore,
) -> Vec<Edge> {
    let master = rng.next_u64();
    let mut order: Vec<Edge> = Vec::with_capacity(target_edges);
    // Canonical packed keys of every accepted edge, kept sorted between
    // rounds: later rounds' structural filter binary-searches this flat
    // array instead of walking per-node adjacency lists, and the graph
    // itself is only materialised once, after sampling finishes.
    let mut accepted_keys: Vec<u64> = Vec::with_capacity(target_edges);
    let max_attempts = MAX_ATTEMPT_FACTOR
        .saturating_mul(target_edges)
        .saturating_add(1_000);
    let mut attempts = 0usize;
    let mut next_chunk = 0u64;
    // Round-scratch buffers, allocated once and reused: dense workloads
    // converge through a geometric tail of tiny rounds, and per-round
    // allocations would dominate those rounds' real work.
    let mut candidates: Vec<Edge> = Vec::new();
    let mut by_key: Vec<(u64, u32)> = Vec::new();
    let mut first_arrival: Vec<bool> = Vec::new();
    while order.len() < target_edges && attempts < max_attempts {
        let missing = target_edges - order.len();
        let proposals = missing
            .saturating_mul(ROUND_OVERSAMPLE)
            .min(max_attempts - attempts)
            .max(1);
        let chunk_size = policy.chunk_size();
        let num_chunks = proposals.div_ceil(chunk_size);
        let snapshot = &accepted_keys;
        let round_base = next_chunk;
        let batches = run_chunks(policy.threads(), num_chunks, |chunk| {
            let mut chunk_rng = BlockRng::new(chunk_rng(master, round_base + chunk as u64));
            let count = if chunk + 1 == num_chunks {
                proposals - chunk * chunk_size
            } else {
                chunk_size
            };
            // Pass 1: flat proposal buffer, sized once.
            let mut survivors: Vec<Edge> = Vec::with_capacity(count);
            for _ in 0..count {
                let u = pi.sample(&mut chunk_rng);
                let v = pi.sample(&mut chunk_rng);
                survivors.push(Edge::new(u, v));
            }
            // Pass 2: structural filter (consumes no randomness; the
            // empty-snapshot skip therefore cannot change the stream).
            if snapshot.is_empty() {
                survivors.retain(|e| e.u != e.v);
            } else {
                survivors.retain(|e| e.u != e.v && snapshot.binary_search(&edge_key(e)).is_err());
            }
            // Pass 3: acceptance coins, drawn from the same chunk stream.
            if let Some(ctx) = acceptance {
                survivors.retain(|e| ctx.accepts(e.u, e.v, &mut chunk_rng));
            }
            survivors
        });
        next_chunk += num_chunks as u64;
        attempts += proposals;
        // Serial merge in chunk order. Intra-round duplicates were invisible
        // to the snapshot filter; a sort over (key, arrival index) finds each
        // key's first arrival, which replicates one-at-a-time insertion
        // exactly — same edges kept, in the same order — without paying a
        // per-edge adjacency insertion.
        candidates.clear();
        candidates.extend(batches.into_iter().flatten());
        by_key.clear();
        by_key.extend(
            candidates
                .iter()
                .enumerate()
                .map(|(i, e)| (edge_key(e), i as u32)),
        );
        by_key.sort_unstable();
        first_arrival.clear();
        first_arrival.resize(candidates.len(), false);
        let mut prev_key = None;
        for &(key, idx) in &by_key {
            if prev_key != Some(key) {
                prev_key = Some(key);
                first_arrival[idx as usize] = true;
            }
        }
        let split = accepted_keys.len();
        for (i, e) in candidates.iter().enumerate() {
            if order.len() >= target_edges {
                break;
            }
            if first_arrival[i] {
                accepted_keys.push(edge_key(e));
                order.push(*e);
            }
        }
        // This round's keys form a small unsorted tail behind an already
        // sorted prefix: sort the tail and merge in place instead of
        // re-sorting the whole array every round.
        accepted_keys[split..].sort_unstable();
        merge_sorted_tail(&mut accepted_keys, split);
    }
    order
}

/// Merges a sorted `keys[..split]` prefix with a sorted `keys[split..]` tail
/// in place (backward two-pointer merge; only elements larger than the
/// tail's minimum move). The two runs are disjoint by construction here, but
/// the merge is correct for any sorted runs.
fn merge_sorted_tail(keys: &mut [u64], split: usize) {
    if split == 0 || split == keys.len() || keys[split - 1] <= keys[split] {
        return;
    }
    let tail: Vec<u64> = keys[split..].to_vec();
    let mut i = split; // unmerged prefix length
    let mut j = tail.len(); // unmerged tail length
    let mut k = keys.len();
    while j > 0 {
        if i > 0 && keys[i - 1] > tail[j - 1] {
            keys[k - 1] = keys[i - 1];
            i -= 1;
        } else {
            keys[k - 1] = tail[j - 1];
            j -= 1;
        }
        k -= 1;
    }
}

/// Canonical `u < v` edge packed into one comparable word.
#[inline]
fn edge_key(e: &Edge) -> u64 {
    (u64::from(e.u) << 32) | u64::from(e.v)
}

/// The Chung-Lu / FCL structural model.
///
/// ```
/// use agmdp_graph::GraphView;
/// use agmdp_models::{ChungLuModel, ExecPolicy, GenerateRequest, StructuralModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = ChungLuModel::new(vec![3; 40]).unwrap();
/// // The chunked engine's contract: the thread count never changes the
/// // output, only how chunks are scheduled.
/// let sample = |threads| {
///     let policy = ExecPolicy::new(threads);
///     let request = GenerateRequest { policy: Some(&policy), ..GenerateRequest::default() };
///     model.generate(&request, &mut StdRng::seed_from_u64(7)).unwrap()
/// };
/// let (serial, parallel) = (sample(1), sample(4));
/// assert_eq!(serial.edge_vec(), parallel.edge_vec());
/// assert_eq!(serial.num_edges(), model.target_edges());
/// ```
#[derive(Debug, Clone)]
pub struct ChungLuModel {
    degrees: Vec<usize>,
    /// The π alias table, built once at construction and shared by every
    /// generate call (the AGM workflow samples from the same model four
    /// times per synthesis: the temporary edge set plus each refinement).
    pi: PiSampler,
    target_edges: usize,
    postprocess_orphans: bool,
}

impl ChungLuModel {
    /// Creates a model from the desired degree sequence (`degrees[i]` is the
    /// desired degree of node `i`). The target edge count is
    /// `round(Σ d_i / 2)`.
    pub fn new(degrees: Vec<usize>) -> Result<Self> {
        let total: usize = degrees.iter().sum();
        if degrees.is_empty() || total == 0 {
            return Err(ModelError::InvalidDegreeSequence(
                "degree sequence must contain a positive degree".to_string(),
            ));
        }
        let target_edges = (total as f64 / 2.0).round() as usize;
        let pi = PiSampler::from_degrees(&degrees)?;
        Ok(Self {
            degrees,
            pi,
            target_edges,
            postprocess_orphans: false,
        })
    }

    /// Enables the orphan-node post-processing extension (Algorithm 2): the
    /// generated graph is rewired so every node joins the main connected
    /// component while respecting desired degrees as far as possible.
    #[must_use]
    pub fn with_orphan_postprocessing(mut self, enabled: bool) -> Self {
        self.postprocess_orphans = enabled;
        self
    }

    /// The desired degree sequence.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The number of edges the model aims to generate.
    #[must_use]
    pub fn target_edges(&self) -> usize {
        self.target_edges
    }
}

impl StructuralModel for ChungLuModel {
    fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// The observer sees CL sampling as [`SynthesisStage::EdgeSample`] and
    /// the optional orphan post-process (Algorithm 2) as
    /// [`SynthesisStage::Rewire`]; no clock is read here.
    fn generate(
        &self,
        request: &GenerateRequest<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<AttributedGraph> {
        let acceptance = request.checked_acceptance(self.degrees.len())?;
        let schema = acceptance.map_or(AttributeSchema::new(0), |c| c.schema);
        let (n, pi, observer) = (self.degrees.len(), &self.pi, request.observer);
        observer.stage_start(SynthesisStage::EdgeSample);
        let (mut graph, _order) = sample_cl_graph(
            n,
            pi,
            self.target_edges,
            schema,
            acceptance,
            request.policy,
            rng,
        );
        let applied = match acceptance {
            Some(ctx) => ctx.apply_attributes(&mut graph),
            None => Ok(()),
        };
        observer.stage_end(SynthesisStage::EdgeSample);
        applied?;
        if self.postprocess_orphans {
            observer.stage_start(SynthesisStage::Rewire);
            wire_orphans(&mut graph, &self.degrees, pi, rng);
            observer.stage_end(SynthesisStage::Rewire);
        }
        Ok(graph)
    }

    /// The chunked sampler stops at its deduplicated edge list, skipping the
    /// adjacency build. Orphan post-processing rewires *through* the graph
    /// (and draws from the same RNG), and the serial sampler builds the
    /// graph as it goes, so those requests take the graph path.
    fn generate_edges(
        &self,
        request: &GenerateRequest<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Edge>> {
        let (Some(policy), false) = (request.policy, self.postprocess_orphans) else {
            return Ok(self.generate(request, rng)?.edge_vec());
        };
        let acceptance = request.checked_acceptance(self.degrees.len())?;
        request.observer.stage_start(SynthesisStage::EdgeSample);
        let edges =
            sample_cl_edge_list_chunked(&self.pi, self.target_edges, acceptance, policy, rng);
        request.observer.stage_end(SynthesisStage::EdgeSample);
        Ok(edges)
    }
}

/// Convenience: draws a uniformly random element of `slice`.
pub(crate) fn sample_uniform<'a, T, R: Rng + ?Sized>(slice: &'a [T], rng: &mut R) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[rng.gen_range(0..slice.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn power_lawish_degrees(n: usize) -> Vec<usize> {
        (0..n).map(|i| 1 + (n / (i + 1)).min(20)).collect()
    }

    #[test]
    fn construction_validates_degrees() {
        assert!(ChungLuModel::new(vec![]).is_err());
        assert!(ChungLuModel::new(vec![0, 0]).is_err());
        let m = ChungLuModel::new(vec![2, 2, 2]).unwrap();
        assert_eq!(m.target_edges(), 3);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.degrees(), &[2, 2, 2]);
    }

    #[test]
    fn generates_requested_edge_count() {
        let degrees = power_lawish_degrees(300);
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert_eq!(g.num_nodes(), 300);
        assert_eq!(g.num_edges(), model.target_edges());
        g.check_consistency().unwrap();
    }

    #[test]
    fn expected_degrees_are_roughly_preserved() {
        // High-degree nodes should end up with much larger degree than
        // low-degree nodes; check rank correlation loosely.
        let mut degrees = vec![1usize; 200];
        degrees[0] = 60;
        degrees[1] = 40;
        let model = ChungLuModel::new(degrees).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut d0 = 0usize;
        let mut d_rest = 0usize;
        for _ in 0..20 {
            let g = model
                .generate(&GenerateRequest::default(), &mut rng)
                .unwrap();
            d0 += g.degree(0);
            d_rest += g.degree(100);
        }
        assert!(
            d0 > 10 * d_rest.max(1),
            "hub degree {d0} vs leaf degree {d_rest}"
        );
    }

    #[test]
    fn acceptance_zero_for_config_blocks_those_edges() {
        let schema = AttributeSchema::new(1);
        let n = 120;
        let degrees = vec![4usize; n];
        // Half the nodes have attribute 0, half 1; forbid 0-0 edges entirely.
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 1)).collect();
        // configs: (0,0)=0, (0,1)=1, (1,1)=2
        let ctx = AcceptanceContext::new(codes, schema, vec![0.0, 1.0, 1.0]).unwrap();
        let model = ChungLuModel::new(degrees).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let request = GenerateRequest {
            acceptance: Some(&ctx),
            ..GenerateRequest::default()
        };
        let g = model.generate(&request, &mut rng).unwrap();
        for e in g.edges() {
            let cfg = g.edge_config(e.u, e.v);
            assert_ne!(cfg, 0, "edge {e:?} has forbidden configuration 0-0");
        }
        // Attributes must be applied to the output graph.
        assert_eq!(g.attribute_code(1), 1);
        assert_eq!(g.attribute_code(0), 0);
    }

    #[test]
    fn orphan_postprocessing_connects_the_graph() {
        // Many degree-one nodes: plain CL would orphan a good fraction of them.
        let mut degrees = vec![1usize; 150];
        for d in degrees.iter_mut().take(30) {
            *d = 8;
        }
        let model = ChungLuModel::new(degrees)
            .unwrap()
            .with_orphan_postprocessing(true);
        let mut rng = StdRng::seed_from_u64(5);
        let g = model
            .generate(&GenerateRequest::default(), &mut rng)
            .unwrap();
        assert!(
            agmdp_graph::components::is_connected(&g),
            "post-processed graph must be connected"
        );
        g.check_consistency().unwrap();
    }

    #[test]
    fn sample_uniform_helper() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(sample_uniform::<u32, _>(&[], &mut rng).is_none());
        let v = [10, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(sample_uniform(&v, &mut rng).unwrap()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = ChungLuModel::new(power_lawish_degrees(100)).unwrap();
        let g1 = model
            .generate(&GenerateRequest::default(), &mut StdRng::seed_from_u64(9))
            .unwrap();
        let g2 = model
            .generate(&GenerateRequest::default(), &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(g1.edge_vec(), g2.edge_vec());
    }

    #[test]
    fn chunked_sampler_is_thread_count_invariant() {
        // Small chunks force many chunks per round, so work stealing really
        // interleaves; the merged output must not care.
        let model = ChungLuModel::new(power_lawish_degrees(400)).unwrap();
        let generate = |threads: usize| {
            let policy = ExecPolicy::new(threads).with_chunk_size(64);
            let request = GenerateRequest {
                policy: Some(&policy),
                ..GenerateRequest::default()
            };
            model
                .generate(&request, &mut StdRng::seed_from_u64(11))
                .unwrap()
        };
        let serial = generate(1);
        assert_eq!(serial.num_edges(), model.target_edges());
        serial.check_consistency().unwrap();
        for threads in [2, 4, 8] {
            let parallel = generate(threads);
            assert_eq!(parallel.edge_vec(), serial.edge_vec());
            assert_eq!(parallel.attribute_codes(), serial.attribute_codes());
        }
    }

    #[test]
    fn chunked_sampler_respects_acceptance_across_threads() {
        let schema = AttributeSchema::new(1);
        let n = 200;
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 1)).collect();
        let ctx = AcceptanceContext::new(codes, schema, vec![0.0, 1.0, 1.0]).unwrap();
        let model = ChungLuModel::new(vec![4usize; n]).unwrap();
        let generate = |threads: usize| {
            let policy = ExecPolicy::new(threads).with_chunk_size(128);
            let request = GenerateRequest {
                acceptance: Some(&ctx),
                policy: Some(&policy),
                ..GenerateRequest::default()
            };
            model
                .generate(&request, &mut StdRng::seed_from_u64(12))
                .unwrap()
        };
        let serial = generate(1);
        for e in serial.edges() {
            assert_ne!(serial.edge_config(e.u, e.v), 0);
        }
        assert_eq!(generate(8).edge_vec(), serial.edge_vec());
    }

    #[test]
    fn chunked_sampler_terminates_on_impossible_targets() {
        // Acceptance probability 0 everywhere: no proposal ever survives, so
        // the sampler must stop at its attempt cap instead of spinning.
        let schema = AttributeSchema::new(1);
        let n = 40;
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 1)).collect();
        let ctx = AcceptanceContext::new(codes, schema, vec![0.0, 0.0, 0.0]).unwrap();
        let model = ChungLuModel::new(vec![3usize; n]).unwrap();
        let policy = ExecPolicy::new(2).with_chunk_size(32);
        let request = GenerateRequest {
            acceptance: Some(&ctx),
            policy: Some(&policy),
            ..GenerateRequest::default()
        };
        let g = model
            .generate(&request, &mut StdRng::seed_from_u64(13))
            .unwrap();
        assert_eq!(g.num_edges(), 0);
    }
}
