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

use rand::rngs::StdRng;
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
/// skipping intra-round duplicates, until the target is reached. The merge
/// keeps the accepted edges' keys sorted, and the graph is built from them
/// in that order, so every adjacency list fills in increasing order.
///
/// A round's chunks run in waves, and the round stops at the wave that
/// reaches the target: the chunks after it could only add candidates the
/// merge would never reach. The first wave covers the missing edges as if
/// every proposal survived; each later wave is sized from the survival seen
/// so far in the round. Waves only group chunks, so they change neither the
/// draws nor the merge order, and chunk indices and the attempt count still
/// advance by the whole round.
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
    let (order, keys) = sample_cl_edge_keys(n, pi, target_edges, acceptance, policy, rng);
    let graph = AttributedGraph::from_unique_edges(n, schema, keys.iter().map(key_edge))
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

/// The sampling core of [`sample_cl_edges_chunked`]: the accepted edges in
/// the order they were accepted, and their packed keys in increasing order,
/// the set the dedupe keeps sorted anyway.
fn sample_cl_edge_keys(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    acceptance: Option<&AcceptanceContext>,
    policy: &ExecPolicy,
    rng: &mut dyn RngCore,
) -> (Vec<Edge>, Vec<u64>) {
    let master = rng.next_u64();
    let mut order: Vec<Edge> = Vec::with_capacity(target_edges);
    // Canonical packed keys of every edge accepted in earlier rounds, sorted:
    // later rounds' structural filter binary-searches this flat array
    // instead of walking per-node adjacency lists, and the graph itself is
    // only materialised once, after sampling finishes.
    let mut accepted_keys: Vec<u64> = Vec::new();
    let max_attempts = MAX_ATTEMPT_FACTOR
        .saturating_mul(target_edges)
        .saturating_add(1_000);
    let mut attempts = 0usize;
    let mut next_chunk = 0u64;
    let chunk_size = policy.chunk_size();
    // Wave-scratch buffers, allocated once and reused: dense workloads
    // converge through a geometric tail of tiny rounds, and per-wave
    // allocations would dominate those waves' real work.
    let mut candidates: Vec<Edge> = Vec::new();
    let mut dedupe = FirstArrivals::new(n);
    let mut first_arrival: Vec<bool> = Vec::new();
    // Sorted keys accepted by this round's earlier waves.
    let mut round_keys: Vec<u64> = Vec::new();
    while order.len() < target_edges && attempts < max_attempts {
        let missing = target_edges - order.len();
        let proposals = missing
            .saturating_mul(ROUND_OVERSAMPLE)
            .min(max_attempts - attempts)
            .max(1);
        let num_chunks = proposals.div_ceil(chunk_size);
        let chunk_len = |chunk: usize| (proposals - chunk * chunk_size).min(chunk_size);
        let round_base = next_chunk;
        round_keys.clear();
        let (mut done, mut drawn, mut kept) = (0usize, 0usize, 0usize);
        while done < num_chunks && order.len() < target_edges {
            let missing = target_edges - order.len();
            let wanted = match (drawn, kept) {
                (0, _) => missing,
                (_, 0) => usize::MAX,
                _ => missing.saturating_mul(drawn).div_ceil(kept),
            };
            let wave = wanted.div_ceil(chunk_size).clamp(1, num_chunks - done);
            let snapshot = &accepted_keys;
            let batches = run_chunks(policy.threads(), wave, |k| {
                let chunk = done + k;
                let stream = chunk_rng(master, round_base + chunk as u64);
                propose_chunk(pi, acceptance, snapshot, stream, chunk_len(chunk))
            });
            drawn += (done..done + wave).map(chunk_len).sum::<usize>();
            done += wave;
            // Serial merge in chunk order. Duplicates within the round were
            // invisible to the snapshot filter; `dedupe` finds each key's
            // first arrival in this wave, skipping keys earlier waves saw,
            // and appends the new keys to the round's set in sorted order.
            // That replicates one-at-a-time insertion exactly — same edges
            // kept, in the same order — without a per-edge adjacency insert.
            candidates.clear();
            candidates.extend(batches.into_iter().flatten());
            let split = round_keys.len();
            dedupe.mark(&candidates, &mut first_arrival, &mut round_keys);
            let before = order.len();
            let mut cut = candidates.len();
            for (i, e) in candidates.iter().enumerate() {
                if order.len() >= target_edges {
                    cut = i;
                    break;
                }
                if first_arrival[i] {
                    order.push(*e);
                }
            }
            kept += order.len() - before;
            // The wave's keys that arrived before the target was reached
            // were accepted; they join the round's sorted set.
            let mut accepted = split;
            for (j, &arrival) in dedupe.arrivals().iter().enumerate() {
                if (arrival as usize) < cut {
                    round_keys[accepted] = round_keys[split + j];
                    accepted += 1;
                }
            }
            round_keys.truncate(accepted);
            merge_sorted_tail(&mut round_keys, split);
        }
        next_chunk += num_chunks as u64;
        attempts += proposals;
        if order.len() < target_edges && attempts < max_attempts {
            let split = accepted_keys.len();
            accepted_keys.extend_from_slice(&round_keys);
            merge_sorted_tail(&mut accepted_keys, split);
        }
    }
    // The last round's keys join the earlier rounds' once the wave scratch
    // is freed, appended to whichever set is larger (a single-round pass
    // copies nothing).
    drop((candidates, dedupe, first_arrival));
    let (mut keys, rest) = if accepted_keys.len() >= round_keys.len() {
        (accepted_keys, round_keys)
    } else {
        (round_keys, accepted_keys)
    };
    let split = keys.len();
    keys.extend_from_slice(&rest);
    merge_sorted_tail(&mut keys, split);
    (order, keys)
}

/// One chunk of CL proposals: `count` π-sampled endpoint pairs drawn from
/// the chunk's `stream`, minus self-loops and edges in the sorted
/// `snapshot`, then thinned by the acceptance coins drawn from the same
/// stream.
fn propose_chunk(
    pi: &PiSampler,
    acceptance: Option<&AcceptanceContext>,
    snapshot: &[u64],
    stream: StdRng,
    count: usize,
) -> Vec<Edge> {
    let mut chunk_rng = BlockRng::new(stream);
    // Pass 1: flat proposal buffer, sized once.
    let mut survivors: Vec<Edge> = Vec::with_capacity(count);
    for _ in 0..count {
        let u = pi.sample(&mut chunk_rng);
        let v = pi.sample(&mut chunk_rng);
        survivors.push(Edge::new(u, v));
    }
    // Pass 2: structural filter (consumes no randomness; the empty-snapshot
    // skip therefore cannot change the stream).
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
}

/// The first-arrival dedupe of a wave, with no comparison sort: two stable
/// counting sorts, by larger and then by smaller endpoint, put the wave's
/// candidates in key order with each key's arrivals in arrival order, so one
/// walk finds every first arrival and merges against the round's earlier
/// keys. It takes time linear in the wave, `n` and the earlier keys, and
/// 12 bytes per candidate.
struct FirstArrivals {
    /// Bucket bounds of a counting sort, one bucket per node.
    bounds: Vec<u32>,
    /// Arrival indices: stably sorted by larger endpoint while a wave is
    /// sorted, then the arrival index of each new key the wave found.
    indices: Vec<u32>,
    /// Every candidate as `larger endpoint << 32 | arrival index`, in key
    /// order and then arrival order.
    by_key: Vec<u64>,
}

impl FirstArrivals {
    fn new(n: usize) -> Self {
        Self {
            bounds: vec![0; n + 1],
            indices: Vec::new(),
            by_key: Vec::new(),
        }
    }

    /// Sets `first[i]` for each candidate whose key arrived neither earlier
    /// in the wave nor in `keys`, the sorted keys earlier waves of the round
    /// accepted, and appends the new keys to `keys` in increasing order
    /// ([`FirstArrivals::arrivals`] then holds their arrival indices).
    /// Candidates are canonical (`u < v < n`).
    fn mark(&mut self, candidates: &[Edge], first: &mut Vec<bool>, keys: &mut Vec<u64>) {
        let n = self.bounds.len() - 1;
        bucket_starts(&mut self.bounds, candidates.iter().map(|e| e.v));
        self.indices.clear();
        self.indices.resize(candidates.len(), 0);
        for (i, e) in candidates.iter().enumerate() {
            let slot = &mut self.bounds[e.v as usize];
            self.indices[*slot as usize] = i as u32;
            *slot += 1;
        }
        // `bounds[u]` becomes bucket u's start, then its end as it fills.
        bucket_starts(&mut self.bounds, candidates.iter().map(|e| e.u));
        self.by_key.clear();
        self.by_key.resize(candidates.len(), 0);
        for &i in &self.indices {
            let e = candidates[i as usize];
            let slot = &mut self.bounds[e.u as usize];
            self.by_key[*slot as usize] = (u64::from(e.v) << 32) | u64::from(i);
            *slot += 1;
        }
        first.clear();
        first.resize(candidates.len(), false);
        self.indices.clear();
        keys.reserve(candidates.len());
        let split = keys.len();
        let (mut begin, mut earlier) = (0, 0);
        for u in 0..n {
            let end = self.bounds[u] as usize;
            let mut prev = None;
            for &entry in &self.by_key[begin..end] {
                let key = ((u as u64) << 32) | (entry >> 32);
                if prev == Some(key) {
                    continue;
                }
                prev = Some(key);
                while earlier < split && keys[earlier] < key {
                    earlier += 1;
                }
                if earlier == split || keys[earlier] != key {
                    first[entry as u32 as usize] = true;
                    keys.push(key);
                    self.indices.push(entry as u32);
                }
            }
            begin = end;
        }
    }

    /// The arrival index of each new key the last [`FirstArrivals::mark`]
    /// appended, in key order.
    fn arrivals(&self) -> &[u32] {
        &self.indices
    }
}

/// Sets `bounds[b]` to the start of bucket `b` in a stable counting sort of
/// items whose buckets are `buckets` (each below `bounds.len() - 1`).
fn bucket_starts(bounds: &mut [u32], buckets: impl Iterator<Item = u32>) {
    bounds.fill(0);
    for b in buckets {
        bounds[b as usize + 1] += 1;
    }
    for b in 1..bounds.len() {
        bounds[b] += bounds[b - 1];
    }
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

/// The edge an [`edge_key`] packs.
#[inline]
fn key_edge(&key: &u64) -> Edge {
    Edge {
        u: (key >> 32) as u32,
        v: key as u32,
    }
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

    /// Where one watched key showed up in one round of the reference.
    #[derive(Default)]
    struct Sighting {
        /// Chunks of the round's first wave: the chunks that cover the
        /// missing edges, as the wave sampler sizes it.
        first_wave: usize,
        /// Chunk index of each arrival of the key as a candidate.
        arrivals: Vec<usize>,
        /// Proposals of the key before any filter.
        proposed: usize,
    }

    /// The round-at-once algorithm the wave sampler must reproduce: each
    /// round draws every one of its chunks in chunk order and keeps first
    /// arrivals until the target. Returns the edges and, per round, where
    /// `watch` showed up.
    fn round_at_once(
        pi: &PiSampler,
        target: usize,
        acceptance: Option<&AcceptanceContext>,
        chunk_size: usize,
        watch: Edge,
        rng: &mut dyn RngCore,
    ) -> (Vec<Edge>, Vec<Sighting>) {
        let master = rng.next_u64();
        let max_attempts = MAX_ATTEMPT_FACTOR * target + 1_000;
        let (mut order, mut accepted, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
        let (mut attempts, mut next_chunk) = (0, 0u64);
        while order.len() < target && attempts < max_attempts {
            let proposals = ((target - order.len()) * ROUND_OVERSAMPLE)
                .min(max_attempts - attempts)
                .max(1);
            let num_chunks = proposals.div_ceil(chunk_size);
            let mut sighting = Sighting {
                first_wave: (target - order.len()).div_ceil(chunk_size),
                ..Sighting::default()
            };
            let mut seen = std::collections::HashSet::new();
            for chunk in 0..num_chunks {
                let stream = chunk_rng(master, next_chunk + chunk as u64);
                let count = (proposals - chunk * chunk_size).min(chunk_size);
                let mut raw = BlockRng::new(stream.clone());
                sighting.proposed += (0..count)
                    .filter(|_| Edge::new(pi.sample(&mut raw), pi.sample(&mut raw)) == watch)
                    .count();
                for e in propose_chunk(pi, acceptance, &accepted, stream, count) {
                    if e == watch {
                        sighting.arrivals.push(chunk);
                    }
                    if order.len() < target && seen.insert(e) {
                        order.push(e);
                    }
                }
            }
            next_chunk += num_chunks as u64;
            attempts += proposals;
            accepted = order.iter().map(edge_key).collect();
            accepted.sort_unstable();
            rounds.push(sighting);
        }
        (order, rounds)
    }

    #[test]
    fn wave_sampler_matches_the_round_at_once_reference() {
        // Dense: 40 nodes of desired degree 32 want 640 of 780 possible
        // edges, so duplicates and coins force several rounds, and a round
        // that runs out of chunks ran more than its first wave.
        let n = 40;
        let dense = PiSampler::from_degrees(&vec![32; n]).unwrap();
        // Two hubs: four proposals in five touch them, and one in three is
        // the hub pair (0, 1) itself.
        let mut hubs = vec![8; n];
        hubs[..2].fill(600);
        let hubs = PiSampler::from_degrees(&hubs).unwrap();
        let codes: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let ctx =
            AcceptanceContext::new(codes.clone(), AttributeSchema::new(1), vec![0.3, 0.9, 0.6])
                .unwrap();
        // Mixed pairs such as (0, 1) pass one coin in five.
        let rare =
            AcceptanceContext::new(codes, AttributeSchema::new(1), vec![0.9, 0.2, 0.9]).unwrap();
        let pair = Edge::new(0, 1);
        let cases = [
            (&dense, 640, Some(&ctx), 21),
            (&dense, 640, Some(&ctx), 22),
            (&dense, 640, None, 23),
            // The hub pair arrives many times within one wave.
            (&hubs, 60, None, 24),
            // The hub pair arrives again in a later wave of the round that
            // accepted it, and is proposed again in later rounds.
            (&hubs, 60, Some(&rare), 25),
        ];
        for (pi, target, acceptance, seed) in cases {
            let (expected, rounds) = round_at_once(
                pi,
                target,
                acceptance,
                16,
                pair,
                &mut StdRng::seed_from_u64(seed),
            );
            assert!(rounds.len() >= 2, "seed {seed}: {} round(s)", rounds.len());
            assert_eq!(expected.len(), target);
            let first = &rounds[0];
            let in_first_wave = first.arrivals.iter().filter(|&&c| c < first.first_wave);
            match seed {
                24 => assert!(in_first_wave.count() >= 5, "seed {seed}"),
                25 => {
                    assert!(in_first_wave.count() >= 1, "seed {seed}");
                    assert!(
                        first.arrivals.iter().any(|&c| c >= first.first_wave),
                        "seed {seed}"
                    );
                    assert!(rounds[1..].iter().any(|r| r.proposed > 0), "seed {seed}");
                    assert!(rounds[1..].iter().all(|r| r.arrivals.is_empty()));
                }
                _ => {}
            }
            let mut expected_keys: Vec<u64> = expected.iter().map(edge_key).collect();
            expected_keys.sort_unstable();
            for threads in [1, 4] {
                let policy = ExecPolicy::new(threads).with_chunk_size(16);
                let mut rng = StdRng::seed_from_u64(seed);
                let (edges, keys) =
                    sample_cl_edge_keys(n, pi, target, acceptance, &policy, &mut rng);
                assert_eq!(edges, expected, "seed {seed}, {threads} thread(s)");
                assert_eq!(keys, expected_keys, "seed {seed}, {threads} thread(s)");
            }
        }
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
