//! The Ladder framework for differentially private triangle counting
//! (Zhang, Cormode, Procopiuc, Srivastava & Xiao, SIGMOD 2015 — reference
//! \[37\] of the paper; used in Appendix C.3.2).
//!
//! The Ladder framework combines *local sensitivity at distance t* with the
//! exponential mechanism. For triangle counting under edge adjacency:
//!
//! * The local sensitivity of the triangle count at a graph `G` is the largest
//!   number of triangles any single edge flip can create or destroy, i.e. the
//!   maximum common-neighbor count over node pairs, `LS(G) = max_{i,j} |Γ(i) ∩ Γ(j)|`.
//! * At distance `t` (after up to `t` edge flips) this can grow by at most `t`
//!   and is always bounded by `n − 2`:
//!   `LS^t(G) = min(LS(G) + t, n − 2)`.
//! * The *ladder quality* of a candidate output `r` is `−t(r)` where `t(r)` is
//!   the smallest number of steps whose cumulative ladder widths cover the
//!   distance `|r − n_Δ(G)|`. Sampling `r` with probability ∝ `exp(−ε t(r)/2)`
//!   is ε-DP because the rung index of any fixed output changes by at most one
//!   between neighboring graphs.
//!
//! The sampler below works rung-by-rung: rung 0 is the true count itself, rung
//! `t ≥ 1` contains the `2 · LS^{t-1}(G)` integers between cumulative widths,
//! and the geometric decay of the weights makes the enumeration converge
//! quickly (it is truncated once the residual mass is negligible). The rung
//! is drawn here, in proportion to its weight; this module is the only
//! exponential-mechanism draw in the crate.
//!
//! ## Cost
//!
//! [`dp_triangle_count`] costs one oriented triangle count (`O(m^{3/2})`)
//! plus [`triangle_local_sensitivity`], both in [`TriangleStatistics::of`];
//! [`ladder_triangle_count`] on statistics counted earlier costs only the
//! rung enumeration, so repeated fits of one graph count them once.
//! `LS(G)` is a maximum over *all* pairs, so a plain two-hop walk takes
//! `Σ_u d_u²` steps — about 240M on the Pokec
//! stand-in at scale 0.25 (148,157 nodes, `d_max` 1,581). The walk here goes
//! in `(degree desc, id)` order and skips every pair that cannot beat the
//! maximum found so far, which reaches the same `LS(G)` (146 there) in about
//! 3.5M steps. Both walks already took data-dependent time: the running
//! time of the fit depends on the sensitive graph either way, and whether
//! the service's `/metrics` stage timings may expose it is part of the
//! owner/analyst trust boundary in `ROADMAP.md`, not of this mechanism.

use rand::Rng;

use agmdp_graph::triangles::count_triangles;
use agmdp_graph::GraphView;

use crate::error::PrivacyError;
use crate::Result;

/// Local sensitivity of triangle counting at `G`: the maximum number of common
/// neighbors over any node pair (present or absent edge), capped at `n − 2`.
///
/// Any pair with at least one common neighbor is at distance two through that
/// neighbor, so it suffices to count, for each node `i`, the two-hop partners
/// `j` reached through every neighbor of `i`. Nodes are walked in
/// `(degree desc, id)` order over a copy of the graph relabelled by that
/// rank, and each pair is counted once, from its higher-ranked end `i`. Since
/// `|Γ(i) ∩ Γ(j)| ≤ min(d_i, d_j) = d_j`, a partner with `d_j ≤ best` — the
/// largest count found so far — cannot raise the maximum, so it is skipped;
/// and once `d_i ≤ best` no later node can either, so the walk stops. Every
/// pair that could beat `best` is still counted exactly, so the result is
/// the exact maximum, not a bound — which matters, because a smaller value
/// would under-calibrate the Ladder's noise (`mechanism_properties.rs`
/// checks it against brute force). In the relabelled copy the partners with
/// `d_j > best` ranked after `i` are one contiguous run of each sorted
/// neighbor list, found by binary search.
///
/// Cost: `O(n log n + m)` to rank and relabel. Then only nodes with
/// `d_i > best` are walked, with one binary search per neighbor and one step
/// per counted partner — on heavy-tailed graphs a small fraction of the
/// `Σ_u d_u²` steps of the unpruned walk (see the [module docs](self)).
/// Scratch space is `O(n + m)`. How soon the walk stops depends on the graph;
/// the unpruned walk's running time was data-dependent too.
#[must_use]
pub fn triangle_local_sensitivity<G: GraphView>(g: &G) -> usize {
    let n = g.num_nodes();
    if n < 3 {
        return 0;
    }
    let ranked = RankedAdjacency::new(g);
    let mut best = 0usize;
    let mut counter = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    for i in 0..n as u32 {
        if ranked.degree[i as usize] as usize <= best {
            break;
        }
        // Partners worth counting: ranked after `i`, degree above `best`.
        let end = ranked.degree.partition_point(|&d| d as usize > best) as u32;
        touched.clear();
        for &u in ranked.neighbors(i) {
            let list = ranked.neighbors(u);
            let after_i = list.partition_point(|&j| j <= i);
            for &j in list[after_i..].iter().take_while(|&&j| j < end) {
                if counter[j as usize] == 0 {
                    touched.push(j);
                }
                counter[j as usize] += 1;
            }
        }
        for &j in &touched {
            best = best.max(counter[j as usize] as usize);
            counter[j as usize] = 0;
        }
    }
    best.min(n - 2)
}

/// CSR adjacency relabelled by rank in `(degree desc, id)` order: node `r`
/// is the `r`-th highest-degree node, its neighbor list holds ranks in
/// increasing order, and `degree` is non-increasing.
struct RankedAdjacency {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    degree: Vec<u32>,
}

impl RankedAdjacency {
    fn new<G: GraphView>(g: &G) -> Self {
        let n = g.num_nodes();
        let mut order: Vec<u32> = g.nodes().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let degree: Vec<u32> = order.iter().map(|&v| g.degree(v) as u32).collect();
        let mut offsets = vec![0usize; n + 1];
        for (r, &d) in degree.iter().enumerate() {
            offsets[r + 1] = offsets[r] + d as usize;
        }
        // Visiting ranks in increasing order appends to every list in
        // increasing order, so the lists come out sorted without a sort.
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; offsets[n]];
        for (r, &v) in order.iter().enumerate() {
            for &w in g.neighbors(v) {
                let slot = &mut cursor[rank[w as usize] as usize];
                neighbors[*slot] = r as u32;
                *slot += 1;
            }
        }
        Self {
            offsets,
            neighbors,
            degree,
        }
    }

    fn neighbors(&self, r: u32) -> &[u32] {
        &self.neighbors[self.offsets[r as usize]..self.offsets[r as usize + 1]]
    }
}

/// Result of one Ladder invocation, retained for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderOutcome {
    /// The differentially private triangle-count estimate.
    pub estimate: f64,
    /// The true triangle count (not to be released; used by the experiment
    /// harness to compute error rates).
    pub true_count: u64,
    /// The local sensitivity `LS(G)` the ladder was built from.
    pub local_sensitivity: usize,
    /// The rung index that was sampled.
    pub rung: usize,
}

/// The graph-only inputs of the Ladder draw. Un-noised functions of the
/// graph: they may be kept to answer later draws on the same graph, but
/// never released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangleStatistics {
    /// The true triangle count `n_Δ(G)`.
    pub count: u64,
    /// The local sensitivity `LS(G)` ([`triangle_local_sensitivity`]).
    pub local_sensitivity: usize,
    /// The number of nodes `n`, which caps the ladder's rung widths.
    pub num_nodes: usize,
}

impl TriangleStatistics {
    /// Counts the statistics of `g`: one oriented triangle count plus
    /// [`triangle_local_sensitivity`].
    #[must_use]
    pub fn of<G: GraphView>(g: &G) -> Self {
        Self {
            count: count_triangles(g),
            local_sensitivity: triangle_local_sensitivity(g),
            num_nodes: g.num_nodes(),
        }
    }
}

/// Differentially private triangle count via the Ladder framework.
///
/// Satisfies ε-differential privacy under the paper's edge-adjacency notion
/// (attribute changes do not affect the triangle count, so the guarantee
/// extends to attributed-graph adjacency).
pub fn dp_triangle_count<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    epsilon: f64,
    rng: &mut R,
) -> Result<LadderOutcome> {
    ladder_triangle_count(&TriangleStatistics::of(g), epsilon, rng)
}

/// [`dp_triangle_count`] on statistics counted earlier: the same draws from
/// `rng` and the same outcome as the call on the graph they came from.
pub fn ladder_triangle_count<R: Rng + ?Sized>(
    statistics: &TriangleStatistics,
    epsilon: f64,
    rng: &mut R,
) -> Result<LadderOutcome> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(PrivacyError::InvalidEpsilon(epsilon));
    }
    let TriangleStatistics {
        count: true_count,
        local_sensitivity: ls0,
        num_nodes: n,
    } = *statistics;
    // Ladder rung widths: rung t (t >= 1) has width LS^{t-1}(G) on each side.
    // Enumerate rungs until the residual geometric mass is negligible.
    let decay = (-epsilon / 2.0).exp();
    let ls_at = |t: usize| -> f64 {
        let ls = ls0 as f64 + t as f64;
        // Width at least 1 so the ladder can always move (handles LS = 0 graphs).
        ls.min((n.saturating_sub(2)) as f64).max(1.0)
    };

    // Rung weights: rung 0 -> weight 1 (the true count itself);
    // rung t -> 2 * width(t) * decay^t.
    let mut weights: Vec<f64> = vec![1.0];
    let mut cumulative = 1.0f64;
    let mut t = 1usize;
    loop {
        let w = 2.0 * ls_at(t - 1) * decay.powi(t as i32);
        weights.push(w);
        cumulative += w;
        // Stop when the upper bound on all remaining mass is negligible.
        // Remaining rungs have width <= n and weight <= 2n * decay^t / (1 - decay).
        let residual_bound = 2.0 * (n.max(2) as f64) * decay.powi((t + 1) as i32) / (1.0 - decay);
        if residual_bound < 1e-12 * cumulative || t > 2_000_000 {
            break;
        }
        t += 1;
    }

    let rung = sample_weighted_index(&weights, rng);
    let estimate = if rung == 0 {
        true_count as f64
    } else {
        // Cumulative width up to the start of this rung.
        let mut offset = 0.0f64;
        for s in 1..rung {
            offset += ls_at(s - 1);
        }
        let width = ls_at(rung - 1);
        // Uniform position within the rung, on a uniformly random side.
        let within = rng.gen::<f64>() * width;
        let magnitude = offset + within;
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        (true_count as f64 + sign * magnitude.ceil()).max(0.0)
    };

    Ok(LadderOutcome {
        estimate,
        true_count,
        local_sensitivity: ls0,
        rung,
    })
}

/// Draws the rung: an index sampled in proportion to the non-negative
/// `weights`, which need not be normalised. If all weights are zero the first
/// index is returned.
fn sample_weighted_index<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return 0;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::AttributedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn complete(n: usize) -> AttributedGraph {
        let mut g = AttributedGraph::unattributed(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                g.add_edge(u, v).unwrap();
            }
        }
        g
    }

    #[test]
    fn local_sensitivity_on_known_graphs() {
        // In K_n every pair has n-2 common neighbors.
        assert_eq!(triangle_local_sensitivity(&complete(5)), 3);
        assert_eq!(triangle_local_sensitivity(&complete(3)), 1);
        // A path: endpoints of a wedge have exactly one common neighbor.
        let mut path = AttributedGraph::unattributed(4);
        path.add_edge(0, 1).unwrap();
        path.add_edge(1, 2).unwrap();
        path.add_edge(2, 3).unwrap();
        assert_eq!(triangle_local_sensitivity(&path), 1);
        // No edges, or too few nodes, -> 0.
        assert_eq!(
            triangle_local_sensitivity(&AttributedGraph::unattributed(10)),
            0
        );
        assert_eq!(
            triangle_local_sensitivity(&AttributedGraph::unattributed(2)),
            0
        );
        // Star: any two leaves share exactly the hub.
        let mut star = AttributedGraph::unattributed(6);
        for v in 1..6 {
            star.add_edge(0, v).unwrap();
        }
        assert_eq!(triangle_local_sensitivity(&star), 1);
    }

    #[test]
    fn local_sensitivity_counts_non_adjacent_pairs() {
        // Two nodes (0, 1) both adjacent to nodes 2, 3, 4 but not to each other:
        // the non-edge (0,1) has 3 common neighbors while every present edge has 0.
        let mut g = AttributedGraph::unattributed(5);
        for v in 2..5 {
            g.add_edge(0, v).unwrap();
            g.add_edge(1, v).unwrap();
        }
        assert_eq!(triangle_local_sensitivity(&g), 3);
    }

    #[test]
    fn dp_triangle_count_rejects_bad_epsilon() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = complete(4);
        assert!(dp_triangle_count(&g, 0.0, &mut rng).is_err());
        assert!(dp_triangle_count(&g, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn dp_triangle_count_is_accurate_at_high_epsilon() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = complete(8); // 56 triangles
        for _ in 0..20 {
            let out = dp_triangle_count(&g, 50.0, &mut rng).unwrap();
            assert_eq!(out.true_count, 56);
            assert!(
                (out.estimate - 56.0).abs() <= 6.0,
                "estimate {} too far from 56 at high epsilon",
                out.estimate
            );
        }
    }

    #[test]
    fn dp_triangle_count_never_negative_and_handles_empty_graph() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = AttributedGraph::unattributed(10);
        for _ in 0..50 {
            let out = dp_triangle_count(&g, 0.1, &mut rng).unwrap();
            assert!(out.estimate >= 0.0);
            assert_eq!(out.true_count, 0);
        }
    }

    #[test]
    fn dp_triangle_count_error_shrinks_with_epsilon() {
        let g = complete(10); // 120 triangles
        let mean_abs_err = |eps: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 200;
            (0..trials)
                .map(|_| {
                    let out = dp_triangle_count(&g, eps, &mut rng).unwrap();
                    (out.estimate - out.true_count as f64).abs()
                })
                .sum::<f64>()
                / trials as f64
        };
        let tight = mean_abs_err(5.0, 3);
        let loose = mean_abs_err(0.05, 3);
        assert!(
            tight < loose,
            "error at eps=5 ({tight}) should be below error at eps=0.05 ({loose})"
        );
    }

    #[test]
    fn ladder_outcome_reports_consistent_metadata() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = complete(6);
        let out = dp_triangle_count(&g, 1.0, &mut rng).unwrap();
        assert_eq!(out.local_sensitivity, 4);
        assert_eq!(out.true_count, 20);
        assert!(out.estimate.is_finite());
    }

    #[test]
    fn weighted_index_sampling_is_proportional() {
        let mut rng = StdRng::seed_from_u64(6);
        let weights = [1.0, 3.0];
        let trials = 40_000;
        let ones = (0..trials)
            .filter(|_| sample_weighted_index(&weights, &mut rng) == 1)
            .count() as f64
            / trials as f64;
        assert!((ones - 0.75).abs() < 0.02);
        // Degenerate weights fall back to index 0.
        assert_eq!(sample_weighted_index(&[0.0, 0.0], &mut rng), 0);
    }
}
