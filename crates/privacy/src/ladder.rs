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
//! quickly (it is truncated once the residual mass is negligible).

use rand::Rng;

use agmdp_graph::triangles::count_triangles;
use agmdp_graph::GraphView;

use crate::error::PrivacyError;
use crate::exponential::sample_weighted_index;
use crate::Result;

/// Local sensitivity of triangle counting at `G`: the maximum number of common
/// neighbors over any node pair (present or absent edge).
///
/// Any pair with at least one common neighbor is at distance two through that
/// neighbor, so it suffices to examine, for every node `u`, the pairs of
/// neighbors of `u`. The implementation runs in `O(Σ_u d_u²)` time using a
/// per-node counting pass and `O(n)` scratch space.
#[must_use]
pub fn triangle_local_sensitivity<G: GraphView>(g: &G) -> usize {
    let n = g.num_nodes();
    if n < 3 {
        return 0;
    }
    let mut best = 0usize;
    let mut counter = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    for i in g.nodes() {
        // Count, for every node j reachable in two hops from i, the number of
        // common neighbors of (i, j).
        touched.clear();
        for &u in g.neighbors(i) {
            for &j in g.neighbors(u) {
                if j > i {
                    if counter[j as usize] == 0 {
                        touched.push(j);
                    }
                    counter[j as usize] += 1;
                }
            }
        }
        for &j in &touched {
            best = best.max(counter[j as usize] as usize);
            counter[j as usize] = 0;
        }
    }
    best.min(n.saturating_sub(2))
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
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(PrivacyError::InvalidEpsilon(epsilon));
    }
    let true_count = count_triangles(g);
    let n = g.num_nodes();
    let ls0 = triangle_local_sensitivity(g);
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
}
