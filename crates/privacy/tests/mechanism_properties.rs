//! Property-based tests for the DP mechanisms: calibration, post-processing
//! and estimator invariants.

use agmdp_graph::view::sorted_intersection_count;
use agmdp_graph::{AttributedGraph, GraphView, NodeId};
use agmdp_privacy::budget::{BudgetSplit, PrivacyBudget};
use agmdp_privacy::constrained_inference::{dp_degree_sequence, isotonic_regression};
use agmdp_privacy::exponential::exponential_mechanism;
use agmdp_privacy::ladder::{dp_triangle_count, triangle_local_sensitivity};
use agmdp_privacy::laplace::{sample_laplace, LaplaceMechanism};
use agmdp_privacy::postprocess::{clamp_and_normalize, normalize};
use agmdp_privacy::sample_aggregate::sample_and_aggregate_distribution;
use agmdp_privacy::smooth::{beta, smooth_bound, smooth_sensitivity_qf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Laplace samples are finite and symmetric around zero in aggregate.
    #[test]
    fn laplace_samples_are_finite(scale in 0.01f64..100.0, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = sample_laplace(&mut rng, scale);
            prop_assert!(x.is_finite());
        }
    }

    /// Mechanism construction accepts exactly the valid parameter space.
    #[test]
    fn laplace_mechanism_validation(eps in -5.0f64..5.0, sens in -5.0f64..5.0) {
        let result = LaplaceMechanism::new(eps, sens);
        let should_ok = eps > 0.0 && sens > 0.0;
        prop_assert_eq!(result.is_ok(), should_ok);
        if let Ok(m) = result {
            prop_assert!((m.scale() - sens / eps).abs() < 1e-12);
        }
    }

    /// normalise always returns a probability distribution of the same length.
    #[test]
    fn normalize_is_a_distribution(values in proptest::collection::vec(-10.0f64..10.0, 1..40)) {
        let p = normalize(&values);
        prop_assert_eq!(p.len(), values.len());
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        let q = clamp_and_normalize(&values, 5.0);
        prop_assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// The budget accountant never lets total spending exceed the budget.
    #[test]
    fn budget_accounting_never_overspends(
        total in 0.05f64..5.0,
        spends in proptest::collection::vec(0.01f64..1.0, 1..20),
    ) {
        let mut budget = PrivacyBudget::new(total).unwrap();
        for s in spends {
            let _ = budget.spend(s);
            prop_assert!(budget.spent() <= budget.total() + 1e-6);
            prop_assert!(budget.remaining() >= -1e-9);
        }
    }

    /// Budget splits always sum to the requested ε.
    #[test]
    fn budget_splits_sum_to_total(eps in 0.01f64..10.0) {
        let t = BudgetSplit::even_tricycle(eps).unwrap();
        prop_assert!((t.total() - eps).abs() < 1e-9);
        let f = BudgetSplit::fcl(eps).unwrap();
        prop_assert!((f.total() - eps).abs() < 1e-9);
        prop_assert!(f.structural() >= t.structural() - 1e-9);
    }

    /// The exponential mechanism always returns a valid index.
    #[test]
    fn exponential_mechanism_index_in_range(
        scores in proptest::collection::vec(-100.0f64..100.0, 1..30),
        eps in 0.01f64..10.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = exponential_mechanism(&scores, eps, 1.0, &mut rng).unwrap();
        prop_assert!(idx < scores.len());
    }

    /// Isotonic regression is idempotent and monotone.
    #[test]
    fn isotonic_regression_idempotent(values in proptest::collection::vec(-20.0f64..20.0, 1..50)) {
        let once = isotonic_regression(&values);
        let twice = isotonic_regression(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        for w in once.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9);
        }
    }

    /// The DP degree sequence is always sorted, in range, and length-preserving.
    #[test]
    fn dp_degree_sequence_shape(
        degrees in proptest::collection::vec(0usize..30, 2..60),
        eps in 0.05f64..5.0,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = dp_degree_sequence(&degrees, eps, &mut rng).unwrap();
        prop_assert_eq!(out.len(), degrees.len());
        for w in out.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        prop_assert!(out.iter().all(|&d| d < degrees.len()));
    }

    /// The smooth-sensitivity closed form dominates the local sensitivity and
    /// agrees with the generic maximiser.
    #[test]
    fn smooth_sensitivity_dominance(d_max in 0usize..200, n in 2usize..5000, eps in 0.05f64..5.0) {
        let d_max = d_max.min(n - 1);
        let b = beta(eps, 0.01).unwrap();
        let closed = smooth_sensitivity_qf(d_max, n, b);
        let ls0 = (2.0 * d_max as f64).min(2.0 * n as f64 - 2.0);
        prop_assert!(closed + 1e-9 >= ls0);
        let cap = 2.0 * n as f64 - 2.0;
        prop_assert!(closed <= cap + 1e-9);
        let generic = smooth_bound(|t| (2.0 * d_max as f64 + 2.0 * t as f64).min(cap), b, n);
        prop_assert!(generic <= closed + 1e-9);
    }

    /// Sample-and-aggregate outputs a distribution whatever the group inputs.
    #[test]
    fn sample_aggregate_outputs_distribution(
        groups in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 5), 1..20),
        eps in 0.05f64..5.0,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = sample_and_aggregate_distribution(&groups, eps, &mut rng).unwrap();
        prop_assert_eq!(out.len(), 5);
        prop_assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

/// The reference count the kernel must match: a plain sorted merge.
fn naive_intersection_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// `min(n − 2, max_{i<j} |Γ(i) ∩ Γ(j)|)` by testing every pair against every
/// third node — the definition the Ladder's noise is calibrated to, with no
/// pruning to trust.
fn brute_force_local_sensitivity(g: &AttributedGraph) -> usize {
    let n = g.num_nodes() as NodeId;
    let mut best = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let common = (0..n)
                .filter(|&k| g.has_edge(i, k) && g.has_edge(j, k))
                .count();
            best = best.max(common);
        }
    }
    best.min(g.num_nodes().saturating_sub(2))
}

/// A graph from one of the families where a pruned maximum could go wrong,
/// on `n ≤ 60` nodes with ids shuffled so rank order and id order differ:
///
/// * 0 — planted hubs over a sparse random graph (skewed degrees);
/// * 1 — a circulant graph, every degree equal (all ties);
/// * 2 — `K_n`, where every pair has `n − 2` common neighbors;
/// * 3 — a star, plus a few random edges among the leaves;
/// * 4 — `K_{a,b}`, where the maximum sits on a non-edge (two nodes on one
///   side share the whole other side) and every edge has none.
fn sensitivity_test_graph(family: u8, n: usize, seed: u64) -> AttributedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    ids.shuffle(&mut rng);
    let mut g = AttributedGraph::unattributed(n);
    let link = |g: &mut AttributedGraph, a: usize, b: usize| {
        if a != b {
            g.try_add_edge(ids[a], ids[b]).unwrap();
        }
    };
    match family {
        0 => {
            for _ in 0..n {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                link(&mut g, a, b);
            }
            for hub in 0..rng.gen_range(1..=3).min(n) {
                let reach = rng.gen_range(0.3..0.9);
                for v in 0..n {
                    if rng.gen_bool(reach) {
                        link(&mut g, hub, v);
                    }
                }
            }
        }
        1 => {
            let k = rng.gen_range(1..=(n / 2).max(1));
            for v in 0..n {
                for step in 1..=k {
                    link(&mut g, v, (v + step) % n);
                }
            }
        }
        2 => {
            for a in 0..n {
                for b in (a + 1)..n {
                    link(&mut g, a, b);
                }
            }
        }
        3 => {
            for v in 1..n {
                link(&mut g, 0, v);
            }
            for _ in 0..if n > 2 { rng.gen_range(0..=3) } else { 0 } {
                let (a, b) = (rng.gen_range(1..n), rng.gen_range(1..n));
                link(&mut g, a, b);
            }
        }
        _ => {
            let a = if n < 2 { n } else { rng.gen_range(1..n) };
            for x in 0..a {
                for y in a..n {
                    link(&mut g, x, y);
                }
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The privacy guard for the pruned Ladder sensitivity: a smaller LS
    /// would under-calibrate the noise, so the degree-ordered walk must equal
    /// the brute-force maximum over all pairs — edges and non-edges — on
    /// every family, in both graph representations.
    #[test]
    fn local_sensitivity_equals_brute_force(family in 0u8..5, n in 0usize..=60, seed in 0u64..10_000) {
        let g = sensitivity_test_graph(family, n, seed);
        let expected = brute_force_local_sensitivity(&g);
        prop_assert_eq!(triangle_local_sensitivity(&g), expected);
        prop_assert_eq!(triangle_local_sensitivity(&g.freeze()), expected);
    }

    /// The galloping intersection kernel equals a naive merge at every
    /// length ratio from 1:1 to 1:1000, in either argument order.
    #[test]
    fn intersection_kernel_matches_naive_merge(
        short_len in 0usize..=12,
        ratio in 1usize..=1000,
        overlap in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let long_len = (short_len * ratio).max(ratio);
        let universe = 4 * long_len as NodeId + 8;
        let mut long: Vec<NodeId> = (0..long_len).map(|_| rng.gen_range(0..universe)).collect();
        long.sort_unstable();
        long.dedup();
        let mut short: Vec<NodeId> = (0..short_len)
            .map(|_| {
                if rng.gen_bool(overlap) {
                    long[rng.gen_range(0..long.len())]
                } else {
                    rng.gen_range(0..universe)
                }
            })
            .collect();
        short.sort_unstable();
        short.dedup();
        let expected = naive_intersection_count(&short, &long);
        prop_assert_eq!(sorted_intersection_count(&short, &long), expected);
        prop_assert_eq!(sorted_intersection_count(&long, &short), expected);
    }
}

#[test]
fn intersection_kernel_handles_empty_and_disjoint_lists() {
    let evens: Vec<NodeId> = (0..2000).map(|x| 2 * x).collect();
    let odds: Vec<NodeId> = (0..2000).map(|x| 2 * x + 1).collect();
    let few_odds: Vec<NodeId> = vec![1, 999, 3999];
    let above: Vec<NodeId> = vec![5000, 5001];
    let below: Vec<NodeId> = vec![0];
    let empty: Vec<NodeId> = Vec::new();
    for (a, b) in [
        (&empty, &empty),
        (&empty, &evens),
        (&evens, &odds),
        (&few_odds, &evens),
        (&above, &evens),
        (&evens, &above),
        (&below, &odds),
    ] {
        assert_eq!(sorted_intersection_count(a, b), 0);
        assert_eq!(sorted_intersection_count(b, a), 0);
    }
    assert_eq!(sorted_intersection_count(&evens, &evens), evens.len());
    assert_eq!(sorted_intersection_count(&[0, 3998], &evens), 2);
}

/// The Ladder mechanism's local sensitivity and estimates behave sanely on
/// random graphs (non-proptest because graph construction is heavier).
#[test]
fn ladder_estimates_are_nonnegative_and_bounded_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..10 {
        let n = 20 + trial * 5;
        let mut g = AttributedGraph::unattributed(n);
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = g.try_add_edge(u, v).unwrap();
            }
        }
        let ls = triangle_local_sensitivity(&g);
        assert!(ls <= n - 2);
        let out = dp_triangle_count(&g, 1.0, &mut rng).unwrap();
        assert!(out.estimate >= 0.0);
        assert!(out.estimate.is_finite());
        assert_eq!(out.local_sensitivity, ls);
    }
}
