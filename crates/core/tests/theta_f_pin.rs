//! Θ_F pins: the exact bits every correlation learner produces on the toy
//! graph at a fixed seed — its noise scale, draw order and post-processing —
//! where the goldens pin only the default truncation path end to end. Move
//! them only in a change that means to move the noise, and say so; the
//! failure message prints the new table.

use agmdp_core::correlations_dp::{learn_correlations_dp, CorrelationMethod};
use agmdp_core::node_dp::learn_correlations_node_dp;
use agmdp_core::FitStatistics;
use agmdp_datasets::toy_social_graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One line per learner: the method, then the `to_bits` of every Θ_F entry
/// in hex, at ε = 2 and seed 2016 (node-DP at δ = 0.01).
const PINNED: &str = "\
EdgeTruncation { k: None }: 3fbd935e7d7d64e1 0 3f841629ba275674 0 3fe0f0b79bfab38b 0 3fa356fd7cea6a0b 3fd088ff0e3cfa02 0 3fa92948e7fdedd6
SmoothSensitivity { delta: 1e-6 }: 3fd56353651ed55f 0 3f9d0d3b9c7639f5 0 3fdda615bea6b102 0 3fa065bb0b360109 0 0 3fc232178218abbc
SampleAggregate { group_size: 6 }: 0 3faf2b7160eaf239 3fd0db5a42fb3135 3fb0f1fe949b69e7 3fb181e8d1d5ae0e 3fb02d1510854607 3fb4f750570fb645 3fc05ce46ac2a931 3fb1b7e7f0138ab6 3fc9797057ff6860
NaiveLaplace: 3fd6a2cbb31981a1 0 3f9ebf2cb1add002 0 3fdc0c54e973f753 0 3f9c3fc271ff8b9e 0 0 3fc341e0e26f62a6
node-DP { k: None }: 3fd7613938bd12b7 0 3f9fc1d60a8f40e2 0 3fdbab0a706cb710 0 3f905ade0602a451 0 0 3fc3e3e22b9a2fcd
";

#[test]
fn every_theta_f_learner_is_bit_pinned_on_the_toy_graph() {
    let graph = toy_social_graph();
    let (epsilon, rng) = (2.0, || StdRng::seed_from_u64(2016));
    let mut learned = Vec::new();
    for method in [
        CorrelationMethod::EdgeTruncation { k: None },
        CorrelationMethod::SmoothSensitivity { delta: 1e-6 },
        CorrelationMethod::SampleAggregate { group_size: 6 },
        CorrelationMethod::NaiveLaplace,
    ] {
        let theta = learn_correlations_dp(&graph, epsilon, method, &mut rng());
        learned.push((format!("{method:?}"), theta.expect("fit")));
    }
    let statistics = FitStatistics::new();
    let theta = learn_correlations_node_dp(&graph, &statistics, epsilon, 0.01, None, &mut rng());
    learned.push(("node-DP { k: None }".to_string(), theta.expect("fit")));
    let mut table = String::new();
    for (label, theta) in learned {
        let bits: Vec<String> = theta
            .probabilities()
            .iter()
            .map(|p| format!("{:x}", p.to_bits()))
            .collect();
        table += &format!("{label}: {}\n", bits.join(" "));
    }
    assert_eq!(
        table, PINNED,
        "Θ_F bits moved; the learners now give:\n{table}"
    );
}
