//! Quickstart: publish a differentially private synthetic version of a
//! sensitive attributed social graph.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use agmdp::prelude::*;
use rand::SeedableRng;

fn main() {
    // 1. The sensitive input graph. Here we use the bundled deterministic toy
    //    social graph (30 users, two homophilous communities, w = 2 binary
    //    attributes); swap in `agmdp::graph::io::read_file("my.graph")` for
    //    real data.
    let input = agmdp::datasets::toy_social_graph();
    let original = GraphProfile::of(&input);
    println!(
        "input graph: {} nodes, {} edges, {} triangles, avg clustering {:.3}",
        original.nodes,
        original.edges,
        original.clustering.triangles,
        original.clustering.average_local,
    );

    // 2. Configure AGM-DP: a total privacy budget of ε = 1, TriCycLe as the
    //    structural model, edge truncation for the attribute correlations.
    let config = AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        model: StructuralModelKind::TriCycLe,
        ..AgmConfig::default()
    };

    // 3. Learn the model parameters once and sample three synthetic graphs
    //    (sampling is post-processing, so it does not consume extra budget).
    let mut rng = rand::rngs::StdRng::seed_from_u64(2016);
    let params = learn_parameters(&input, &config, &mut rng).expect("learning succeeds");
    println!(
        "learned Theta_X = {:?}",
        params
            .theta_x
            .probabilities()
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    for trial in 0..3 {
        let synthetic =
            synthesize_from_parameters(&params, &config, &mut rng).expect("synthesis succeeds");
        let report = UtilityReport::between(&original, &GraphProfile::of(&synthetic));
        println!(
            "synthetic #{trial}: {} edges | KS(deg) {:.3} | H(deg) {:.3} | triangle RE {:.3} | clustering RE {:.3}",
            synthetic.num_edges(),
            report.ks_degree,
            report.hellinger_degree,
            report.triangle_count_re,
            report.avg_clustering_re,
        );
    }

    // 4. The synthetic graph could now be written out and shared.
    let synthetic = synthesize_from_parameters(&params, &config, &mut rng).unwrap();
    let path = std::env::temp_dir().join("agmdp_quickstart_release.graph");
    agmdp::graph::io::write_file(&synthetic, &path).expect("write succeeds");
    println!("wrote a publishable synthetic graph to {}", path.display());
}
