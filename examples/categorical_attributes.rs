//! Non-binary attributes: using the one-hot categorical encoder of Section 7
//! ("Non-Binary Attributes") to model a social network whose users carry a
//! marital-status category and an age bracket, then publishing a private
//! synthetic version with AGM-DP.
//!
//! ```text
//! cargo run --release --example categorical_attributes
//! ```

use agmdp::graph::categorical::{CategoricalAttribute, CategoricalEncoder};
use agmdp::prelude::*;
use rand::Rng;
use rand::SeedableRng;

fn main() {
    // 1. Define the categorical attribute space: marital status (3 categories)
    //    and an age bracket (2 categories) -> a w = 5 one-hot binary vector.
    let encoder = CategoricalEncoder::new(vec![
        CategoricalAttribute::new("marital", &["married", "divorced", "single_or_widowed"])
            .unwrap(),
        CategoricalAttribute::new("age", &["<=30", ">30"]).unwrap(),
    ])
    .unwrap();
    println!(
        "categorical schema: {} attributes -> {} binary attributes ({} node configurations)",
        encoder.attributes().len(),
        encoder.width(),
        encoder.schema().num_node_configs()
    );

    // 2. Build a small sensitive graph: two communities whose members mostly
    //    share the age bracket (homophily on the encoded attribute).
    let n = 120u32;
    let mut graph = AttributedGraph::new(n as usize, encoder.schema());
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for v in 0..n {
        let marital = ["married", "divorced", "single_or_widowed"][rng.gen_range(0..3)];
        let age = if v < n / 2 { "<=30" } else { ">30" };
        let code = encoder.encode_labels(&[marital, age]).unwrap();
        graph.set_attribute_code(v, code).unwrap();
    }
    // Dense-ish edges within each age community, sparse across.
    for v in 0..n {
        for _ in 0..4 {
            let same_side = rng.gen::<f64>() < 0.85;
            let w = if (v < n / 2) == same_side {
                rng.gen_range(0..n / 2)
            } else {
                rng.gen_range(n / 2..n)
            };
            if w != v {
                let _ = graph.try_add_edge(v, w).unwrap();
            }
        }
    }
    let original = GraphProfile::of(&graph);
    println!(
        "input graph: {} nodes, {} edges, {} triangles",
        original.nodes, original.edges, original.clustering.triangles
    );

    // 3. Publish a differentially private synthetic version.
    let config = AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        model: StructuralModelKind::TriCycLe,
        ..AgmConfig::default()
    };
    let synthetic = synthesize(&graph, &config, &mut rng).expect("synthesis succeeds");
    let report = UtilityReport::between(&original, &GraphProfile::of(&synthetic));
    println!(
        "synthetic graph: {} edges | KS(degree) = {:.3} | clustering RE = {:.3}",
        synthetic.num_edges(),
        report.ks_degree,
        report.avg_clustering_re
    );

    // 4. The synthetic attribute codes decode back into category labels.
    let mut same_age_edges = 0usize;
    for e in synthetic.edges() {
        let a = encoder.decode(synthetic.attribute_code(e.u));
        let b = encoder.decode(synthetic.attribute_code(e.v));
        if a[1] == b[1] {
            same_age_edges += 1;
        }
    }
    println!(
        "fraction of synthetic edges joining the same age bracket: {:.2} (homophily carried over)",
        same_age_edges as f64 / synthetic.num_edges() as f64
    );
    let example_node = 0u32;
    println!(
        "example synthetic node 0 decodes to {:?}",
        encoder.decode(synthetic.attribute_code(example_node))
    );
}
