//! Fixture: ε spent outside the privacy boundary through every entry point,
//! plus a sensitive import into `models` (linted as
//! crates/models/src/fixture.rs).
use agmdp_datasets::load_graph;

pub fn leak(rng: &mut StdRng, graph: &AttributedGraph, groups: &[Vec<f64>], statistics: TriangleStatistics) -> f64 {
    let mech = LaplaceMechanism::new(1.0, 2.0).unwrap();
    let degrees = dp_degree_sequence(&graph.degrees(), 0.5, rng).unwrap();
    let ladder = dp_triangle_count(graph, 0.5, rng).unwrap();
    let theta = sample_and_aggregate_distribution(groups, 0.5, rng).unwrap();
    let again = ladder_triangle_count(&statistics, 0.5, rng).unwrap();
    mech.randomize(ladder.estimate + again.estimate, rng) + sample_laplace(rng, 2.0) + theta[0] + degrees[0] as f64
}
