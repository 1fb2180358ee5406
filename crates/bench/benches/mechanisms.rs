//! Criterion benchmarks for the differential-privacy mechanisms: the building
//! blocks whose costs Appendix C.4 discusses (truncation, Laplace noise,
//! constrained inference, Ladder triangle counting, smooth sensitivity).
//! Most cells run on the Last.fm stand-in; `ladder_local_sensitivity_pokec`
//! runs the Ladder's sensitivity on the heavy-tailed Pokec stand-in, where
//! hubs decide its cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_core::correlations_dp::{learn_correlations_dp, CorrelationMethod};
use agmdp_core::params::edge_config_counts;
use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::truncation::{edge_truncation, heuristic_k};
use agmdp_privacy::constrained_inference::dp_degree_sequence;
use agmdp_privacy::ladder::{dp_triangle_count, triangle_local_sensitivity};
use agmdp_privacy::laplace::LaplaceMechanism;
use agmdp_privacy::smooth::{beta, smooth_sensitivity_qf};

fn bench_graph() -> agmdp_graph::AttributedGraph {
    generate_dataset(&DatasetSpec::lastfm().scaled(0.3), 7).expect("dataset generation")
}

fn mechanisms(c: &mut Criterion) {
    let graph = bench_graph();
    let mut group = c.benchmark_group("mechanisms");
    group.sample_size(20);

    group.bench_function("laplace_vector_1k", |b| {
        let mech = LaplaceMechanism::new(0.5, 2.0).unwrap();
        let values = vec![10.0; 1_000];
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(mech.randomize_vec(&values, &mut rng)));
    });

    group.bench_function("edge_truncation_heuristic_k", |b| {
        let k = heuristic_k(graph.num_nodes());
        b.iter(|| black_box(edge_truncation(&graph, k).graph.num_edges()));
    });

    group.bench_function("qf_counts", |b| {
        b.iter(|| black_box(edge_config_counts(&graph)));
    });

    group.bench_function("learn_correlations_edge_truncation", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            black_box(
                learn_correlations_dp(
                    &graph,
                    0.25,
                    CorrelationMethod::EdgeTruncation { k: None },
                    &mut rng,
                )
                .unwrap(),
            )
        });
    });

    group.bench_function("dp_degree_sequence_constrained_inference", |b| {
        let degrees = graph.degrees();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(dp_degree_sequence(&degrees, 0.25, &mut rng).unwrap()));
    });

    group.bench_function("ladder_local_sensitivity", |b| {
        b.iter(|| black_box(triangle_local_sensitivity(&graph)));
    });

    group.bench_function("ladder_local_sensitivity_pokec", |b| {
        let pokec = generate_dataset(&DatasetSpec::pokec().scaled(0.05), 7).expect("dataset");
        b.iter(|| black_box(triangle_local_sensitivity(&pokec)));
    });

    group.bench_function("ladder_triangle_count", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(dp_triangle_count(&graph, 0.25, &mut rng).unwrap().estimate));
    });

    group.bench_function("smooth_sensitivity_closed_form", |b| {
        let bta = beta(0.5, 1e-6).unwrap();
        b.iter_batched(
            || (graph.max_degree(), graph.num_nodes()),
            |(d, n)| black_box(smooth_sensitivity_qf(d, n, bta)),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, mechanisms);
criterion_main!(benches);
