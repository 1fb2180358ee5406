//! Criterion benchmarks for the generative structural models (FCL, TCL,
//! TriCycLe) and the graph-analysis primitives they depend on, on the
//! Last.fm stand-in; `tricycle_generate_pokec` repeats TriCycLe on the
//! heavy-tailed Pokec stand-in, where rewiring intersects hub neighbor lists.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::clustering::average_local_clustering;
use agmdp_graph::triangles::count_triangles;
use agmdp_models::{ChungLuModel, GenerateRequest, StructuralModel, TclModel, TriCycLeModel};

fn models(c: &mut Criterion) {
    let input = generate_dataset(&DatasetSpec::lastfm().scaled(0.3), 11).expect("dataset");
    let degrees = input.degrees();
    let triangles = count_triangles(&input);
    let mut group = c.benchmark_group("models");
    group.sample_size(10);

    group.bench_function("triangle_count", |b| {
        b.iter(|| black_box(count_triangles(&input)));
    });

    group.bench_function("average_local_clustering", |b| {
        b.iter(|| black_box(average_local_clustering(&input)));
    });

    let plain = GenerateRequest::default();
    group.bench_function("fcl_generate", |b| {
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(model.generate(&plain, &mut rng).unwrap().num_edges()));
    });

    group.bench_function("tcl_fit_rho_em", |b| {
        b.iter(|| black_box(agmdp_models::tcl::estimate_rho(&input, 10)));
    });

    group.bench_function("tcl_generate", |b| {
        let model = TclModel::fit(&input, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(model.generate(&plain, &mut rng).unwrap().num_edges()));
    });

    group.bench_function("tricycle_generate", |b| {
        let model = TriCycLeModel::new(degrees.clone(), triangles).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(model.generate(&plain, &mut rng).unwrap().num_edges()));
    });

    group.bench_function("tricycle_generate_pokec", |b| {
        let pokec = generate_dataset(&DatasetSpec::pokec().scaled(0.02), 11).expect("dataset");
        let model = TriCycLeModel::new(pokec.degrees(), count_triangles(&pokec)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(model.generate(&plain, &mut rng).unwrap().num_edges()));
    });

    group.finish();
}

criterion_group!(benches, models);
criterion_main!(benches);
