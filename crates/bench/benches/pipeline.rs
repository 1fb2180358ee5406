//! Criterion benchmarks for the end-to-end AGM / AGM-DP pipeline
//! (the running-time analysis of Appendix C.4): parameter learning, synthetic
//! sampling, and the complete synthesize call for both structural models.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_core::workflow::{
    learn_parameters, synthesize, synthesize_from_parameters, AgmConfig, Privacy,
    StructuralModelKind,
};
use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::GraphView;

fn pipeline(c: &mut Criterion) {
    let input = generate_dataset(&DatasetSpec::lastfm().scaled(0.3), 5).expect("dataset");
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    let dp_tricycle = AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        model: StructuralModelKind::TriCycLe,
        ..AgmConfig::default()
    };
    let dp_fcl = AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        model: StructuralModelKind::Fcl,
        ..AgmConfig::default()
    };
    let non_private = AgmConfig {
        privacy: Privacy::NonPrivate,
        ..AgmConfig::default()
    };

    group.bench_function("learn_parameters_dp_tricycle", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(learn_parameters(&input, &dp_tricycle, &mut rng).unwrap()));
    });

    group.bench_function("sample_from_learned_parameters", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let params = learn_parameters(&input, &dp_tricycle, &mut rng).unwrap();
        b.iter(|| {
            black_box(
                synthesize_from_parameters(&params, &dp_tricycle, &mut rng)
                    .unwrap()
                    .num_edges(),
            )
        });
    });

    group.bench_function("synthesize_agmdp_tricycle_eps1", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            black_box(
                synthesize(&input, &dp_tricycle, &mut rng)
                    .unwrap()
                    .num_edges(),
            )
        });
    });

    group.bench_function("synthesize_agmdp_fcl_eps1", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(synthesize(&input, &dp_fcl, &mut rng).unwrap().num_edges()));
    });

    group.bench_function("synthesize_agm_tricycle_non_private", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            black_box(
                synthesize(&input, &non_private, &mut rng)
                    .unwrap()
                    .num_edges(),
            )
        });
    });

    group.finish();
}

criterion_group!(benches, pipeline);
criterion_main!(benches);
