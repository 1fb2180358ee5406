//! Read-path benchmark for the two graph representations: the mutable
//! adjacency-list [`AttributedGraph`] (`adj`) versus the frozen CSR
//! [`FrozenGraph`] snapshot (`csr`), over nodes ∈ {10k, 100k, 1M}.
//!
//! The measured operations are the pipeline's hot read-only traversals —
//! triangle counting, global clustering, the degree-distribution KS
//! statistic and a full fidelity score (`comparison`: two fresh
//! [`GraphProfile`]s scored by [`UtilityReport::between`], every metric
//! column at once) — run on identical graphs, so any timing difference is purely
//! the memory layout: one contiguous CSR scan versus span-addressed lists
//! with slack in one arena. Freezing itself is also timed (`freeze`), since every
//! consumer pays it exactly once per graph.
//!
//! The `.agb` load path is measured in three tiers over the same graphs
//! written to a temp file: `load_owned` (read + full deserialise into an
//! owned [`FrozenGraph`]), `load_mmap_verified` ([`FrozenGraph::open`]:
//! mmap + checksum + full structural validation, the `POST /datasets`
//! tier) and `load_mmap_trusted` ([`FrozenGraph::open_trusted`]: mmap +
//! layout and offsets checks only, the release-store tier). The mmap tiers
//! never copy the arrays — registering a 1M-node graph drops from tens of
//! milliseconds to microseconds.
//!
//! `AGMDP_BENCH_JSON=BENCH_graph.json cargo bench -p agmdp-bench --bench
//! graphops` reproduces the committed numbers (single-core container).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_core::params::{ThetaF, ThetaM, ThetaX};
use agmdp_core::workflow::{
    synthesize_from_parameters, AgmConfig, LearnedParameters, Privacy, StructuralModelKind,
};
use agmdp_eval::{GraphProfile, UtilityReport};
use agmdp_graph::clustering::global_clustering;
use agmdp_graph::degree::DegreeSequence;
use agmdp_graph::triangles::count_triangles;
use agmdp_graph::{io, AttributeSchema, AttributedGraph, FrozenGraph};
use agmdp_metrics::distance::ks_statistic;

/// An `n`-node FCL workload (average degree ≈ 6, one binary attribute with
/// homophilic edge correlations) — the same synthetic shape the parallel
/// bench uses, so sizes line up across the committed BENCH files.
fn workload(n: usize, seed: u64) -> AttributedGraph {
    let schema = AttributeSchema::new(1);
    let degree_sequence: Vec<usize> = (0..n).map(|i| 2 + (n / (i + 1)).min(50) % 9).collect();
    let params = LearnedParameters {
        theta_x: ThetaX::new(schema, vec![0.6, 0.4]).expect("theta_x"),
        theta_f: ThetaF::new(schema, vec![0.45, 0.2, 0.35]).expect("theta_f"),
        theta_m: ThetaM {
            degree_sequence,
            triangles: None,
        },
        num_nodes: n,
        schema,
    };
    let config = AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        model: StructuralModelKind::Fcl,
        orphan_postprocessing: false,
        ..AgmConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    synthesize_from_parameters(&params, &config, &mut rng).expect("workload synthesis")
}

fn graphops(c: &mut Criterion) {
    let sizes: &[(usize, &str, usize)] = &[
        (10_000, "10k", 10),
        (100_000, "100k", 5),
        (1_000_000, "1m", 2),
    ];
    for &(n, label, samples) in sizes {
        // Two graphs per size: `original` vs `synthetic` for the comparison
        // benches; the single-graph benches run on `original`.
        let original = workload(n, 2016);
        let synthetic = workload(n, 2017);
        let original_csr = original.freeze();
        let synthetic_csr = synthetic.freeze();
        let original_dist = DegreeSequence::from_graph(&original).distribution();

        let mut group = c.benchmark_group("graphops");
        group.sample_size(samples);

        group.bench_function(format!("freeze_{label}"), |b| {
            b.iter(|| black_box(original.freeze().num_edges()));
        });

        group.bench_function(format!("triangles_adj_{label}"), |b| {
            b.iter(|| black_box(count_triangles(&original)));
        });
        group.bench_function(format!("triangles_csr_{label}"), |b| {
            b.iter(|| black_box(count_triangles(&original_csr)));
        });

        group.bench_function(format!("global_clustering_adj_{label}"), |b| {
            b.iter(|| black_box(global_clustering(&original)));
        });
        group.bench_function(format!("global_clustering_csr_{label}"), |b| {
            b.iter(|| black_box(global_clustering(&original_csr)));
        });

        group.bench_function(format!("degree_ks_adj_{label}"), |b| {
            b.iter(|| {
                let dist = DegreeSequence::from_graph(&synthetic).distribution();
                black_box(ks_statistic(&original_dist, &dist))
            });
        });
        group.bench_function(format!("degree_ks_csr_{label}"), |b| {
            b.iter(|| {
                let dist = DegreeSequence::from_graph(&synthetic_csr).distribution();
                black_box(ks_statistic(&original_dist, &dist))
            });
        });

        group.bench_function(format!("comparison_adj_{label}"), |b| {
            b.iter(|| {
                let original = GraphProfile::of(&original);
                black_box(UtilityReport::between(
                    &original,
                    &GraphProfile::of(&synthetic),
                ))
            });
        });
        group.bench_function(format!("comparison_csr_{label}"), |b| {
            b.iter(|| {
                let original = GraphProfile::of(&original_csr);
                black_box(UtilityReport::between(
                    &original,
                    &GraphProfile::of(&synthetic_csr),
                ))
            });
        });

        // The three `.agb` load tiers over the same graph on disk. The mmap
        // tiers only touch the header/offsets, so crank the sample count —
        // they finish in microseconds even at 1M nodes.
        let agb_path = std::env::temp_dir().join(format!(
            "agmdp_graphops_bench_{}_{label}.agb",
            std::process::id()
        ));
        io::write_binary_file(&original_csr, &agb_path).expect("write .agb");

        group.bench_function(format!("load_owned_{label}"), |b| {
            b.iter(|| {
                let g = io::read_binary_file(&agb_path).expect("owned load");
                black_box(g.num_edges())
            });
        });
        group.bench_function(format!("load_mmap_verified_{label}"), |b| {
            b.iter(|| {
                let g = FrozenGraph::open(&agb_path).expect("verified mmap");
                black_box(g.num_edges())
            });
        });
        group.bench_function(format!("load_mmap_trusted_{label}"), |b| {
            b.iter(|| {
                let g = FrozenGraph::open_trusted(&agb_path).expect("trusted mmap");
                black_box(g.num_edges())
            });
        });

        std::fs::remove_file(&agb_path).ok();
        group.finish();
    }
}

criterion_group!(benches, graphops);
criterion_main!(benches);
