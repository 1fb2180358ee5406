//! The DP fit reads any graph representation in place: for the same seed,
//! `learn_parameters` returns equal parameters on an `AttributedGraph`, its
//! frozen CSR snapshot, and its `.agb` file opened through both validation
//! tiers — every structural model, every correlation estimator. A fit that
//! reads the statistics one input's earlier fits left in its
//! `FitStatistics` (the service's and the eval runner's path) returns the
//! same parameters and leaves the RNG where the fit on the graph does; the
//! non-private fits share those statistics too.

use agmdp::core::workflow::{learn_parameters_cached, LearnedParameters};
use agmdp::core::FitStatistics;
use agmdp::graph::io;
use agmdp::graph::triangles::count_triangles;
use agmdp::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const METHODS: [CorrelationMethod; 5] = [
    CorrelationMethod::EdgeTruncation { k: None },
    CorrelationMethod::EdgeTruncation { k: Some(3) },
    CorrelationMethod::SmoothSensitivity { delta: 1e-6 },
    CorrelationMethod::SampleAggregate { group_size: 16 },
    CorrelationMethod::NaiveLaplace,
];

fn fit<G: GraphView>(graph: &G, config: &AgmConfig, seed: u64) -> LearnedParameters {
    learn_parameters(graph, config, &mut StdRng::seed_from_u64(seed)).expect("fit")
}

/// A fit and the next draw of its RNG.
fn fit_and_draw<G: GraphView>(
    graph: &G,
    statistics: Option<&FitStatistics>,
    config: &AgmConfig,
    seed: u64,
) -> (LearnedParameters, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = match statistics {
        None => learn_parameters(graph, config, &mut rng),
        Some(statistics) => learn_parameters_cached(graph, statistics, config, None, &mut rng),
    };
    (params.expect("fit"), rng.next_u64())
}

fn assert_fit_is_representation_blind(name: &str, graph: &AttributedGraph) {
    // One directory per test: the tests run in parallel, and each removes
    // its directory when done.
    let dir =
        std::env::temp_dir().join(format!("agmdp_in_place_fit_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.agb"));
    io::write_binary_file(graph, &path).unwrap();
    let frozen = graph.freeze();
    let verified = FrozenGraph::open(&path).unwrap();
    let trusted = FrozenGraph::open_trusted(&path).unwrap();
    // Shared by every fit below, as a registry entry's statistics are: the
    // first fit that needs a statistic fills it, the rest read it.
    let statistics = FitStatistics::new();

    for seed in [2016, 7] {
        for model in [StructuralModelKind::Fcl, StructuralModelKind::TriCycLe] {
            assert_non_private_fit_reads_the_counts(
                name,
                graph,
                &trusted,
                &statistics,
                model,
                seed,
            );
            for method in METHODS {
                let config = AgmConfig {
                    privacy: Privacy::Dp { epsilon: 1.0 },
                    model,
                    correlation_method: method,
                    ..AgmConfig::default()
                };
                let (expected, next) = fit_and_draw(graph, None, &config, seed);
                let label = format!("{name} {model} {method:?} seed {seed}");
                assert_eq!(fit(&frozen, &config, seed), expected, "{label}: freeze");
                assert_eq!(fit(&verified, &config, seed), expected, "{label}: open");
                assert_eq!(
                    fit(&trusted, &config, seed),
                    expected,
                    "{label}: open_trusted"
                );
                assert_eq!(
                    fit_and_draw(&trusted, Some(&statistics), &config, seed),
                    (expected, next),
                    "{label}: cached statistics"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A non-private fit through the shared statistics equals one on the graph,
/// keeps the degrees in node order and the exact triangle count (TriCycLe
/// only), and draws nothing from the RNG.
fn assert_non_private_fit_reads_the_counts(
    name: &str,
    graph: &AttributedGraph,
    trusted: &FrozenGraph,
    statistics: &FitStatistics,
    model: StructuralModelKind,
    seed: u64,
) {
    let config = AgmConfig {
        privacy: Privacy::NonPrivate,
        model,
        ..AgmConfig::default()
    };
    let label = format!("{name} {model} non-private seed {seed}");
    let (expected, next) = fit_and_draw(graph, None, &config, seed);
    assert_eq!(
        fit_and_draw(trusted, Some(statistics), &config, seed),
        (expected.clone(), next),
        "{label}: cached statistics"
    );
    assert_eq!(
        next,
        StdRng::seed_from_u64(seed).next_u64(),
        "{label}: the fit drew from the RNG"
    );
    assert_eq!(expected.theta_m.degree_sequence, graph.degrees(), "{label}");
    let triangles = match model {
        StructuralModelKind::TriCycLe => Some(count_triangles(graph)),
        StructuralModelKind::Fcl => None,
    };
    assert_eq!(expected.theta_m.triangles, triangles, "{label}");
}

#[test]
fn toy_graph_fits_identically_in_every_representation() {
    assert_fit_is_representation_blind("toy", &toy_social_graph());
}

#[test]
fn lastfm_fits_identically_in_every_representation() {
    let graph = generate_dataset(&DatasetSpec::lastfm().scaled(0.1), 7).unwrap();
    assert_fit_is_representation_blind("lastfm", &graph);
}
