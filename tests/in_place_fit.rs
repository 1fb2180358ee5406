//! The DP fit reads any graph representation in place: for the same seed,
//! `learn_parameters` returns equal parameters on an `AttributedGraph`, its
//! frozen CSR snapshot, and its `.agb` file opened through both validation
//! tiers — every structural model, every correlation estimator.

use agmdp::graph::io;
use agmdp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const METHODS: [CorrelationMethod; 4] = [
    CorrelationMethod::EdgeTruncation { k: None },
    CorrelationMethod::SmoothSensitivity { delta: 1e-6 },
    CorrelationMethod::SampleAggregate { group_size: 16 },
    CorrelationMethod::NaiveLaplace,
];

fn fit<G: GraphView>(
    graph: &G,
    config: &AgmConfig,
    seed: u64,
) -> agmdp::core::workflow::LearnedParameters {
    learn_parameters(graph, config, &mut StdRng::seed_from_u64(seed)).expect("fit")
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

    for model in [StructuralModelKind::Fcl, StructuralModelKind::TriCycLe] {
        for method in METHODS {
            let config = AgmConfig {
                privacy: Privacy::Dp { epsilon: 1.0 },
                model,
                correlation_method: method,
                ..AgmConfig::default()
            };
            let seed = 2016;
            let expected = fit(graph, &config, seed);
            let label = format!("{name} {model} {method:?}");
            assert_eq!(fit(&frozen, &config, seed), expected, "{label}: freeze");
            assert_eq!(fit(&verified, &config, seed), expected, "{label}: open");
            assert_eq!(
                fit(&trusted, &config, seed),
                expected,
                "{label}: open_trusted"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
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
