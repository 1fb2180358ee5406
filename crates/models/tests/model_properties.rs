//! Property-based tests for the generative structural models, and the
//! contract of their one entry point, `generate` under a `GenerateRequest`:
//! paired stage callbacks, and a sample the thread count does not change.

use std::sync::Mutex;

use agmdp_graph::triangles::count_triangles;
use agmdp_graph::{AttributeSchema, GraphView};
use agmdp_models::acceptance::AcceptanceContext;
use agmdp_models::baselines::uniform_edge_graph;
use agmdp_models::{
    ChungLuModel, ExecPolicy, GenerateRequest, PiSampler, StageObserver, StructuralModel,
    SynthesisStage, TclModel, TriCycLeModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Strategy producing a usable desired-degree sequence (at least one positive
/// degree, modest sizes so generation stays fast).
fn degree_sequence() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, 8..60).prop_map(|mut d| {
        if d.iter().all(|&x| x == 0) {
            d[0] = 2;
            d[1] = 2;
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FCL output is always a simple graph over the requested node set with
    /// the requested number of edges (when achievable).
    #[test]
    fn fcl_output_is_well_formed(degrees in degree_sequence(), seed in 0u64..500) {
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = model.generate(&GenerateRequest::default(), &mut rng).unwrap();
        prop_assert_eq!(g.num_nodes(), degrees.len());
        prop_assert!(g.check_consistency().is_ok());
        prop_assert!(g.num_edges() <= model.target_edges());
        // No node exceeds n-1 neighbors (simple graph).
        prop_assert!(g.max_degree() < degrees.len());
    }

    /// TriCycLe terminates and produces a consistent graph for arbitrary
    /// degree sequences and triangle targets — including unreachable targets.
    #[test]
    fn tricycle_always_terminates_consistently(
        degrees in degree_sequence(),
        target in 0u64..500,
        seed in 0u64..500,
    ) {
        let model = TriCycLeModel::new(degrees.clone(), target)
            .unwrap()
            .with_max_iteration_factor(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = model.generate(&GenerateRequest::default(), &mut rng).unwrap();
        prop_assert_eq!(g.num_nodes(), degrees.len());
        prop_assert!(g.check_consistency().is_ok());
    }

    /// TCL preserves the target edge count exactly and stays consistent.
    #[test]
    fn tcl_output_is_well_formed(degrees in degree_sequence(), rho in 0.0f64..1.0, seed in 0u64..500) {
        let model = TclModel::new(degrees.clone(), rho).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = model.generate(&GenerateRequest::default(), &mut rng).unwrap();
        prop_assert_eq!(g.num_nodes(), degrees.len());
        prop_assert!(g.check_consistency().is_ok());
        prop_assert!(g.num_edges() <= model.target_edges());
    }

    /// With acceptance probability zero for a configuration, no generated edge
    /// ever carries that configuration (for any of the three models).
    #[test]
    fn zero_acceptance_blocks_configurations(seed in 0u64..200) {
        let n = 40usize;
        let schema = AttributeSchema::new(1);
        let degrees = vec![4usize; n];
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 0)).collect();
        // Forbid mixed (0,1) edges.
        let ctx = AcceptanceContext::new(codes, schema, vec![1.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<Box<dyn StructuralModel>> = vec![
            Box::new(ChungLuModel::new(degrees.clone()).unwrap()),
            Box::new(TclModel::new(degrees.clone(), 0.4).unwrap()),
            Box::new(TriCycLeModel::new(degrees.clone(), 30).unwrap().with_orphan_extension(false)),
        ];
        for model in &models {
            let request = GenerateRequest { acceptance: Some(&ctx), ..GenerateRequest::default() };
            let g = model.generate(&request, &mut rng).unwrap();
            for e in g.edges() {
                prop_assert_eq!(g.attribute_code(e.u), g.attribute_code(e.v));
            }
        }
    }

    /// The pi sampler only ever returns nodes with positive (non-excluded)
    /// desired degree.
    #[test]
    fn pi_sampler_respects_support(degrees in degree_sequence(), seed in 0u64..200) {
        prop_assume!(degrees.iter().any(|&d| d > 0));
        let sampler = PiSampler::from_degrees(&degrees).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let v = sampler.sample(&mut rng) as usize;
            prop_assert!(degrees[v] > 0);
        }
    }

    /// The uniform-edge baseline always produces exactly the requested number
    /// of edges (capped at the complete graph) and a simple graph.
    #[test]
    fn uniform_edge_graph_properties(n in 2usize..60, m in 0usize..400, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = uniform_edge_graph(n, m, &mut rng).unwrap();
        let cap = n * (n - 1) / 2;
        prop_assert_eq!(g.num_edges(), m.min(cap));
        prop_assert!(g.check_consistency().is_ok());
    }
}

/// TriCycLe's triangle counts respond monotonically (on average) to the target
/// parameter — a sanity check that the rewiring loop actually drives the
/// statistic it is parameterised by.
#[test]
fn tricycle_triangles_increase_with_target() {
    let degrees: Vec<usize> = (0..200)
        .map(|i| 3 + (200 / (3 * (i + 1))).min(10))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mean_triangles = |target: u64, rng: &mut StdRng| -> f64 {
        (0..3)
            .map(|_| {
                let g = TriCycLeModel::new(degrees.clone(), target)
                    .unwrap()
                    .with_orphan_extension(false)
                    .generate(&GenerateRequest::default(), rng)
                    .unwrap();
                count_triangles(&g) as f64
            })
            .sum::<f64>()
            / 3.0
    };
    let low = mean_triangles(20, &mut rng);
    let high = mean_triangles(400, &mut rng);
    assert!(
        high > low,
        "triangle target 400 should yield more triangles ({high}) than target 20 ({low})"
    );
}

/// Records every stage callback, in order (`true` = start).
#[derive(Default)]
struct Recorder(Mutex<Vec<(bool, SynthesisStage)>>);

impl StageObserver for Recorder {
    fn stage_start(&self, stage: SynthesisStage) {
        self.0.lock().unwrap().push((true, stage));
    }

    fn stage_end(&self, stage: SynthesisStage) {
        self.0.lock().unwrap().push((false, stage));
    }
}

impl Recorder {
    /// Fails unless the callbacks form balanced, non-nested start/end pairs
    /// (`StageTimer` drops an unpaired end, so a broken pair would silently
    /// lose stage time).
    fn assert_paired(&self, label: &str) {
        let events = self.0.lock().unwrap();
        let mut open = None;
        for &(start, stage) in events.iter() {
            match open {
                None if start => open = Some(stage),
                Some(current) if !start && current == stage => open = None,
                _ => panic!("{label}: unpaired or nested stage callbacks {events:?}"),
            }
        }
        assert_eq!(open, None, "{label}: stage left open in {events:?}");
    }
}

/// Every model configuration with a distinct generation path. The degree
/// sequence has degree-one nodes, so the orphan paths do real work.
fn contract_models() -> Vec<(&'static str, Box<dyn StructuralModel>)> {
    let degrees: Vec<usize> = (0..120).map(|i| 1 + (120 / (i + 1)).min(12)).collect();
    let cl = || ChungLuModel::new(degrees.clone()).unwrap();
    let tricycle = || TriCycLeModel::new(degrees.clone(), 40).unwrap();
    vec![
        ("fcl", Box::new(cl())),
        (
            "fcl+orphans",
            Box::new(cl().with_orphan_postprocessing(true)),
        ),
        ("tricycle+orphans", Box::new(tricycle())),
        (
            "tricycle",
            Box::new(tricycle().with_orphan_extension(false)),
        ),
        (
            "tcl",
            Box::new(TclModel::new(degrees.clone(), 0.4).unwrap()),
        ),
    ]
}

/// For every request shape (with and without an acceptance context; serial,
/// 1-thread and 4-thread policies), `generate` pairs its stage callbacks,
/// and under a policy the thread count does not change the sample.
#[test]
fn generate_is_thread_count_invariant_and_pairs_its_callbacks() {
    let schema = AttributeSchema::new(1);
    let codes: Vec<u32> = (0..120).map(|i| u32::from(i % 3 == 0)).collect();
    let ctx = AcceptanceContext::new(codes, schema, vec![0.9, 0.4, 0.7]).unwrap();
    let one = ExecPolicy::new(1).with_chunk_size(64);
    let four = ExecPolicy::new(4).with_chunk_size(64);
    for (name, model) in contract_models() {
        for acceptance in [None, Some(&ctx)] {
            let mut by_threads = Vec::new();
            for policy in [None, Some(&one), Some(&four)] {
                let label = format!(
                    "{name}, acceptance {}, threads {:?}",
                    acceptance.is_some(),
                    policy.map(ExecPolicy::threads)
                );
                let observer = Recorder::default();
                let request = GenerateRequest {
                    acceptance,
                    policy,
                    observer: &observer,
                };
                let mut rng = StdRng::seed_from_u64(17);
                let graph = model.generate(&request, &mut rng).unwrap();
                observer.assert_paired(&label);
                if policy.is_some() {
                    by_threads.push((graph.edge_vec(), rng.next_u64()));
                }
            }
            assert_eq!(
                by_threads[0], by_threads[1],
                "{name}: thread count changed the sample or the RNG state"
            );
        }
    }
}

#[test]
fn wrong_node_count_context_is_an_error() {
    let schema = AttributeSchema::new(1);
    let short = AcceptanceContext::new(vec![0; 119], schema, vec![1.0; 3]).unwrap();
    let four = ExecPolicy::new(4).with_chunk_size(64);
    for (name, model) in contract_models() {
        for policy in [None, Some(&four)] {
            let observer = Recorder::default();
            let request = GenerateRequest {
                acceptance: Some(&short),
                policy,
                observer: &observer,
            };
            let mut rng = StdRng::seed_from_u64(3);
            assert!(model.generate(&request, &mut rng).is_err(), "{name}");
            observer.assert_paired(name);
        }
    }
}
