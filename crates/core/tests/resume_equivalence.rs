//! Resuming Algorithm 3's refinement from a recorded checkpoint releases
//! the bytes of a fresh run: pass p + 1 reads only Θ̃ and the checkpoint
//! after pass p, so a run of K iterations may start after any recorded
//! pass p < K, at any thread count, and still match.

use agmdp_core::workflow::{
    learn_parameters, synthesize_from_parameters, synthesize_resumable, AgmConfig,
    LearnedParameters, Privacy, RefinementCheckpoint, StructuralModelKind,
};
use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
use agmdp_graph::AttributedGraph;
use agmdp_models::observe::NoopStageObserver;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Seed of every sampling RNG below.
const SAMPLING_SEED: u64 = 11;
/// Refinement iterations of the run whose checkpoints are recorded.
const RECORDED: usize = 4;

fn fit(graph: &AttributedGraph, model: StructuralModelKind) -> LearnedParameters {
    let config = AgmConfig {
        privacy: Privacy::Dp { epsilon: 2.0 },
        model,
        ..AgmConfig::default()
    };
    learn_parameters(graph, &config, &mut StdRng::seed_from_u64(3)).expect("fit")
}

fn config(model: StructuralModelKind, iterations: usize, threads: usize) -> AgmConfig {
    AgmConfig {
        model,
        refinement_iterations: iterations,
        threads,
        ..AgmConfig::default()
    }
}

/// A fresh release and the sampling RNG's next draw after it.
fn fresh(params: &LearnedParameters, config: &AgmConfig) -> (AttributedGraph, u64) {
    let mut rng = StdRng::seed_from_u64(SAMPLING_SEED);
    let graph = synthesize_from_parameters(params, config, &mut rng).expect("fresh run");
    (graph, rng.next_u64())
}

/// A run from `resume` (fresh when `None`): its release, the sampling RNG's
/// next draw after it, and every checkpoint it recorded.
fn resumed(
    params: &LearnedParameters,
    config: &AgmConfig,
    resume: Option<&RefinementCheckpoint<StdRng>>,
) -> (AttributedGraph, u64, Vec<RefinementCheckpoint<StdRng>>) {
    let mut rng = StdRng::seed_from_u64(SAMPLING_SEED);
    let mut trajectory = Vec::new();
    let graph = synthesize_resumable(
        params,
        config,
        &mut rng,
        resume,
        &NoopStageObserver,
        &mut |checkpoint| trajectory.push(checkpoint),
    )
    .expect("resumable run");
    (graph, rng.next_u64(), trajectory)
}

/// Checkpoints compared field by field (the RNG through its next draw).
fn same(a: &RefinementCheckpoint<StdRng>, b: &RefinementCheckpoint<StdRng>) -> bool {
    let bits = |c: &RefinementCheckpoint<StdRng>| -> Vec<u64> {
        c.acceptance.iter().map(|p| p.to_bits()).collect()
    };
    a.pass == b.pass
        && a.attribute_master == b.attribute_master
        && bits(a) == bits(b)
        && a.rng.clone().next_u64() == b.rng.clone().next_u64()
}

fn assert_resumes_match_fresh_runs(graph: &AttributedGraph, label: &str) {
    for model in [StructuralModelKind::TriCycLe, StructuralModelKind::Fcl] {
        let params = fit(graph, model);
        let (recorded_release, _, trajectory) = resumed(&params, &config(model, RECORDED, 1), None);
        let passes: Vec<usize> = trajectory.iter().map(|c| c.pass).collect();
        assert_eq!(
            passes,
            (0..=RECORDED).collect::<Vec<_>>(),
            "{label} {model}"
        );
        assert_eq!(
            recorded_release,
            fresh(&params, &config(model, RECORDED, 1)).0,
            "{label} {model}: recording changed the release"
        );

        for iterations in 1..=RECORDED + 1 {
            let (expected, next_draw) = fresh(&params, &config(model, iterations, 1));
            for checkpoint in trajectory.iter().filter(|c| c.pass < iterations) {
                let at = format!(
                    "{label} {model}: K = {iterations} after pass {}",
                    checkpoint.pass
                );
                let (release, draw, recorded) =
                    resumed(&params, &config(model, iterations, 2), Some(checkpoint));
                assert_eq!(release.edge_vec(), expected.edge_vec(), "{at}");
                assert_eq!(
                    release.attribute_codes(),
                    expected.attribute_codes(),
                    "{at}"
                );
                assert_eq!(draw, next_draw, "{at}: the RNG ends elsewhere");
                // The resumed run records exactly the passes it ran, and
                // they continue the recorded trajectory.
                let ran: Vec<usize> = recorded.iter().map(|c| c.pass).collect();
                assert_eq!(
                    ran,
                    (checkpoint.pass + 1..=iterations).collect::<Vec<_>>(),
                    "{at}"
                );
                for (mine, theirs) in recorded.iter().zip(&trajectory[checkpoint.pass + 1..]) {
                    assert!(same(mine, theirs), "{at}: pass {} differs", mine.pass);
                }
            }
            // No checkpoint at or past the release can be resumed from.
            let late = &trajectory[iterations.min(RECORDED)];
            if late.pass >= iterations {
                let mut rng = StdRng::seed_from_u64(SAMPLING_SEED);
                let refused = synthesize_resumable(
                    &params,
                    &config(model, iterations, 1),
                    &mut rng,
                    Some(late),
                    &NoopStageObserver,
                    &mut |_| {},
                );
                assert!(refused.is_err(), "{label} {model}: K = {iterations}");
            }
        }
    }
}

#[test]
fn resumed_runs_match_fresh_runs_on_the_toy_graph() {
    assert_resumes_match_fresh_runs(&toy_social_graph(), "toy");
}

#[test]
fn resumed_runs_match_fresh_runs_on_the_lastfm_stand_in() {
    let graph = generate_dataset(&DatasetSpec::lastfm().scaled(0.1), 2016).expect("dataset");
    assert_resumes_match_fresh_runs(&graph, "lastfm@0.1");
}

#[test]
fn unattributed_runs_record_nothing_and_refuse_a_checkpoint() {
    let toy = toy_social_graph();
    let mut graph = AttributedGraph::unattributed(toy.num_nodes());
    for edge in toy.edge_vec() {
        graph.add_edge(edge.u, edge.v).expect("edge");
    }
    for model in [StructuralModelKind::TriCycLe, StructuralModelKind::Fcl] {
        let params = fit(&graph, model);
        for iterations in [1, 3] {
            let config = config(model, iterations, 1);
            let (release, draw, trajectory) = resumed(&params, &config, None);
            assert!(trajectory.is_empty(), "{model}: K = {iterations}");
            assert_eq!((release, draw), fresh(&params, &config), "{model}");
        }
        let stray = RefinementCheckpoint {
            pass: 0,
            rng: StdRng::seed_from_u64(SAMPLING_SEED),
            attribute_master: 0,
            acceptance: vec![1.0],
        };
        let mut rng = StdRng::seed_from_u64(SAMPLING_SEED);
        let refused = synthesize_resumable(
            &params,
            &config(model, 3, 1),
            &mut rng,
            Some(&stray),
            &NoopStageObserver,
            &mut |_| {},
        );
        assert!(refused.is_err(), "{model}");
    }
}
