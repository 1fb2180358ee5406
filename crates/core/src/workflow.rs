//! The end-to-end AGM / AGM-DP synthesis workflow (Algorithm 3, Figure 4).
//!
//! Given an input attributed graph and a privacy setting, the workflow
//!
//! 1. splits the privacy budget among the three parameter sets
//!    (Section 4 / 5: an even four-way split for TriCycLe, half-to-degrees for
//!    FCL),
//! 2. learns `Θ̃_X`, `Θ̃_F`, `Θ̃_M` with their respective DP learners
//!    (or exactly, in non-private mode),
//! 3. samples fresh attribute vectors from `Θ̃_X`,
//! 4. generates a temporary edge set from the structural model, measures the
//!    correlations it exhibits, derives acceptance probabilities, and
//!    regenerates with the accept/reject filter — iterating a few times until
//!    the acceptance probabilities stabilise,
//! 5. returns the synthetic attributed graph `G̃ = (Ñ, Ẽ, X̃)`.
//!
//! After the learning step the input graph is never touched again, so by
//! sequential composition and post-processing invariance the output satisfies
//! ε-differential privacy (Theorem 2).

use rand::Rng;
use serde::{Deserialize, Serialize};

use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};
use agmdp_models::acceptance::{AcceptanceContext, GenerateRequest};
use agmdp_models::chung_lu::ChungLuModel;
use agmdp_models::observe::{NoopStageObserver, StageObserver, SynthesisStage};
use agmdp_models::parallel::map_node_chunks;
use agmdp_models::tricycle::TriCycLeModel;
use agmdp_models::{ExecPolicy, StructuralModel};
use agmdp_privacy::budget::BudgetSplit;

use crate::acceptance::acceptance_probabilities;
use crate::attributes_dp::learn_attributes_dp;
use crate::correlations_dp::{learn_correlations_dp, CorrelationMethod};
use crate::error::CoreError;
use crate::params::{ThetaF, ThetaM, ThetaX};
use crate::structural_dp::{fit_fcl_dp, fit_tricycle_dp};
use crate::Result;

/// Which structural model AGM is instantiated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StructuralModelKind {
    /// The simple (fast) Chung-Lu model — "AGM(DP)-FCL" in the tables.
    Fcl,
    /// The paper's TriCycLe model — "AGM(DP)-TriCL" in the tables.
    TriCycLe,
}

impl StructuralModelKind {
    /// Parses the user-facing model token shared by the CLI (`--model`), the
    /// service API (`"model"`) and evaluation plans (`model <name>`).
    pub fn parse(name: &str) -> std::result::Result<Self, String> {
        match name {
            "fcl" => Ok(StructuralModelKind::Fcl),
            "tricycle" => Ok(StructuralModelKind::TriCycLe),
            other => Err(format!(
                "unknown model '{other}' (expected fcl or tricycle)"
            )),
        }
    }

    /// The canonical user-facing token, the inverse of
    /// [`StructuralModelKind::parse`] (used by table rendering and artifact
    /// rows in the evaluation harness).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StructuralModelKind::Fcl => "fcl",
            StructuralModelKind::TriCycLe => "tricycle",
        }
    }
}

impl std::fmt::Display for StructuralModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Privacy setting of a synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Privacy {
    /// Learn the model parameters exactly (the "non-private" table rows).
    NonPrivate,
    /// Learn the model parameters under ε-differential privacy.
    Dp {
        /// The total privacy budget ε.
        epsilon: f64,
    },
}

/// Upper bound on [`AgmConfig::threads`]; a defensive cap, far above any
/// sensible host.
pub const MAX_SYNTHESIS_THREADS: usize = 256;

/// Configuration of an AGM / AGM-DP synthesis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgmConfig {
    /// Non-private or ε-DP parameter learning.
    pub privacy: Privacy,
    /// Structural model (FCL or TriCycLe).
    pub model: StructuralModelKind,
    /// Estimator used for the attribute–edge correlations under DP.
    pub correlation_method: CorrelationMethod,
    /// Number of acceptance-probability refinement iterations (Algorithm 3's
    /// outer loop; the paper observes convergence "after just a few").
    pub refinement_iterations: usize,
    /// Whether to run the orphan-node post-processing of Algorithm 2.
    pub orphan_postprocessing: bool,
    /// Worker threads for the *sampling* phase (attribute vectors and edge
    /// proposals run through the chunked engine of `agmdp_models::parallel`).
    ///
    /// Parameter learning always stays serial: the DP mechanisms consume one
    /// sequential noise stream against the sensitive data, and the guarantee
    /// is indifferent to how fast the ε-free post-processing runs afterwards.
    /// The thread count never changes the output — the synthetic graph is
    /// bit-identical for `threads = 1` and `threads = N` at a fixed seed.
    /// Must lie in `1..=MAX_SYNTHESIS_THREADS`.
    pub threads: usize,
}

impl Default for AgmConfig {
    fn default() -> Self {
        Self {
            privacy: Privacy::Dp { epsilon: 1.0 },
            model: StructuralModelKind::TriCycLe,
            correlation_method: CorrelationMethod::default(),
            refinement_iterations: 3,
            orphan_postprocessing: true,
            threads: 1,
        }
    }
}

impl AgmConfig {
    /// The budget split this configuration implies (Section 5): an even
    /// four-way split for TriCycLe, half-to-degrees for FCL. Returns an error
    /// in non-private mode.
    pub fn budget_split(&self) -> Result<BudgetSplit> {
        match self.privacy {
            Privacy::NonPrivate => Err(CoreError::InvalidConfig(
                "non-private runs have no privacy budget to split".to_string(),
            )),
            Privacy::Dp { epsilon } => {
                let split = match self.model {
                    StructuralModelKind::TriCycLe => BudgetSplit::even_tricycle(epsilon)?,
                    StructuralModelKind::Fcl => BudgetSplit::fcl(epsilon)?,
                };
                Ok(split)
            }
        }
    }
}

/// The learned (noisy or exact) AGM parameters of an input graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedParameters {
    /// Attribute distribution.
    pub theta_x: ThetaX,
    /// Attribute–edge correlations.
    pub theta_f: ThetaF,
    /// Structural-model parameters.
    pub theta_m: ThetaM,
    /// Number of nodes of the input graph (public, per Section 2.1).
    pub num_nodes: usize,
    /// The attribute schema of the input graph.
    pub schema: AttributeSchema,
}

/// Learns the three AGM parameter sets from the input graph according to the
/// configuration (lines 2–5 of Algorithm 3).
///
/// Reads any [`GraphView`] in place — a mutable graph, a frozen snapshot or
/// a memory-mapped `.agb` file — and returns the same parameters for the
/// same graph and RNG state whichever representation it is given.
pub fn learn_parameters<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    config: &AgmConfig,
    rng: &mut R,
) -> Result<LearnedParameters> {
    if graph.num_nodes() == 0 {
        return Err(CoreError::UnusableInput("graph has no nodes".to_string()));
    }
    if graph.num_edges() == 0 {
        return Err(CoreError::UnusableInput("graph has no edges".to_string()));
    }
    if config.refinement_iterations == 0 {
        return Err(CoreError::InvalidConfig(
            "refinement_iterations must be at least 1".to_string(),
        ));
    }
    validate_threads(config)?;
    let (theta_x, theta_f, theta_m) = match config.privacy {
        Privacy::NonPrivate => {
            let theta_m = match config.model {
                StructuralModelKind::TriCycLe => ThetaM::from_graph(graph),
                StructuralModelKind::Fcl => ThetaM::from_graph_degrees_only(graph),
            };
            (
                ThetaX::from_graph(graph),
                ThetaF::from_graph(graph),
                theta_m,
            )
        }
        Privacy::Dp { .. } => {
            let split = config.budget_split()?;
            let theta_x = learn_attributes_dp(graph, split.attributes, rng)?;
            let theta_f =
                learn_correlations_dp(graph, split.correlations, config.correlation_method, rng)?;
            let theta_m = match config.model {
                StructuralModelKind::TriCycLe => {
                    fit_tricycle_dp(graph, split.degree_sequence, split.triangles, rng)?
                }
                StructuralModelKind::Fcl => fit_fcl_dp(graph, split.degree_sequence, rng)?,
            };
            (theta_x, theta_f, theta_m)
        }
    };
    Ok(LearnedParameters {
        theta_x,
        theta_f,
        theta_m,
        num_nodes: graph.num_nodes(),
        schema: graph.schema(),
    })
}

/// Rejects thread counts outside `1..=MAX_SYNTHESIS_THREADS`.
fn validate_threads(config: &AgmConfig) -> Result<()> {
    if config.threads == 0 || config.threads > MAX_SYNTHESIS_THREADS {
        return Err(CoreError::InvalidConfig(format!(
            "threads must lie in 1..={MAX_SYNTHESIS_THREADS}, got {}",
            config.threads
        )));
    }
    Ok(())
}

/// Samples a synthetic attributed graph from learned parameters (lines 6–19 of
/// Algorithm 3). This step never reads the input graph, so it is pure
/// post-processing with respect to the privacy guarantee.
///
/// Sampling runs on the deterministic parallel engine
/// (`agmdp_models::parallel`) with `config.threads` workers: attribute
/// vectors and edge proposals are generated in fixed chunks, each driven by
/// a ChaCha stream derived from a master seed drawn once from `rng`, so the
/// output depends only on the RNG state — never on the thread count.
pub fn synthesize_from_parameters<R: Rng>(
    params: &LearnedParameters,
    config: &AgmConfig,
    rng: &mut R,
) -> Result<AttributedGraph> {
    synthesize_from_parameters_observed(params, config, rng, &NoopStageObserver)
}

/// [`synthesize_from_parameters`] with stage-boundary callbacks: the
/// observer sees attribute sampling, edge sampling, and rewiring as they
/// happen. This crate only reports *boundaries* — it never reads a clock,
/// so determinism is untouched and the observer cannot influence the
/// output (it receives no data and returns none).
pub fn synthesize_from_parameters_observed<R: Rng>(
    params: &LearnedParameters,
    config: &AgmConfig,
    rng: &mut R,
    observer: &dyn StageObserver,
) -> Result<AttributedGraph> {
    validate_threads(config)?;
    let policy = ExecPolicy::new(config.threads);
    let model: Box<dyn StructuralModel> = match config.model {
        StructuralModelKind::Fcl => Box::new(
            ChungLuModel::new(params.theta_m.degree_sequence.clone())?
                .with_orphan_postprocessing(config.orphan_postprocessing),
        ),
        StructuralModelKind::TriCycLe => Box::new(
            TriCycLeModel::new(
                params.theta_m.degree_sequence.clone(),
                params.theta_m.triangles.unwrap_or(0),
            )?
            .with_orphan_extension(config.orphan_postprocessing),
        ),
    };

    // The attribute master is drawn unconditionally so both branches below
    // leave `rng` in the same state (the chunk streams never touch it).
    let attribute_master = rng.next_u64();

    let request = GenerateRequest {
        acceptance: None,
        policy: Some(&policy),
        observer,
    };
    // Unattributed graphs skip attribute sampling and the accept/reject
    // machinery entirely.
    if params.schema.width() == 0 {
        return Ok(model.generate(&request, rng)?);
    }

    // Sample fresh attribute vectors X̃ from Θ̃_X, one node chunk per stream.
    observer.stage_start(SynthesisStage::AttrSample);
    let codes = map_node_chunks(
        params.num_nodes,
        &policy,
        attribute_master,
        |range, chunk_rng| {
            range
                .map(|_| params.theta_x.sample_code(chunk_rng))
                .collect()
        },
    );
    observer.stage_end(SynthesisStage::AttrSample);

    // Temporary edge set E', independent of the attributes. With no
    // refinement iterations it *is* the release and must be materialised;
    // otherwise only its Θ_F is observed, so the edge list suffices and the
    // model may skip building the graph (the stream-identity contract of
    // `StructuralModel::generate_edges` guarantees the same sample either
    // way).
    if config.refinement_iterations == 0 {
        let temp = model.generate(&request, rng)?;
        return Ok(temp.with_attributes(params.schema, &codes)?);
    }
    let mut current = model.generate_edges(&request, rng)?;

    let mut previous_acceptance: Option<Vec<f64>> = None;
    for iteration in 0..config.refinement_iterations {
        let observed = ThetaF::from_edges(params.schema, &codes, &current);
        let acceptance =
            acceptance_probabilities(&params.theta_f, &observed, previous_acceptance.as_deref());
        let ctx = AcceptanceContext::new(codes.clone(), params.schema, acceptance.clone())?;
        let request = GenerateRequest {
            acceptance: Some(&ctx),
            ..request
        };
        // Only the last iteration's sample is released; the earlier ones are
        // observed and discarded, so they stay edge lists.
        if iteration + 1 == config.refinement_iterations {
            return Ok(model.generate(&request, rng)?);
        }
        current = model.generate_edges(&request, rng)?;
        previous_acceptance = Some(acceptance);
    }
    unreachable!("the refinement loop returns on its last iteration")
}

/// The complete AGM / AGM-DP pipeline: learn parameters, then synthesize one
/// graph. Satisfies ε-DP when `config.privacy` is [`Privacy::Dp`] (Theorem 2).
///
/// ```
/// use agmdp_core::workflow::{synthesize, AgmConfig, Privacy, StructuralModelKind};
/// use agmdp_datasets::toy_social_graph;
/// use rand::SeedableRng;
///
/// let input = toy_social_graph();
/// let config = AgmConfig {
///     privacy: Privacy::Dp { epsilon: 1.0 },
///     model: StructuralModelKind::TriCycLe,
///     threads: 2, // sampling-phase workers; never changes the output
///     ..AgmConfig::default()
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let synthetic = synthesize(&input, &config, &mut rng).unwrap();
/// assert_eq!(synthetic.num_nodes(), input.num_nodes());
///
/// // Same seed, serial sampling: bit-identical release.
/// let serial = AgmConfig { threads: 1, ..config };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// assert_eq!(synthesize(&input, &serial, &mut rng).unwrap(), synthetic);
/// ```
pub fn synthesize<G: GraphView, R: Rng>(
    graph: &G,
    config: &AgmConfig,
    rng: &mut R,
) -> Result<AttributedGraph> {
    let params = learn_parameters(graph, config, rng)?;
    synthesize_from_parameters(&params, config, rng)
}

/// Copies an edge set into a new graph that carries the given schema and
/// attribute codes.
#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
    use agmdp_graph::triangles::count_triangles;
    use agmdp_metrics::distance::hellinger_distance;
    use agmdp_metrics::GraphComparison;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_budget_splits_match_section5() {
        let tricycle = AgmConfig {
            privacy: Privacy::Dp { epsilon: 1.0 },
            model: StructuralModelKind::TriCycLe,
            ..AgmConfig::default()
        };
        let s = tricycle.budget_split().unwrap();
        assert!((s.attributes - 0.25).abs() < 1e-12);
        assert!((s.triangles - 0.25).abs() < 1e-12);

        let fcl = AgmConfig {
            privacy: Privacy::Dp { epsilon: 0.2 },
            model: StructuralModelKind::Fcl,
            ..AgmConfig::default()
        };
        let s = fcl.budget_split().unwrap();
        assert!((s.degree_sequence - 0.1).abs() < 1e-12);
        assert_eq!(s.triangles, 0.0);

        let non_private = AgmConfig {
            privacy: Privacy::NonPrivate,
            ..AgmConfig::default()
        };
        assert!(non_private.budget_split().is_err());
    }

    #[test]
    fn model_kind_name_roundtrips_through_parse() {
        for kind in [StructuralModelKind::Fcl, StructuralModelKind::TriCycLe] {
            assert_eq!(StructuralModelKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!(StructuralModelKind::parse("bogus").is_err());
    }

    #[test]
    fn rejects_unusable_inputs_and_configs() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = AttributedGraph::unattributed(0);
        assert!(synthesize(&empty, &AgmConfig::default(), &mut rng).is_err());
        let no_edges = AttributedGraph::new(5, AttributeSchema::new(1));
        assert!(synthesize(&no_edges, &AgmConfig::default(), &mut rng).is_err());
        let bad_config = AgmConfig {
            refinement_iterations: 0,
            ..AgmConfig::default()
        };
        assert!(synthesize(&toy_social_graph(), &bad_config, &mut rng).is_err());
    }

    #[test]
    fn non_private_tricycle_reproduces_structure_closely() {
        let input = toy_social_graph();
        let config = AgmConfig {
            privacy: Privacy::NonPrivate,
            model: StructuralModelKind::TriCycLe,
            ..AgmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let synth = synthesize(&input, &config, &mut rng).unwrap();
        assert_eq!(synth.num_nodes(), input.num_nodes());
        assert_eq!(synth.schema(), input.schema());
        let report = GraphComparison::compare(&input, &synth);
        assert!(
            report.edge_count_re < 0.2,
            "edge count error {}",
            report.edge_count_re
        );
        assert!(
            report.ks_degree < 0.35,
            "KS degree error {}",
            report.ks_degree
        );
        assert!(count_triangles(&synth) > 0);
        synth.check_consistency().unwrap();
    }

    #[test]
    fn dp_synthesis_preserves_attribute_correlations_better_than_uniform() {
        // The scaled-down stand-in has ~5x fewer edges than the real Last.fm
        // crawl, so the per-count signal-to-noise at a given ε is ~5x worse;
        // a moderate ε keeps this a stable qualitative check (the full ε sweep
        // at dataset scale lives in the `exp_tables` experiment binary).
        let spec = DatasetSpec::lastfm().scaled(0.35);
        let input = generate_dataset(&spec, 3).unwrap();
        let config = AgmConfig {
            privacy: Privacy::Dp { epsilon: 2.0 },
            model: StructuralModelKind::TriCycLe,
            ..AgmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let synth = synthesize(&input, &config, &mut rng).unwrap();
        let target = ThetaF::from_graph(&input);
        let achieved = ThetaF::from_graph(&synth);
        let h = hellinger_distance(target.probabilities(), achieved.probabilities());
        // The uniform baseline Hellinger distance for Last.fm is ~0.37 (Section 5.2).
        let uniform = vec![0.1; 10];
        let h_uniform = hellinger_distance(target.probabilities(), &uniform);
        assert!(
            h < h_uniform,
            "synthetic correlations (H = {h}) should beat the uniform baseline (H = {h_uniform})"
        );
    }

    #[test]
    fn dp_synthesis_with_fcl_matches_edge_count() {
        let input = toy_social_graph();
        let config = AgmConfig {
            privacy: Privacy::Dp { epsilon: 2.0 },
            model: StructuralModelKind::Fcl,
            ..AgmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let synth = synthesize(&input, &config, &mut rng).unwrap();
        assert_eq!(synth.num_nodes(), input.num_nodes());
        let re =
            (synth.num_edges() as f64 - input.num_edges() as f64).abs() / input.num_edges() as f64;
        assert!(re < 0.35, "edge count relative error {re}");
    }

    #[test]
    fn learned_parameters_can_be_reused_for_many_samples() {
        // Sampling is post-processing: many graphs from one learning pass.
        let input = toy_social_graph();
        let config = AgmConfig {
            privacy: Privacy::Dp { epsilon: 1.0 },
            ..AgmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let params = learn_parameters(&input, &config, &mut rng).unwrap();
        let a = synthesize_from_parameters(&params, &config, &mut rng).unwrap();
        let b = synthesize_from_parameters(&params, &config, &mut rng).unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        // Different random draws give different graphs.
        assert_ne!(a.edge_vec(), b.edge_vec());
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let input = toy_social_graph();
        let config = AgmConfig::default();
        let a = synthesize(&input, &config, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = synthesize(&input, &config, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.edge_vec(), b.edge_vec());
        assert_eq!(a.attribute_codes(), b.attribute_codes());
    }

    #[test]
    fn synthesis_output_is_independent_of_thread_count() {
        let input = toy_social_graph();
        for model in [StructuralModelKind::Fcl, StructuralModelKind::TriCycLe] {
            let synth = |threads: usize| {
                let config = AgmConfig {
                    model,
                    threads,
                    ..AgmConfig::default()
                };
                synthesize(&input, &config, &mut StdRng::seed_from_u64(31)).unwrap()
            };
            let serial = synth(1);
            for threads in [2, 4, 8] {
                let parallel = synth(threads);
                assert_eq!(parallel.edge_vec(), serial.edge_vec(), "{model:?}");
                assert_eq!(
                    parallel.attribute_codes(),
                    serial.attribute_codes(),
                    "{model:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_thread_counts_are_rejected() {
        let input = toy_social_graph();
        let mut rng = StdRng::seed_from_u64(0);
        for threads in [0, MAX_SYNTHESIS_THREADS + 1] {
            let config = AgmConfig {
                threads,
                ..AgmConfig::default()
            };
            assert!(synthesize(&input, &config, &mut rng).is_err(), "{threads}");
        }
    }

    #[test]
    fn tricycle_synthesis_has_more_clustering_than_fcl() {
        let spec = DatasetSpec::lastfm().scaled(0.2);
        let input = generate_dataset(&spec, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let tricycle_cfg = AgmConfig {
            privacy: Privacy::Dp { epsilon: 2.0 },
            model: StructuralModelKind::TriCycLe,
            ..AgmConfig::default()
        };
        let fcl_cfg = AgmConfig {
            privacy: Privacy::Dp { epsilon: 2.0 },
            model: StructuralModelKind::Fcl,
            ..AgmConfig::default()
        };
        let tri = synthesize(&input, &tricycle_cfg, &mut rng).unwrap();
        let fcl = synthesize(&input, &fcl_cfg, &mut rng).unwrap();
        assert!(
            count_triangles(&tri) > count_triangles(&fcl),
            "TriCycLe ({}) should produce more triangles than FCL ({})",
            count_triangles(&tri),
            count_triangles(&fcl)
        );
    }
}
