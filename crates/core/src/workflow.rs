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
//! Steps 3–5 are one loop that can also start after any pass an earlier run
//! recorded as a [`RefinementCheckpoint`] ([`synthesize_resumable`]).
//!
//! After the learning step the input graph is never touched again, so by
//! sequential composition and post-processing invariance the output satisfies
//! ε-differential privacy (Theorem 2).

use rand::Rng;
use serde::Serialize;

use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};
use agmdp_models::acceptance::{AcceptanceContext, GenerateRequest};
use agmdp_models::chung_lu::ChungLuModel;
use agmdp_models::observe::{NoopStageObserver, StageObserver, SynthesisStage};
use agmdp_models::parallel::map_node_chunks;
use agmdp_models::tricycle::TriCycLeModel;
use agmdp_models::{ExecPolicy, StructuralModel};
pub use agmdp_privacy::budget::BudgetSplit;

use crate::acceptance::acceptance_probabilities;
use crate::attributes_dp::learn_attributes_cached;
use crate::correlations_dp::{learn_correlations_cached, CorrelationMethod};
use crate::error::CoreError;
use crate::params::{ThetaF, ThetaM, ThetaX};
use crate::statistics::FitStatistics;
use crate::structural_dp::{fit_fcl_cached, fit_tricycle_cached};
use crate::Result;

/// Which structural model AGM is instantiated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
    /// Rejects a configuration no run can use: zero refinement iterations,
    /// or a thread count outside `1..=MAX_SYNTHESIS_THREADS`.
    pub fn validate(&self) -> Result<()> {
        if self.refinement_iterations == 0 {
            return Err(CoreError::InvalidConfig(
                "refinement_iterations must be at least 1".to_string(),
            ));
        }
        if self.threads == 0 || self.threads > MAX_SYNTHESIS_THREADS {
            return Err(CoreError::InvalidConfig(format!(
                "threads must lie in 1..={MAX_SYNTHESIS_THREADS}, got {}",
                self.threads
            )));
        }
        Ok(())
    }

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
    learn_parameters_cached(graph, &FitStatistics::new(), config, None, rng)
}

/// [`learn_parameters`] reading the graph's counts from `statistics`, which
/// belongs to `graph` and is filled by the first fit that needs each one:
/// the statistics the DP learners add noise to, and the `Q_X`, `Q_F` and
/// triangle count a non-private fit keeps as they are (with the degrees in
/// node order, which it reads from the graph). The result and the draws
/// from `rng` equal a fit on the graph alone, bit for bit, so a caller that
/// fits one input many times keeps one [`FitStatistics`] beside it and
/// walks the graph only on the first fit.
///
/// `split` replaces the Section 5 split [`AgmConfig::budget_split`] picks
/// (`None` keeps that one). A split needs a DP configuration, and its total
/// may not exceed the configured ε. The learners draw in the same order
/// either way, so the configuration's own split reproduces
/// [`learn_parameters`] bit for bit.
pub fn learn_parameters_cached<G: GraphView, R: Rng + ?Sized>(
    graph: &G,
    statistics: &FitStatistics,
    config: &AgmConfig,
    split: Option<BudgetSplit>,
    rng: &mut R,
) -> Result<LearnedParameters> {
    if graph.num_nodes() == 0 {
        return Err(CoreError::UnusableInput("graph has no nodes".to_string()));
    }
    if graph.num_edges() == 0 {
        return Err(CoreError::UnusableInput("graph has no edges".to_string()));
    }
    config.validate()?;
    let (theta_x, theta_f, theta_m) = match config.privacy {
        Privacy::NonPrivate if split.is_some() => {
            return Err(CoreError::InvalidConfig(
                "a budget split needs a finite epsilon".to_string(),
            ));
        }
        Privacy::NonPrivate => {
            let schema = graph.schema();
            let triangles = match config.model {
                StructuralModelKind::TriCycLe => Some(statistics.triangles(graph).count),
                StructuralModelKind::Fcl => None,
            };
            (
                ThetaX::from_counts(schema, statistics.node_configs(graph)),
                ThetaF::from_counts(schema, statistics.edge_configs(graph)),
                ThetaM {
                    degree_sequence: graph.degrees(),
                    triangles,
                },
            )
        }
        Privacy::Dp { epsilon } => {
            let split = match split {
                None => config.budget_split()?,
                Some(split) if split.total() > epsilon * (1.0 + 1e-9) => {
                    return Err(CoreError::InvalidConfig(format!(
                        "budget split spends {} of epsilon {epsilon}",
                        split.total()
                    )));
                }
                Some(split) => split,
            };
            let theta_x = learn_attributes_cached(graph, statistics, split.attributes, rng)?;
            let theta_f = learn_correlations_cached(
                graph,
                statistics,
                split.correlations,
                config.correlation_method,
                rng,
            )?;
            let theta_m = match config.model {
                StructuralModelKind::TriCycLe => fit_tricycle_cached(
                    graph,
                    statistics,
                    split.degree_sequence,
                    split.triangles,
                    rng,
                )?,
                StructuralModelKind::Fcl => {
                    fit_fcl_cached(graph, statistics, split.degree_sequence, rng)?
                }
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

/// The state Algorithm 3's refinement leaves after one pass: everything the
/// next pass depends on besides `Θ̃`.
///
/// Pass 0 samples the temporary edge set `E'` with no acceptance filter;
/// pass `p ≥ 1` is the `p`-th accept/reject sample, and pass
/// `refinement_iterations` is the release. Pass `p + 1` reads only `Θ̃`, the
/// attribute codes (re-drawn from `attribute_master`), the RNG state and the
/// acceptance probabilities below, so a run of any `refinement_iterations`
/// above `pass` resumed from here releases the same bytes as a fresh run.
/// Nothing here is derived from the input graph except through `Θ̃`.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementCheckpoint<R> {
    /// The pass this checkpoint follows.
    pub pass: usize,
    /// The sampling RNG as the pass left it.
    pub rng: R,
    /// The seed the attribute codes `X̃` are drawn from (every run's first
    /// draw from the sampling RNG).
    pub attribute_master: u64,
    /// The acceptance probabilities of pass `pass + 1`, one per edge
    /// configuration.
    pub acceptance: Vec<f64>,
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
    refine(params, config, rng, None, &NoopStageObserver, None)
}

/// [`synthesize_from_parameters`] that starts after `resume` (or fresh from
/// `rng` when it is `None`) and hands `record` a checkpoint after every pass
/// it runs, the release pass included.
///
/// The observer sees attribute sampling, edge sampling and rewiring as they
/// happen. This crate only reports *boundaries* — it never reads a clock,
/// so determinism is untouched and the observer cannot influence the
/// output (it receives no data and returns none).
///
/// On resume `*rng` is first set to the checkpoint's state, so either way
/// the release and the final `rng` state equal a fresh run's. `resume.pass`
/// must lie below `config.refinement_iterations`. Unattributed graphs
/// release their first pass, so they record no checkpoint and refuse one.
pub fn synthesize_resumable<R: Rng + Clone>(
    params: &LearnedParameters,
    config: &AgmConfig,
    rng: &mut R,
    resume: Option<&RefinementCheckpoint<R>>,
    observer: &dyn StageObserver,
    record: &mut dyn FnMut(RefinementCheckpoint<R>),
) -> Result<AttributedGraph> {
    if let Some(checkpoint) = resume {
        if checkpoint.pass >= config.refinement_iterations {
            return Err(CoreError::InvalidConfig(format!(
                "cannot resume {} refinement iterations after pass {}",
                config.refinement_iterations, checkpoint.pass
            )));
        }
        *rng = checkpoint.rng.clone();
    }
    refine(
        params,
        config,
        rng,
        resume,
        observer,
        Some(&mut |passed: RefinementCheckpoint<&R>| {
            record(RefinementCheckpoint {
                pass: passed.pass,
                rng: passed.rng.clone(),
                attribute_master: passed.attribute_master,
                acceptance: passed.acceptance,
            });
        }),
    )
}

/// Receives each pass's checkpoint, borrowing the running RNG.
type PassRecorder<'a, R> = &'a mut dyn FnMut(RefinementCheckpoint<&R>);

/// Algorithm 3's sampling phase: the one refinement loop behind every
/// `synthesize*` entry point. A resumed run finds `rng` already at
/// `resume`'s state; `record`, when present, sees each pass's checkpoint,
/// and only then is the release's own `Θ_F` counted.
fn refine<R: Rng>(
    params: &LearnedParameters,
    config: &AgmConfig,
    rng: &mut R,
    resume: Option<&RefinementCheckpoint<R>>,
    observer: &dyn StageObserver,
    mut record: Option<PassRecorder<'_, R>>,
) -> Result<AttributedGraph> {
    config.validate()?;
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

    // The attribute master is every fresh run's first draw, attributed or
    // not (the chunk streams never touch `rng`).
    let (mut pass, attribute_master, mut acceptance) = match resume {
        None => (0, rng.next_u64(), None),
        Some(checkpoint) => (
            checkpoint.pass + 1,
            checkpoint.attribute_master,
            Some(checkpoint.acceptance.clone()),
        ),
    };

    let request = GenerateRequest {
        acceptance: None,
        policy: Some(&policy),
        observer,
    };
    // Unattributed graphs skip attribute sampling and the accept/reject
    // machinery entirely: their first pass is the release.
    if params.schema.width() == 0 {
        if resume.is_some() {
            return Err(CoreError::InvalidConfig(
                "an unattributed graph has no refinement pass to resume".to_string(),
            ));
        }
        return Ok(model.generate(&request, rng)?);
    }

    // Sample fresh attribute vectors X̃ from Θ̃_X, one node chunk per stream.
    observer.stage_start(SynthesisStage::AttrSample);
    let codes: Vec<u32> = map_node_chunks(
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

    let release = config.refinement_iterations;
    loop {
        // Pass 0, the temporary edge set E', has no acceptance filter.
        let ctx = acceptance
            .take()
            .map(|probabilities| {
                AcceptanceContext::new(codes.clone(), params.schema, probabilities)
            })
            .transpose()?;
        let request = GenerateRequest {
            acceptance: ctx.as_ref(),
            ..request
        };
        let graph = model.generate(&request, rng)?;
        if pass == release && record.is_none() {
            return Ok(graph);
        }
        // Every pass is counted under the sampled codes, which pass 0's E'
        // does not carry.
        let observed = ThetaF::from_edges(params.schema, &codes, graph.edges());
        let previous = ctx.map(|c| c.acceptance);
        let next = acceptance_probabilities(&params.theta_f, &observed, previous.as_deref());
        if let Some(record) = record.as_mut() {
            record(RefinementCheckpoint {
                pass,
                rng: &*rng,
                attribute_master,
                acceptance: next.clone(),
            });
        }
        if pass == release {
            return Ok(graph);
        }
        acceptance = Some(next);
        pass += 1;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::{generate_dataset, toy_social_graph, DatasetSpec};
    use agmdp_graph::degree::DegreeSequence;
    use agmdp_graph::triangles::count_triangles;
    use agmdp_metrics::distance::{hellinger_distance, ks_statistic, relative_error};
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
        let params =
            learn_parameters(&toy_social_graph(), &AgmConfig::default(), &mut rng).unwrap();
        assert!(synthesize_from_parameters(&params, &bad_config, &mut rng).is_err());
    }

    #[test]
    fn an_explicit_split_is_spent_as_given_and_checked() {
        let input = toy_social_graph();
        let config = AgmConfig::default();
        let learn = |config: &AgmConfig, split| {
            let statistics = FitStatistics::new();
            learn_parameters_cached(
                &input,
                &statistics,
                config,
                split,
                &mut StdRng::seed_from_u64(8),
            )
        };
        // The configuration's own split reproduces `learn_parameters`.
        let even = Some(config.budget_split().unwrap());
        assert_eq!(
            learn(&config, even).unwrap(),
            learn_parameters(&input, &config, &mut StdRng::seed_from_u64(8)).unwrap()
        );
        let over = BudgetSplit::custom(0.5, 0.5, 0.5, 0.5).ok();
        assert!(learn(&config, over).is_err(), "spends 2 of epsilon 1");
        let non_private = AgmConfig {
            privacy: Privacy::NonPrivate,
            ..config
        };
        assert!(learn(&non_private, even).is_err());
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
        let edge_count_re = relative_error(input.num_edges() as f64, synth.num_edges() as f64);
        assert!(edge_count_re < 0.2, "edge count error {edge_count_re}");
        let ks_degree = ks_statistic(
            &DegreeSequence::from_graph(&input).distribution(),
            &DegreeSequence::from_graph(&synth).distribution(),
        );
        assert!(ks_degree < 0.35, "KS degree error {ks_degree}");
        assert!(count_triangles(&synth) > 0);
        synth.check_consistency().unwrap();
    }

    #[test]
    fn dp_synthesis_preserves_attribute_correlations_better_than_uniform() {
        // The scaled-down stand-in has ~5x fewer edges than the real Last.fm
        // crawl, so the per-count signal-to-noise at a given ε is ~5x worse;
        // a moderate ε keeps this a stable qualitative check (the full ε sweep
        // at dataset scale is `plans/paper/tables2-4.plan`).
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
