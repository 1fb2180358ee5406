//! The synthesis engine: registry + ledger + fitted-parameter cache.
//!
//! The engine keeps one table per key: the [`FitCache`] holds the published
//! parameters and the fits in flight, keyed by fit, and the
//! [`DatasetRegistry`] holds each dataset's graph and fit statistics, keyed
//! by name.
//!
//! A request's life is split in two so the server can refuse over-budget work
//! *before* running anything:
//!
//! 1. [`SynthesisEngine::admit`] — synchronous. Looks up the dataset, then
//!    looks up the fit key once: a hit is served from the cache, and a cold
//!    key is claimed (or waited on while an identical admission fits it) and
//!    draws ε from the ledger (journaled before granted). A request that
//!    exceeds the remaining budget fails here with
//!    [`ServiceError::BudgetExhausted`] and never reaches a worker.
//! 2. [`SynthesisEngine::run`] — the expensive part, safe to run on a
//!    background thread: fit `Θ̃` (cache miss only), publish it, then sample
//!    a synthetic graph from the parameters (pure post-processing, ε-free),
//!    resuming Algorithm 3's refinement after the deepest pass an earlier
//!    job on the same fit recorded.
//!
//! The sampling RNG is seeded independently of the learning RNG so a cache
//! hit reproduces byte-identical output to the cold path for the same seed.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{
    learn_parameters_cached, synthesize_resumable, AgmConfig, LearnedParameters, Privacy,
    StructuralModelKind,
};
use agmdp_graph::triangles::count_triangles;
use agmdp_graph::{io, AttributedGraph, FrozenGraph, GraphView, MappedGraph};
use agmdp_models::observe::{StageObserver, SynthesisStage};

use crate::cache::{FitCache, FitClaim, FitKey, Lookup};
use crate::error::ServiceError;
use crate::ledger::BudgetLedger;
use crate::registry::{DatasetRegistry, DatasetSummary};
use crate::store::ReleaseStore;
use crate::telemetry::{StageTimer, Telemetry};

/// Distinguishes the sampling RNG stream from the learning stream (both are
/// derived from the request seed).
const SAMPLING_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// How long an admission waits for an identical in-flight fit before giving
/// up and paying for its own (the waited-out fallback can double-charge, but
/// never hangs).
const IN_FLIGHT_MAX_WAIT: Duration = Duration::from_secs(60);

/// Cap on per-request sampling threads — tighter than the workflow's own
/// limit because a multi-tenant server multiplies it by concurrent jobs.
pub const MAX_REQUEST_THREADS: usize = 64;

/// Cap on a request's acceptance-refinement iterations (Algorithm 3's outer
/// loop), which bounds the sampling work one request can demand.
const MAX_REQUEST_ITERATIONS: usize = 64;

/// One synthesis request, fully specifying the fit and the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRequest {
    /// Registered dataset to synthesize from.
    pub dataset: String,
    /// ε for this release (drawn from the dataset's ledger on a cache miss).
    pub epsilon: f64,
    /// Structural model (determines the budget split).
    pub model: StructuralModelKind,
    /// Correlation estimator.
    pub method: CorrelationMethod,
    /// Seed for the learning and sampling RNG streams.
    pub seed: u64,
    /// Acceptance-probability refinement iterations (Algorithm 3).
    pub refinement_iterations: usize,
    /// Whether the response should include the synthetic graph text.
    pub return_graph: bool,
    /// Worker threads for the sampling phase of this request (the chunked
    /// parallel engine of `agmdp_models::parallel`).
    ///
    /// Deliberately **not** part of the fit-cache key: fitting stays serial
    /// (the DP mechanisms consume one sequential noise stream), and the
    /// sampled output is bit-identical for every thread count, so requests
    /// differing only in `threads` share one cached parameter set and one ε
    /// spend — and still reproduce the same graph.
    pub threads: usize,
}

impl SynthesisRequest {
    /// A request with the workflow defaults (TriCycLe, edge truncation,
    /// 3 refinement iterations, stats-only response).
    #[must_use]
    pub fn new(dataset: &str, epsilon: f64, seed: u64) -> Self {
        Self {
            dataset: dataset.to_string(),
            epsilon,
            model: StructuralModelKind::TriCycLe,
            method: CorrelationMethod::default(),
            seed,
            refinement_iterations: 3,
            return_graph: false,
            threads: 1,
        }
    }

    pub(crate) fn fit_key(&self) -> FitKey {
        FitKey::new(
            &self.dataset,
            Privacy::Dp {
                epsilon: self.epsilon,
            },
            self.model,
            self.method,
            self.seed,
        )
    }

    fn config(&self) -> AgmConfig {
        AgmConfig {
            privacy: Privacy::Dp {
                epsilon: self.epsilon,
            },
            model: self.model,
            correlation_method: self.method,
            refinement_iterations: self.refinement_iterations,
            orphan_postprocessing: true,
            threads: self.threads,
        }
    }
}

/// Structural summary of a synthetic graph, returned with every job.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of triangles.
    pub triangles: u64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree.
    pub avg_degree: f64,
}

impl GraphStats {
    /// The summary of a release, read from the release alone.
    fn of(release: &FrozenGraph) -> Self {
        Self {
            nodes: release.num_nodes(),
            edges: release.num_edges(),
            triangles: count_triangles(release),
            max_degree: release.max_degree(),
            avg_degree: release.avg_degree(),
        }
    }
}

/// The result of a completed synthesis job.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOutcome {
    /// Dataset the graph was synthesized from.
    pub dataset: String,
    /// ε of the release.
    pub epsilon: f64,
    /// ε actually drawn from the ledger (0 on a cache hit — post-processing).
    pub epsilon_spent: f64,
    /// Whether the fitted parameters came from the cache.
    pub cache_hit: bool,
    /// Structural summary of the synthetic graph.
    pub stats: GraphStats,
    /// The synthetic graph in the text interchange format, when requested.
    pub graph_text: Option<String>,
}

/// An admitted request: either cached parameters (ε-free) or a granted,
/// already-journaled ε spend that [`SynthesisEngine::run`] will consume.
#[derive(Debug)]
pub struct Admission {
    params: Option<Arc<LearnedParameters>>,
    epsilon_spent: f64,
    /// Present on cold admissions that claimed their fit key: released when
    /// the admission is dropped, after the fit is published (or failed).
    _claim: Option<FitClaim>,
}

impl Admission {
    /// Whether this admission was satisfied from the cache.
    #[must_use]
    pub fn cache_hit(&self) -> bool {
        self.params.is_some()
    }

    /// ε drawn from the ledger for this admission.
    #[must_use]
    pub fn epsilon_spent(&self) -> f64 {
        self.epsilon_spent
    }
}

/// The multi-tenant synthesis engine.
#[derive(Debug)]
pub struct SynthesisEngine {
    registry: DatasetRegistry,
    ledger: BudgetLedger,
    /// Shared with every cold [`Admission`]'s claim, which travels to the
    /// job thread.
    cache: Arc<FitCache>,
    telemetry: Arc<Telemetry>,
    /// Content-addressed `.agb` release store, when configured. Completed
    /// runs write their released graph here; [`SynthesisEngine::store_lookup`]
    /// serves repeat requests from it without running a job or drawing ε.
    store: Option<ReleaseStore>,
}

impl SynthesisEngine {
    /// An engine over the given ledger with an empty registry and cache.
    /// Metrics are collected from the start; trace output is off (see
    /// [`SynthesisEngine::with_telemetry`]).
    #[must_use]
    pub fn new(ledger: BudgetLedger) -> Self {
        Self::with_telemetry(ledger, Arc::new(Telemetry::quiet()))
    }

    /// An engine reporting into the given telemetry (the server path, which
    /// may have span tracing enabled).
    #[must_use]
    pub fn with_telemetry(ledger: BudgetLedger, telemetry: Arc<Telemetry>) -> Self {
        Self {
            registry: DatasetRegistry::new(),
            ledger,
            cache: Arc::new(FitCache::new()),
            telemetry,
            store: None,
        }
    }

    /// Attaches a content-addressed release store. Configured once at
    /// startup (before the engine is shared), hence `&mut self`.
    pub fn set_release_store(&mut self, store: ReleaseStore) {
        self.store = Some(store);
    }

    /// The configured release store, if any.
    #[must_use]
    pub fn release_store(&self) -> Option<&ReleaseStore> {
        self.store.as_ref()
    }

    /// The engine's observability state (shared with the HTTP server, which
    /// serves its registry at `GET /metrics`).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The dataset registry.
    #[must_use]
    pub fn registry(&self) -> &DatasetRegistry {
        &self.registry
    }

    /// The budget ledger.
    #[must_use]
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// The fitted-parameter cache.
    #[must_use]
    pub fn cache(&self) -> &FitCache {
        &self.cache
    }

    /// Registers a dataset with its total ε budget (registry + ledger in one
    /// step; both sides are idempotent for the restart path). The graph is
    /// frozen into CSR form.
    pub fn register_dataset(
        &self,
        name: &str,
        graph: AttributedGraph,
        total_epsilon: f64,
    ) -> Result<DatasetSummary, ServiceError> {
        self.register_frozen_dataset(name, graph.freeze(), total_epsilon)
    }

    /// Registers a frozen dataset with its total ε budget. A memory-mapped
    /// `.agb` graph ([`FrozenGraph::open`]) registers without copying its
    /// CSR arrays, so the cost is independent of graph size.
    pub fn register_frozen_dataset(
        &self,
        name: &str,
        graph: FrozenGraph,
        total_epsilon: f64,
    ) -> Result<DatasetSummary, ServiceError> {
        if graph.num_nodes() == 0 || graph.num_edges() == 0 {
            return Err(ServiceError::InvalidRequest(
                "datasets must have at least one node and one edge".to_string(),
            ));
        }
        // Validate the budget *before* touching the registry so a rejected
        // registration leaves no half-registered dataset behind: an invalid
        // ε and a total conflicting with a (possibly journal-replayed) ledger
        // entry both fail here, ahead of the registry insert.
        agmdp_privacy::PrivacyBudget::new(total_epsilon).map_err(|e| {
            ServiceError::InvalidRequest(format!("invalid budget for '{name}': {e}"))
        })?;
        if let Some(existing) = self.ledger.status(name) {
            if existing.total != total_epsilon {
                return Err(ServiceError::DatasetConflict(format!(
                    "'{name}' already has a total budget of {} (requested {total_epsilon})",
                    existing.total
                )));
            }
        }
        let was_registered = self.registry.get(name).is_ok();
        let arc = self.registry.register(name, graph)?;
        if let Err(e) = self.ledger.register(name, total_epsilon) {
            // Roll back a *newly* inserted graph (e.g. the journal append
            // failed) so the registry and ledger never disagree about which
            // datasets exist; a pre-existing registration stays.
            if !was_registered {
                self.registry.remove(name);
            }
            return Err(e);
        }
        Ok(DatasetSummary::of(name, &arc))
    }

    /// [`SynthesisEngine::register_frozen_dataset`] under the name the
    /// repository benchmark (`perfbench/`) calls.
    pub fn register_mapped_dataset(
        &self,
        name: &str,
        graph: MappedGraph,
        total_epsilon: f64,
    ) -> Result<DatasetSummary, ServiceError> {
        self.register_frozen_dataset(name, graph, total_epsilon)
    }

    /// Serves `request` from the release store, if a store is configured and
    /// holds the key. A hit re-sends an already-released graph byte-for-byte
    /// — ε-free post-processing — so **no job runs and nothing is drawn from
    /// the ledger**; only requests the normal path would admit are eligible
    /// (same parameter validation as [`SynthesisEngine::admit`]), so the
    /// store can never launder an invalid request into a 202.
    #[must_use]
    pub fn store_lookup(&self, request: &SynthesisRequest) -> Option<SynthesisOutcome> {
        let store = self.store.as_ref()?;
        self.check_request(request).ok()?;
        let Some(release) = store.lookup(request) else {
            self.telemetry.record_release_store(false, 0);
            return None;
        };
        self.telemetry.record_release_store(true, release.bytes);
        let graph_text = request.return_graph.then(|| io::to_text(&release.graph));
        Some(SynthesisOutcome {
            dataset: request.dataset.clone(),
            epsilon: request.epsilon,
            epsilon_spent: 0.0,
            cache_hit: true,
            stats: release.stats,
            graph_text,
        })
    }

    /// The request checks shared by [`SynthesisEngine::admit`],
    /// [`SynthesisEngine::store_lookup`] and the server's rate limiter: ε,
    /// iterations and threads in range, the dataset registered (even on
    /// the cache-hit path), and the method's parameters usable on the
    /// registered graph ([`CorrelationMethod::check`]; n is public: `GET
    /// /datasets` lists it), so a fit that is certain to fail draws no ε.
    pub fn check_request(&self, request: &SynthesisRequest) -> Result<(), ServiceError> {
        if !(request.epsilon.is_finite() && request.epsilon > 0.0) {
            return Err(ServiceError::InvalidRequest(format!(
                "epsilon must be positive and finite, got {}",
                request.epsilon
            )));
        }
        if !(1..=MAX_REQUEST_ITERATIONS).contains(&request.refinement_iterations) {
            return Err(ServiceError::InvalidRequest(format!(
                "iterations must be in 1..={MAX_REQUEST_ITERATIONS}"
            )));
        }
        if !(1..=MAX_REQUEST_THREADS).contains(&request.threads) {
            return Err(ServiceError::InvalidRequest(format!(
                "threads must be in 1..={MAX_REQUEST_THREADS}"
            )));
        }
        let n = self.registry.get(&request.dataset)?.num_nodes();
        request
            .method
            .check(n)
            .map_err(ServiceError::InvalidRequest)
    }

    /// Synchronous admission: cache lookup, or a journaled ledger spend.
    pub fn admit(&self, request: &SynthesisRequest) -> Result<Admission, ServiceError> {
        self.check_request(request)?;
        // Single-flight: an identical admission's fit in progress is waited
        // for and ridden as a cache hit, spending nothing.
        let lookup = self
            .cache
            .lookup_or_claim(&request.fit_key(), IN_FLIGHT_MAX_WAIT, || {
                self.telemetry.record_single_flight_wait();
            });
        let claim = match lookup {
            Lookup::Hit(params) => {
                self.telemetry.record_fit_cache(true);
                return Ok(Admission {
                    params: Some(params),
                    epsilon_spent: 0.0,
                    _claim: None,
                });
            }
            Lookup::Claimed(claim) => Some(claim),
            Lookup::TimedOut => None,
        };
        self.ledger.spend(&request.dataset, request.epsilon)?;
        self.telemetry.record_fit_cache(false);
        Ok(Admission {
            params: None,
            epsilon_spent: request.epsilon,
            _claim: claim,
        })
    }

    /// The parameter-acquisition half of [`SynthesisEngine::run`]: returns
    /// the admission's cached parameters, or fits `Θ̃` with the DP learners
    /// and caches it. This is the step the fitted-parameter cache skips.
    ///
    /// A failed fit does *not* refund the ledger: the mechanism may have
    /// consumed randomness against the sensitive data, so the conservative
    /// accounting keeps the ε spent.
    pub fn parameters(
        &self,
        request: &SynthesisRequest,
        admission: &Admission,
    ) -> Result<Arc<LearnedParameters>, ServiceError> {
        if let Some(params) = &admission.params {
            return Ok(Arc::clone(params));
        }
        // The DP learners add noise to statistics of the registered graph
        // that the dataset's first cold fit counted in place, from owned
        // words or the `.agb` mapping; later fits only draw the noise.
        let (graph, statistics) = self.registry.fit_input(&request.dataset)?;
        let mut learn_rng = StdRng::seed_from_u64(request.seed);
        let params = Arc::new(
            learn_parameters_cached(
                graph.as_ref(),
                &statistics,
                &request.config(),
                None,
                &mut learn_rng,
            )
            .map_err(|e| ServiceError::Synthesis(e.to_string()))?,
        );
        // Publishing wakes identical admissions as soon as the fit is done
        // instead of making them wait out the sampling step too.
        self.cache.insert(request.fit_key(), Arc::clone(&params));
        Ok(params)
    }

    /// Runs an admitted request: fit (cache miss only) + sample.
    ///
    /// Sampling resumes after the deepest refinement pass the fit's cache
    /// entry has a checkpoint for below the request's iterations, and
    /// records a checkpoint after every pass it runs. Jobs on one entry
    /// differ only in their iterations (the sampling seed is part of the
    /// fit key), so the resumed release is the fresh one byte for byte.
    ///
    /// Every pipeline stage is timed through a [`StageTimer`]: the fit,
    /// freeze, score, and serialize brackets live here; the attr-sample,
    /// edge-sample, and rewire brackets are emitted from inside the
    /// deterministic workflow via its clock-free observer hooks.
    pub fn run(
        &self,
        request: &SynthesisRequest,
        admission: Admission,
    ) -> Result<SynthesisOutcome, ServiceError> {
        let config = request.config();
        let cache_hit = admission.cache_hit();
        let run_id = self.telemetry.next_run_id();
        let timer = StageTimer::new(&self.telemetry, run_id);
        let params = if cache_hit {
            self.parameters(request, &admission)?
        } else {
            timer.stage_start(SynthesisStage::Fit);
            let fitted = self.parameters(request, &admission);
            timer.stage_end(SynthesisStage::Fit);
            fitted?
        };
        let key = request.fit_key();
        let resume = self
            .cache
            .checkpoint(&key, &params, request.refinement_iterations);
        let skipped = resume.as_ref().map_or(0, |checkpoint| checkpoint.pass + 1);
        let mut sample_rng = StdRng::seed_from_u64(request.seed ^ SAMPLING_SEED_SALT);
        let synthetic = synthesize_resumable(
            &params,
            &config,
            &mut sample_rng,
            resume.as_ref(),
            &timer,
            &mut |checkpoint| self.cache.record_checkpoint(&key, &params, checkpoint),
        )
        .map_err(|e| ServiceError::Synthesis(e.to_string()))?;
        self.telemetry.record_passes_skipped(skipped as u64);
        // The release is now read-only: freeze it once and let the stats
        // and the optional serialisation traverse the CSR snapshot
        // (identical values, flat-array locality).
        timer.stage_start(SynthesisStage::Freeze);
        let frozen = synthetic.freeze();
        timer.stage_end(SynthesisStage::Freeze);
        // The stats are post-processing of the release alone: nothing the
        // job sends out is computed from the registered graph.
        timer.stage_start(SynthesisStage::Score);
        let stats = GraphStats::of(&frozen);
        timer.stage_end(SynthesisStage::Score);
        let graph_text = if request.return_graph {
            timer.stage_start(SynthesisStage::Serialize);
            let text = io::to_text(&frozen);
            timer.stage_end(SynthesisStage::Serialize);
            Some(text)
        } else {
            None
        };
        // Publish the release into the store (when configured) so identical
        // future requests skip the job entirely. Best-effort: a full disk
        // must not fail a synthesis that already succeeded, so the error is
        // traced and dropped — the next identical request just re-runs.
        if let Some(store) = &self.store {
            timer.stage_start(SynthesisStage::Serialize);
            let artifact = io::to_binary(&frozen);
            let result = store.insert(request, &artifact, &stats);
            timer.stage_end(SynthesisStage::Serialize);
            if let Err(e) = result {
                self.telemetry
                    .sink()
                    .event("store_write_failed")
                    .str("dataset", &request.dataset)
                    .str("error", &e.to_string())
                    .emit();
            }
        }
        Ok(SynthesisOutcome {
            dataset: request.dataset.clone(),
            epsilon: request.epsilon,
            epsilon_spent: admission.epsilon_spent,
            cache_hit,
            stats,
            graph_text,
        })
    }

    /// Admission + run in one call (the synchronous path used by benches and
    /// tests; the server splits the two across threads).
    pub fn synthesize(&self, request: &SynthesisRequest) -> Result<SynthesisOutcome, ServiceError> {
        let admission = self.admit(request)?;
        self.run(request, admission)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::toy_social_graph;

    fn engine_with_toy(total: f64) -> SynthesisEngine {
        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        engine
            .register_dataset("toy", toy_social_graph(), total)
            .unwrap();
        engine
    }

    #[test]
    fn cold_then_cached_spends_epsilon_exactly_once() {
        let engine = engine_with_toy(1.0);
        let request = SynthesisRequest::new("toy", 0.5, 42);

        let cold = engine.synthesize(&request).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.epsilon_spent, 0.5);
        assert!((engine.ledger().status("toy").unwrap().spent - 0.5).abs() < 1e-12);

        let hot = engine.synthesize(&request).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(hot.epsilon_spent, 0.0);
        // Post-processing invariance: the cached request drew nothing.
        assert!((engine.ledger().status("toy").unwrap().spent - 0.5).abs() < 1e-12);

        // Same request ⇒ byte-identical synthetic graph, cold or cached.
        assert_eq!(cold.stats, hot.stats);
    }

    #[test]
    fn cache_hit_reproduces_cold_output_exactly() {
        let engine = engine_with_toy(10.0);
        let mut request = SynthesisRequest::new("toy", 1.0, 7);
        request.return_graph = true;
        let cold = engine.synthesize(&request).unwrap();
        let hot = engine.synthesize(&request).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(cold.graph_text, hot.graph_text);
    }

    /// `agmdp_refinement_passes_skipped_total` as `GET /metrics` shows it.
    fn passes_skipped(engine: &SynthesisEngine) -> u64 {
        let text = engine.telemetry().metrics().render();
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix("agmdp_refinement_passes_skipped_total "))
            .expect("the counter is registered at start-up");
        line.parse().unwrap()
    }

    fn with_graph(seed: u64, iterations: usize) -> SynthesisRequest {
        let mut request = SynthesisRequest::new("toy", 0.5, seed);
        request.refinement_iterations = iterations;
        request.return_graph = true;
        request
    }

    /// The graph text a fresh engine releases for `request`.
    fn fresh_release(request: &SynthesisRequest) -> Option<String> {
        engine_with_toy(1.0).synthesize(request).unwrap().graph_text
    }

    #[test]
    fn fit_cache_hits_resume_after_the_deepest_shared_pass() {
        let engine = engine_with_toy(1.0);
        let cold = engine.synthesize(&with_graph(17, 3)).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.graph_text, fresh_release(&with_graph(17, 3)));
        assert_eq!(passes_skipped(&engine), 0);
        // The cold job recorded passes 0–3. K = 1 and K = 2 resume after
        // passes 0 and 1; K = 4 after pass 3, recording pass 4, which
        // K = 5 then resumes after.
        for iterations in [1, 2, 4, 5] {
            let request = with_graph(17, iterations);
            let hot = engine.synthesize(&request).unwrap();
            assert!(hot.cache_hit, "K = {iterations}");
            assert_eq!(hot.epsilon_spent, 0.0);
            assert_eq!(hot.graph_text, fresh_release(&request), "K = {iterations}");
        }
        assert_eq!(passes_skipped(&engine), 1 + 2 + 4 + 5);
        assert!((engine.ledger().status("toy").unwrap().spent - 0.5).abs() < 1e-12);
    }

    /// The first cold job fills the dataset's fit statistics; a later cold
    /// job reads them and releases what a fresh engine releases.
    #[test]
    fn later_cold_jobs_release_what_a_fresh_engine_releases() {
        let engine = engine_with_toy(2.0);
        engine.synthesize(&with_graph(31, 3)).unwrap();
        let mut fcl = with_graph(33, 2);
        fcl.model = StructuralModelKind::Fcl;
        fcl.method = CorrelationMethod::NaiveLaplace;
        for request in [with_graph(32, 3), fcl] {
            let cold = engine.synthesize(&request).unwrap();
            assert!(!cold.cache_hit);
            assert_eq!(cold.graph_text, fresh_release(&request), "{request:?}");
        }
    }

    #[test]
    fn a_hit_whose_entry_was_evicted_resumes_from_nothing() {
        let engine = SynthesisEngine {
            cache: Arc::new(FitCache::with_capacity(1)),
            ..engine_with_toy(10.0)
        };
        engine.synthesize(&with_graph(21, 3)).unwrap();
        let resample = with_graph(21, 2);
        let admission = engine.admit(&resample).unwrap();
        assert!(admission.cache_hit());
        // Another fit evicts seed 21's entry and its checkpoints while the
        // admitted hit still holds the parameters.
        engine.synthesize(&with_graph(22, 3)).unwrap();
        assert!(engine.cache().peek(&resample.fit_key()).is_none());
        let hot = engine.run(&resample, admission).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(hot.graph_text, fresh_release(&resample));
        assert_eq!(passes_skipped(&engine), 0);
        // The re-fit starts a new trajectory; the evicted job's passes were
        // not recorded into it.
        let refit = engine.synthesize(&with_graph(21, 1)).unwrap();
        assert!(!refit.cache_hit);
        assert_eq!(refit.graph_text, fresh_release(&with_graph(21, 1)));
        let hot = engine.synthesize(&with_graph(21, 3)).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(hot.graph_text, fresh_release(&with_graph(21, 3)));
        assert_eq!(passes_skipped(&engine), 2);
    }

    #[test]
    fn over_budget_admission_is_refused_before_running() {
        let engine = engine_with_toy(1.0);
        engine
            .synthesize(&SynthesisRequest::new("toy", 0.8, 1))
            .unwrap();
        let err = engine
            .admit(&SynthesisRequest::new("toy", 0.8, 2))
            .unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExhausted { .. }));
        assert_eq!(err.http_status(), 402);
        // A cached request still succeeds with zero remaining-budget impact.
        let hot = engine
            .synthesize(&SynthesisRequest::new("toy", 0.8, 1))
            .unwrap();
        assert!(hot.cache_hit);
    }

    #[test]
    fn concurrent_identical_cold_requests_charge_epsilon_once() {
        let engine = Arc::new(engine_with_toy(1.0));
        let request = SynthesisRequest::new("toy", 0.5, 99);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let request = request.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    engine.synthesize(&request).unwrap()
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Single-flight admission: exactly one release was paid for, the
        // other three rode the published fit as cache hits.
        let spent = engine.ledger().status("toy").unwrap().spent;
        assert!(
            (spent - 0.5).abs() < 1e-12,
            "identical concurrent requests must charge ε once, spent {spent}"
        );
        assert_eq!(outcomes.iter().filter(|o| !o.cache_hit).count(), 1);
        assert_eq!(
            outcomes.iter().map(|o| o.epsilon_spent).sum::<f64>(),
            0.5,
            "only the fitter drew from the ledger"
        );
        // Same request ⇒ same synthetic graph, regardless of who fitted.
        for outcome in &outcomes[1..] {
            assert_eq!(outcome.stats, outcomes[0].stats);
        }
    }

    #[test]
    fn threads_do_not_affect_cache_key_output_or_budget() {
        let engine = engine_with_toy(1.0);
        let mut serial = SynthesisRequest::new("toy", 0.5, 5);
        serial.return_graph = true;
        let mut parallel = serial.clone();
        parallel.threads = 8;

        let cold = engine.synthesize(&serial).unwrap();
        // Same request at 8 threads: rides the cached fit (no extra ε) and
        // reproduces the serial graph byte for byte.
        let hot = engine.synthesize(&parallel).unwrap();
        assert!(hot.cache_hit, "threads must not fragment the fit cache");
        assert_eq!(hot.epsilon_spent, 0.0);
        assert_eq!(cold.graph_text, hot.graph_text);
        assert!((engine.ledger().status("toy").unwrap().spent - 0.5).abs() < 1e-12);

        // Out-of-range thread counts are refused at admission.
        let mut bad = SynthesisRequest::new("toy", 0.1, 6);
        bad.threads = 0;
        assert!(engine.admit(&bad).is_err());
        bad.threads = MAX_REQUEST_THREADS + 1;
        assert!(engine.admit(&bad).is_err());
    }

    #[test]
    fn different_seeds_fit_separately() {
        let engine = engine_with_toy(1.0);
        engine
            .synthesize(&SynthesisRequest::new("toy", 0.4, 1))
            .unwrap();
        let second = engine
            .synthesize(&SynthesisRequest::new("toy", 0.4, 2))
            .unwrap();
        assert!(!second.cache_hit);
        assert!((engine.ledger().status("toy").unwrap().spent - 0.8).abs() < 1e-12);
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn rejected_registration_leaves_no_half_registered_dataset() {
        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        // Invalid budget: the registry must not retain the graph.
        assert!(engine
            .register_dataset("d", toy_social_graph(), -1.0)
            .is_err());
        assert!(engine.registry().get("d").is_err());
        // Ledger-only state (the restart path): a conflicting total is
        // refused before the registry insert.
        engine.ledger().register("e", 2.0).unwrap();
        assert!(engine
            .register_dataset("e", toy_social_graph(), 3.0)
            .is_err());
        assert!(engine.registry().get("e").is_err());
        // The matching total re-attaches the dataset to the replayed budget.
        engine
            .register_dataset("e", toy_social_graph(), 2.0)
            .unwrap();
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let engine = engine_with_toy(1.0);
        assert!(engine
            .admit(&SynthesisRequest::new("toy", -1.0, 1))
            .is_err());
        assert!(engine
            .admit(&SynthesisRequest::new("toy", f64::NAN, 1))
            .is_err());
        assert!(engine
            .admit(&SynthesisRequest::new("missing", 0.1, 1))
            .is_err());
        let mut bad_iterations = SynthesisRequest::new("toy", 0.1, 1);
        bad_iterations.refinement_iterations = 0;
        assert!(engine.admit(&bad_iterations).is_err());
        assert!(engine
            .register_dataset("empty", AttributedGraph::unattributed(0), 1.0)
            .is_err());
        // Method parameters no fit on the graph can use spend nothing.
        let n = toy_social_graph().num_nodes();
        for method in [
            CorrelationMethod::SmoothSensitivity { delta: 2.0 },
            CorrelationMethod::SampleAggregate { group_size: 0 },
            CorrelationMethod::SampleAggregate { group_size: n + 1 },
        ] {
            let mut request = SynthesisRequest::new("toy", 0.5, 1);
            request.method = method;
            assert!(engine.admit(&request).is_err(), "{method:?}");
        }
        assert_eq!(engine.ledger().status("toy").unwrap().spent, 0.0);
    }
}
