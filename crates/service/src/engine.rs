//! The synthesis engine: registry + ledger + fitted-parameter cache.
//!
//! A request's life is split in two so the server can refuse over-budget work
//! *before* running anything:
//!
//! 1. [`SynthesisEngine::admit`] — synchronous. Looks up the dataset, checks
//!    the fitted-parameter cache and, on a miss, draws ε from the ledger
//!    (journaled before granted). A request that exceeds the remaining budget
//!    fails here with [`ServiceError::BudgetExhausted`] and never reaches a
//!    worker.
//! 2. [`SynthesisEngine::run`] — the expensive part, safe to run on a
//!    background thread: fit `Θ̃` (cache miss only), cache it, then sample a
//!    synthetic graph from the parameters (pure post-processing, ε-free).
//!
//! The sampling RNG is seeded independently of the learning RNG so a cache
//! hit reproduces byte-identical output to the cold path for the same seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{
    learn_parameters, synthesize_from_parameters_observed, AgmConfig, LearnedParameters, Privacy,
    StructuralModelKind,
};
use agmdp_graph::{io, AttributedGraph, FrozenGraph, GraphView, MappedGraph};
use agmdp_models::observe::{StageObserver, SynthesisStage};

use agmdp_eval::{GraphProfile, UtilityReport};

use crate::cache::{FitCache, FitKey};
use crate::error::ServiceError;
use crate::evalstore::EvalStore;
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
/// Granularity of the in-flight wait (also bounds wake-up latency).
const IN_FLIGHT_WAIT_SLICE: Duration = Duration::from_millis(50);

/// Cap on per-request sampling threads — tighter than the workflow's own
/// limit because a multi-tenant server multiplies it by concurrent jobs.
pub const MAX_REQUEST_THREADS: usize = 64;

/// Cap on a request's acceptance-refinement iterations (Algorithm 3's outer
/// loop), which bounds the sampling work one request can demand.
const MAX_REQUEST_ITERATIONS: usize = 64;

/// Keys whose fit is currently being computed by some admitted request.
///
/// Single-flight guard: without it, two concurrent identical cold requests
/// would both miss the cache and both draw ε from the ledger for one released
/// parameter set. Admissions for a key already in flight wait (bounded) for
/// the fitter to publish into the cache and then ride it as a cache hit.
#[derive(Debug, Default)]
struct InFlight {
    keys: Mutex<BTreeSet<FitKey>>,
    done: Condvar,
}

impl InFlight {
    /// Removes `key` (idempotent) and wakes all waiters.
    fn complete(&self, key: &FitKey) {
        // Recover from poisoning: the set only tracks which fits are in
        // flight, so its contents stay valid even if a holder panicked.
        self.keys
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(key);
        self.done.notify_all();
    }
}

/// RAII claim on an in-flight fit; released explicitly once the fit is
/// published, or on drop (fit failed / admission abandoned) so waiters can
/// take over.
#[derive(Debug)]
struct FitClaim {
    in_flight: Arc<InFlight>,
    key: FitKey,
}

impl Drop for FitClaim {
    fn drop(&mut self) {
        self.in_flight.complete(&self.key);
    }
}

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
    fn of(profile: &GraphProfile) -> Self {
        Self {
            nodes: profile.nodes,
            edges: profile.edges,
            triangles: profile.clustering.triangles,
            max_degree: profile.max_degree,
            avg_degree: profile.avg_degree,
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
    /// Utility of the release relative to the registered original (ε-free
    /// post-processing; also folded into the engine's [`EvalStore`]).
    pub utility: UtilityReport,
    /// The synthetic graph in the text interchange format, when requested.
    pub graph_text: Option<String>,
}

/// An admitted request: either cached parameters (ε-free) or a granted,
/// already-journaled ε spend that [`SynthesisEngine::run`] will consume.
#[derive(Debug)]
pub struct Admission {
    params: Option<Arc<LearnedParameters>>,
    epsilon_spent: f64,
    /// Present on cold admissions: the single-flight claim on this fit key,
    /// released when the fit is published (or the admission is dropped).
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
    cache: FitCache,
    evaluations: EvalStore,
    /// Original-side metric statistics per dataset, computed lazily on the
    /// first job and reused by every later one (the registry refuses
    /// re-registration with different data, so a profile can never go
    /// stale for a live name).
    profiles: Mutex<BTreeMap<String, Arc<GraphProfile>>>,
    in_flight: Arc<InFlight>,
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
            cache: FitCache::new(),
            evaluations: EvalStore::new(),
            profiles: Mutex::new(BTreeMap::new()),
            in_flight: Arc::new(InFlight::default()),
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

    /// The per-dataset utility store backing `GET /evaluate`.
    #[must_use]
    pub fn evaluations(&self) -> &EvalStore {
        &self.evaluations
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
        Ok(DatasetSummary {
            name: name.to_string(),
            nodes: arc.num_nodes(),
            edges: arc.num_edges(),
            attribute_width: arc.schema().width(),
            mapped: arc.is_mapped(),
        })
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
        // The stored utility is folded into `GET /evaluate` exactly like a
        // fit-cache replay of the same release would be.
        self.evaluations.record(&request.dataset, &release.utility);
        let graph_text = request.return_graph.then(|| io::to_text(&release.graph));
        Some(SynthesisOutcome {
            dataset: request.dataset.clone(),
            epsilon: request.epsilon,
            epsilon_spent: 0.0,
            cache_hit: true,
            stats: release.stats,
            utility: release.utility,
            graph_text,
        })
    }

    /// The request checks shared by [`SynthesisEngine::admit`] and
    /// [`SynthesisEngine::store_lookup`]: ε, iterations and threads in
    /// range, and the dataset registered (even on the cache-hit path).
    fn check_request(&self, request: &SynthesisRequest) -> Result<(), ServiceError> {
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
        self.registry.get(&request.dataset)?;
        Ok(())
    }

    /// Synchronous admission: cache lookup, or a journaled ledger spend.
    pub fn admit(&self, request: &SynthesisRequest) -> Result<Admission, ServiceError> {
        self.check_request(request)?;
        let key = request.fit_key();
        if let Some(params) = self.cache.get(&key) {
            self.telemetry.record_fit_cache(true);
            return Ok(Admission {
                params: Some(params),
                epsilon_spent: 0.0,
                _claim: None,
            });
        }
        // Single-flight: claim the key, or wait for the identical in-flight
        // fit to publish and ride it as a cache hit (spending nothing).
        let claim = self.claim_or_wait(&key);
        // Re-check the cache in every outcome: a fitter may have published
        // after our initial miss — while we waited, or even before we
        // claimed (fit published and claim released between our miss and the
        // claim). Without this, that race double-charges ε or 402s a request
        // the cache could serve for free. A fresh claim is simply dropped
        // (released) when the hit path wins.
        if let Some(params) = self.cache.get(&key) {
            self.telemetry.record_fit_cache(true);
            return Ok(Admission {
                params: Some(params),
                epsilon_spent: 0.0,
                _claim: None,
            });
        }
        self.ledger.spend(&request.dataset, request.epsilon)?;
        self.telemetry.record_fit_cache(false);
        Ok(Admission {
            params: None,
            epsilon_spent: request.epsilon,
            _claim: claim,
        })
    }

    /// Claims `key` for fitting, or waits (bounded) while another admission
    /// holds it. Returns `None` when the wait ended — either because the
    /// fitter finished (check the cache) or the wait timed out (fall through
    /// to an independent, possibly duplicate, spend: never hang admission).
    fn claim_or_wait(&self, key: &FitKey) -> Option<FitClaim> {
        let mut keys = self
            .in_flight
            .keys
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut waited = Duration::ZERO;
        loop {
            if !keys.contains(key) {
                keys.insert(key.clone());
                return Some(FitClaim {
                    in_flight: Arc::clone(&self.in_flight),
                    key: key.clone(),
                });
            }
            if waited >= IN_FLIGHT_MAX_WAIT {
                return None;
            }
            if waited == Duration::ZERO {
                // Counted once per admission that actually blocks, not per
                // wait slice.
                self.telemetry.record_single_flight_wait();
            }
            let (guard, _) = self
                .in_flight
                .done
                .wait_timeout(keys, IN_FLIGHT_WAIT_SLICE)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            keys = guard;
            waited += IN_FLIGHT_WAIT_SLICE;
            // The fitter may have published and released; if the cache now
            // holds the key the caller will take the hit path.
            if self.cache.peek(key).is_some() {
                return None;
            }
        }
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
        // The DP learners read the registered graph in place — owned words
        // or the `.agb` mapping — with no copy before edge truncation.
        let graph = self.registry.get(&request.dataset)?;
        let mut learn_rng = StdRng::seed_from_u64(request.seed);
        let params = Arc::new(
            learn_parameters(graph.as_ref(), &request.config(), &mut learn_rng)
                .map_err(|e| ServiceError::Synthesis(e.to_string()))?,
        );
        let key = request.fit_key();
        self.cache.insert(key.clone(), Arc::clone(&params));
        // Wake identical admissions as soon as the fit is published instead
        // of making them wait out the sampling step too (the claim's own
        // drop-release is idempotent with this).
        self.in_flight.complete(&key);
        Ok(params)
    }

    /// The cached original-side metric profile of a registered dataset,
    /// computed on first use.
    fn dataset_profile(&self, dataset: &str) -> Result<Arc<GraphProfile>, ServiceError> {
        if let Some(profile) = self
            .profiles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(dataset)
        {
            return Ok(Arc::clone(profile));
        }
        // Compute outside the lock (profiling a large graph is the expensive
        // part); a concurrent duplicate computation is harmless — profiles
        // of the same graph are identical, and the first insert wins. The
        // profile's whole-graph traversals run on the CSR arrays.
        let graph = self.registry.get(dataset)?;
        let profile = Arc::new(GraphProfile::of(graph.as_ref()));
        let mut profiles = self
            .profiles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(Arc::clone(
            profiles
                .entry(dataset.to_string())
                .or_insert_with(|| Arc::clone(&profile)),
        ))
    }

    /// Runs an admitted request: fit (cache miss only) + sample.
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
        let mut sample_rng = StdRng::seed_from_u64(request.seed ^ SAMPLING_SEED_SALT);
        let synthetic =
            synthesize_from_parameters_observed(&params, &config, &mut sample_rng, &timer)
                .map_err(|e| ServiceError::Synthesis(e.to_string()))?;
        // The release is now read-only: freeze it once and let the stats,
        // the utility scoring and the optional serialisation all traverse
        // the CSR snapshot (identical values, flat-array locality).
        timer.stage_start(SynthesisStage::Freeze);
        let frozen = synthetic.freeze();
        timer.stage_end(SynthesisStage::Freeze);
        // Profile the release once and score it against the original
        // (ε-free post-processing); the job's stats read the same profile.
        // The utility is folded into the per-dataset aggregate that
        // `GET /evaluate` reports. The original's profile is computed once
        // per dataset and cached, so repeat requests — in particular the
        // ε-free fit-cache hits — only pay for the synthetic side.
        timer.stage_start(SynthesisStage::Score);
        let original = self.dataset_profile(&request.dataset)?;
        let release = GraphProfile::of(&frozen);
        let utility = UtilityReport::between(&original, &release);
        self.evaluations.record(&request.dataset, &utility);
        let stats = GraphStats::of(&release);
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
            let result = store.insert(request, &artifact, &stats, &utility);
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
            utility,
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
    fn every_run_records_utility_for_get_evaluate() {
        let engine = engine_with_toy(10.0);
        assert!(engine.evaluations().is_empty());
        let request = SynthesisRequest::new("toy", 1.0, 1);
        let cold = engine.synthesize(&request).unwrap();
        assert!(cold.utility.ks_degree <= 1.0);
        // The cached replay releases the identical graph and records too.
        let hot = engine.synthesize(&request).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(hot.utility, cold.utility);
        let summaries = engine.evaluations().summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].0, "toy");
        assert_eq!(summaries[0].1.runs, 2);
        assert_eq!(summaries[0].1.mean, cold.utility);
        // Identical releases have zero spread.
        assert_eq!(summaries[0].1.stddev, UtilityReport::default());
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
    }
}
