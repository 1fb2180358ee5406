//! The HTTP server front end: one reactor thread running a nonblocking
//! readiness loop ([`crate::reactor`]) with per-connection HTTP/1.1
//! keep-alive state machines ([`crate::conn`]), a bounded job queue into a
//! fixed worker pool, explicit load shedding (`429`/`503` + `Retry-After`),
//! and per-connection read/write/idle deadlines. The reactor needs epoll, so
//! [`start`] fails with a typed error on other targets.
//!
//! Endpoints:
//!
//! | Method & path        | Purpose |
//! |----------------------|---------|
//! | `GET /healthz`       | liveness + cache counters |
//! | `GET /datasets`      | registered datasets with budget states |
//! | `POST /datasets`     | register a graph + total ε budget |
//! | `POST /synthesize`   | admit (budget/cache) and enqueue a job |
//! | `GET /jobs/:id`      | poll an enqueued job |
//! | `GET /budget/:name`  | one dataset's ledger state |
//! | `GET /metrics`       | Prometheus text exposition of every metric family |

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::StructuralModelKind;
use agmdp_graph::io;
use agmdp_obs::TraceSink;

use crate::conn::ConnTimeouts;
use crate::engine::{SynthesisEngine, SynthesisOutcome, SynthesisRequest};
use crate::error::ServiceError;
use crate::http::{HttpLimits, Request, Response};
use crate::jobs::{JobState, JobStore};
use crate::json;
use crate::ledger::{BudgetLedger, BudgetStatus};
use crate::ratelimit::TokenBuckets;
use crate::reactor::{Completions, HttpJob, Reactor, ReactorConfig, Waker};
use crate::registry::DatasetSummary;
use crate::store::ReleaseStore;
use crate::telemetry::{FrontendStats, Telemetry};

/// Concurrent synthesis jobs allowed per HTTP worker thread. Admission is
/// cheap, but each job runs a full fit + sample; without a cap a client
/// replaying one cached (ε-free) request could spawn unbounded work.
const JOBS_PER_WORKER: usize = 4;

/// Server configuration (mirrors the `agmdp serve` flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Number of HTTP worker threads.
    pub threads: usize,
    /// Journal path for the persistent budget ledger; `None` keeps budgets
    /// in memory only.
    pub ledger_path: Option<PathBuf>,
    /// Suppresses the per-request access log and span lines on stderr.
    /// Metrics at `GET /metrics` are collected either way.
    pub quiet: bool,
    /// Open-connection cap; excess accepts get a canned
    /// `503` and are closed (`--max-conns`).
    pub max_conns: usize,
    /// Bound on the reactor→worker job queue; overflow requests get
    /// `503` + `Retry-After` (`--queue-depth`).
    pub queue_depth: usize,
    /// Per-dataset `/synthesize` admission rate in requests/second;
    /// `None` disables the token-bucket layer (`--rate-limit`).
    pub rate_limit: Option<f64>,
    /// Request-head size cap; larger heads get `431`.
    pub max_head_bytes: usize,
    /// Request-body size cap, enforced from the declared `Content-Length`
    /// before any allocation; larger bodies get `413` (`--max-body-bytes`).
    pub max_body_bytes: usize,
    /// Absolute deadline for receiving one complete request (slowloris
    /// defense; `408` then close).
    pub read_timeout: Duration,
    /// Absolute deadline for draining a response to a slow reader.
    pub write_timeout: Duration,
    /// How long an idle keep-alive connection is retained.
    pub idle_timeout: Duration,
    /// Kernel send-buffer override for accepted sockets; used by the
    /// fault-injection tests to make write-stalls deterministic.
    pub send_buffer_bytes: Option<usize>,
    /// Enables `GET /__debug/sleep/:ms` and `GET /__debug/payload/:bytes`
    /// (fault-injection only; never enable in production).
    pub debug_endpoints: bool,
    /// Directory of the content-addressed `.agb` release store
    /// (`--release-store`). When set, every completed job writes its
    /// released graph there and repeat `/synthesize` requests for an
    /// existing key are served from disk — no job, no ε — across restarts.
    /// `None` disables the store.
    pub release_store: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 4,
            ledger_path: None,
            quiet: false,
            max_conns: 1024,
            queue_depth: 256,
            rate_limit: None,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            send_buffer_bytes: None,
            debug_endpoints: false,
            release_store: None,
        }
    }
}

/// Handle to a running server; stops (and joins) on [`ServerHandle::stop`] or
/// drop.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    waker: Waker,
    engine: Arc<SynthesisEngine>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the server (registry, ledger, cache).
    #[must_use]
    pub fn engine(&self) -> &Arc<SynthesisEngine> {
        &self.engine
    }

    /// Signals shutdown and joins every server thread. In-flight requests
    /// finish; queued jobs already spawned keep running detached.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Blocks until every server thread exits (i.e. forever, absent a
    /// signal) — the foreground `agmdp serve` path.
    pub fn wait(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    fn stop_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the reactor out of its poll; it drops the job queue on the
        // way out, which ends every worker loop.
        self.waker.wake();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Binds the listener, builds the engine (opening the ledger journal when a
/// path is configured) and starts the reactor and worker threads.
pub fn start(config: &ServiceConfig) -> Result<ServerHandle, ServiceError> {
    let ledger = match &config.ledger_path {
        Some(path) => BudgetLedger::open(path)?,
        None => BudgetLedger::in_memory(),
    };
    let sink = if config.quiet {
        TraceSink::disabled()
    } else {
        TraceSink::stderr()
    };
    let telemetry = Arc::new(Telemetry::new(sink));
    start_with_engine(config, SynthesisEngine::with_telemetry(ledger, telemetry))
}

/// [`start`] with a pre-built engine (tests pre-register datasets this way).
pub fn start_with_engine(
    config: &ServiceConfig,
    mut engine: SynthesisEngine,
) -> Result<ServerHandle, ServiceError> {
    // Attach the release store unless the pre-built engine already carries
    // one (tests that inject a store keep theirs).
    if let Some(dir) = &config.release_store {
        if engine.release_store().is_none() {
            engine.set_release_store(ReleaseStore::open(dir.clone())?);
        }
    }
    if config.threads == 0 || config.threads > 1024 {
        return Err(ServiceError::InvalidRequest(
            "threads must be in 1..=1024".to_string(),
        ));
    }
    if config.max_conns == 0 || config.queue_depth == 0 {
        return Err(ServiceError::InvalidRequest(
            "max_conns and queue_depth must be at least 1".to_string(),
        ));
    }
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServiceError::InvalidRequest(format!("bind {}: {e}", config.addr)))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| ServiceError::InvalidRequest(format!("local_addr: {e}")))?;

    let engine = Arc::new(engine);
    let state = Arc::new(ServerState {
        engine: Arc::clone(&engine),
        jobs: JobStore::new(),
        active_jobs: AtomicUsize::new(0),
        max_jobs: config.threads.saturating_mul(JOBS_PER_WORKER),
        rate_limits: config
            .rate_limit
            .map(|rate| TokenBuckets::new(rate, rate.max(1.0))),
        debug_endpoints: config.debug_endpoints,
        frontend: Arc::new(FrontendStats::default()),
    });
    let shutdown = Arc::new(AtomicBool::new(false));

    // Reactor thread + worker pool over a bounded queue.
    let (job_tx, job_rx) = mpsc::sync_channel::<HttpJob>(config.queue_depth);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let completions: Completions = Arc::new(Mutex::new(VecDeque::new()));
    let reactor_config = ReactorConfig {
        max_conns: config.max_conns,
        timeouts: ConnTimeouts {
            read: config.read_timeout,
            write: config.write_timeout,
            idle: config.idle_timeout,
        },
        limits: HttpLimits {
            max_head_bytes: config.max_head_bytes,
            max_body_bytes: config.max_body_bytes,
        },
        send_buffer_bytes: config.send_buffer_bytes,
    };
    let (reactor, waker) = Reactor::new(
        listener,
        reactor_config,
        job_tx,
        Arc::clone(&completions),
        Arc::clone(&shutdown),
        Arc::clone(engine.telemetry()),
        Arc::clone(&state.frontend),
    )
    .map_err(|e| ServiceError::InvalidRequest(format!("reactor init: {e}")))?;

    let mut threads = Vec::with_capacity(config.threads + 1);
    threads.push(
        std::thread::Builder::new()
            .name("agmdp-reactor".to_string())
            .spawn(move || reactor.run())
            .map_err(|e| ServiceError::InvalidRequest(format!("spawn reactor: {e}")))?,
    );
    for i in 0..config.threads {
        let job_rx = Arc::clone(&job_rx);
        let completions = Arc::clone(&completions);
        let state = Arc::clone(&state);
        let waker = waker.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("agmdp-http-{i}"))
                .spawn(move || event_worker_loop(&job_rx, &completions, &waker, &state))
                .map_err(|e| ServiceError::InvalidRequest(format!("spawn worker: {e}")))?,
        );
    }

    Ok(ServerHandle {
        local_addr,
        shutdown,
        threads,
        waker,
        engine,
    })
}

fn event_worker_loop(
    job_rx: &Arc<Mutex<mpsc::Receiver<HttpJob>>>,
    completions: &Completions,
    waker: &Waker,
    state: &Arc<ServerState>,
) {
    loop {
        let job = {
            // A panic elsewhere must not wedge the whole worker pool: take
            // the queue even if a previous holder poisoned the lock.
            let guard = job_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else {
            return; // channel closed: reactor exited
        };
        let response = handle_request(state, &job.request);
        if let Ok(mut queue) = completions.lock() {
            queue.push_back((job.token, response));
        }
        waker.wake();
    }
}

/// Shared per-server state handed to every HTTP worker.
struct ServerState {
    engine: Arc<SynthesisEngine>,
    jobs: JobStore,
    /// Synthesis jobs currently queued or running.
    active_jobs: AtomicUsize,
    /// Cap on `active_jobs`; further `/synthesize` requests get a 503
    /// *before* admission (so no ε is drawn for refused work).
    max_jobs: usize,
    /// Per-dataset token buckets for `/synthesize`; `None` when disabled.
    rate_limits: Option<TokenBuckets>,
    /// Fault-injection routes enabled (`/__debug/…`).
    debug_endpoints: bool,
    /// Live connection/queue occupancy (reactor writes, `/metrics` reads).
    frontend: Arc<FrontendStats>,
}

/// RAII token for one slot of the synthesis-job cap; owns the state so it can
/// travel into the job thread and release on any exit path.
struct JobSlot {
    state: Arc<ServerState>,
}

impl ServerState {
    fn try_acquire_job_slot(self: &Arc<Self>) -> Option<JobSlot> {
        let mut current = self.active_jobs.load(Ordering::SeqCst);
        loop {
            if current >= self.max_jobs {
                return None;
            }
            match self.active_jobs.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Some(JobSlot {
                        state: Arc::clone(self),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for JobSlot {
    fn drop(&mut self) {
        self.state.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Routes one parsed request, recording its count and latency into the
/// metrics registry and (when tracing is enabled) one JSON access-log line.
fn handle_request(state: &Arc<ServerState>, request: &Request) -> Response {
    let telemetry = state.engine.telemetry();
    let request_id = telemetry.next_request_id();
    let started = Instant::now();
    let response = route(state, request);
    let seconds = started.elapsed().as_secs_f64();
    telemetry.record_request(
        endpoint_label(&request.path),
        &request.method,
        response.status,
        seconds,
    );
    telemetry
        .sink()
        .event("request")
        .u64("id", request_id)
        .str("method", &request.method)
        .str("path", &request.path)
        .u64("status", u64::from(response.status))
        .f64("secs", seconds)
        .emit();
    response
}

/// Collapses a request target onto its route pattern so metric labels stay
/// low-cardinality: job ids and dataset names never become label values.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/datasets" => "/datasets",
        "/synthesize" => "/synthesize",
        "/metrics" => "/metrics",
        _ if path.starts_with("/jobs/") => "/jobs/:id",
        _ if path.starts_with("/budget/") => "/budget/:name",
        _ if path.starts_with("/__debug/") => "/__debug",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// Routing and handlers
// ---------------------------------------------------------------------------

fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    let engine = &state.engine;
    let jobs = &state.jobs;
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(engine),
        ("GET", "/datasets") => handle_list_datasets(engine),
        ("POST", "/datasets") => {
            handle_register_dataset(engine, &request.body).unwrap_or_else(std::convert::identity)
        }
        ("POST", "/synthesize") => handle_synthesize(state, &request.body),
        ("GET", "/metrics") => handle_metrics(state),
        ("GET", _) if path.starts_with("/jobs/") => {
            handle_job(jobs, path.strip_prefix("/jobs/").unwrap_or_default())
        }
        ("GET", _) if path.starts_with("/budget/") => {
            handle_budget(engine, path.strip_prefix("/budget/").unwrap_or_default())
        }
        ("GET", _) if path.starts_with("/__debug/") => handle_debug(state, path),
        (_, "/healthz" | "/datasets" | "/synthesize" | "/metrics") => {
            Response::error(405, "method_not_allowed", "method not allowed")
        }
        (_, _) if path.starts_with("/jobs/") || path.starts_with("/budget/") => {
            Response::error(405, "method_not_allowed", "method not allowed")
        }
        _ => not_found(path),
    }
}

fn handle_healthz(engine: &Arc<SynthesisEngine>) -> Response {
    let (hits, misses) = engine.telemetry().fit_cache_counts();
    let health = obj(vec![
        ("status", Value::Str("ok".into())),
        ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
        (
            "datasets",
            Value::UInt(engine.registry().summaries().len() as u64),
        ),
        (
            "cache",
            obj(vec![
                ("entries", Value::UInt(engine.cache().len() as u64)),
                ("hits", Value::UInt(hits)),
                ("misses", Value::UInt(misses)),
            ]),
        ),
    ]);
    Response::json_value(200, &health)
}

/// `GET /__debug/sleep/:ms` and `GET /__debug/payload/:bytes`: fault
/// injection for the overload tests. Behind [`ServiceConfig::debug_endpoints`]
/// (they are indistinguishable from 404s when disabled, so the flag leaks
/// nothing).
fn handle_debug(state: &Arc<ServerState>, path: &str) -> Response {
    if !state.debug_endpoints {
        return not_found(path);
    }
    if let Some(ms_text) = path.strip_prefix("/__debug/sleep/") {
        let Ok(ms) = ms_text.parse::<u64>() else {
            return invalid("sleep duration must be an integer");
        };
        let ms = ms.min(10_000);
        std::thread::sleep(Duration::from_millis(ms));
        return Response::json_value(200, &obj(vec![("slept_ms", Value::UInt(ms))]));
    }
    if let Some(bytes_text) = path.strip_prefix("/__debug/payload/") {
        let Ok(bytes) = bytes_text.parse::<usize>() else {
            return invalid("payload size must be an integer");
        };
        let bytes = bytes.min(8 * 1024 * 1024);
        return Response::text(200, "x".repeat(bytes));
    }
    not_found(path)
}

fn handle_list_datasets(engine: &Arc<SynthesisEngine>) -> Response {
    // One ledger-lock acquisition for the whole listing.
    let budgets: std::collections::BTreeMap<_, _> =
        engine.ledger().statuses().into_iter().collect();
    let datasets: Vec<Value> = engine
        .registry()
        .summaries()
        .iter()
        .map(|summary| dataset_value(summary, budgets.get(&summary.name).copied()))
        .collect();
    Response::json_value(200, &obj(vec![("datasets", Value::Array(datasets))]))
}

/// The reply when a registration names no graph source, or both.
const ONE_GRAPH_SOURCE: &str =
    "exactly one of 'graph' (inline text) or 'path' (server file) is required";

fn handle_register_dataset(
    engine: &Arc<SynthesisEngine>,
    body: &[u8],
) -> Result<Response, Response> {
    let fields = Fields::parse(body, &["name", "budget", "graph", "path"])?;
    let name = fields.required("name", json::as_str, "'name' (string) is required")?;
    let budget = fields.required("budget", json::as_f64, "'budget' (number) is required")?;
    let inline = fields.optional("graph", json::as_str, ONE_GRAPH_SOURCE)?;
    let path = fields.optional("path", json::as_str, ONE_GRAPH_SOURCE)?;
    // A server-side file loads in either interchange format, auto-detected
    // from the leading bytes: binary `.agb` files are **memory-mapped** (the
    // full-validation tier — checksum and structure — since the path may
    // point anywhere the operator can read) so registration cost is
    // independent of graph size; text files parse as before.
    let graph = match (inline, path) {
        (Some(text), None) => io::from_text(text)
            .map_err(|e| invalid(&format!("bad graph: {e}")))?
            .freeze(),
        // One message for every failure. Parse errors quote tokens of the
        // file, and OS errors tell a missing file from an unreadable one, so
        // echoing either would let a remote client probe the server's files.
        (None, Some(path)) => io::load_frozen_file(path)
            .map_err(|_| invalid(&format!("cannot load '{path}' as a graph file")))?,
        _ => return Err(invalid(ONE_GRAPH_SOURCE)),
    };
    let summary = engine
        .register_frozen_dataset(name, graph, budget)
        .map_err(|e| service_error(&e))?;
    let budget = engine.ledger().status(name);
    Ok(Response::json_value(201, &dataset_value(&summary, budget)))
}

fn handle_synthesize(state: &Arc<ServerState>, body: &[u8]) -> Response {
    let request = match parse_synthesize_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    // Rate limiting is the outermost shed layer: a tenant hammering the
    // endpoint burns 429s before touching job slots or the ε ledger. Only a
    // request the engine would admit gets a bucket, so a flood of unknown
    // dataset names cannot grow the bucket table.
    if let Some(buckets) = &state.rate_limits {
        if let Err(e) = state.engine.check_request(&request) {
            return service_error(&e);
        }
        if let Err(retry_after) = buckets.try_take(&request.dataset, Instant::now()) {
            state.engine.telemetry().record_shed("rate_limit");
            return Response::error(
                429,
                "rate_limited",
                &format!(
                    "dataset '{}' exceeded its request rate; retry in {retry_after}s",
                    request.dataset
                ),
            )
            .with_retry_after(retry_after);
        }
    }
    // Release-store hit: the identical release already sits on disk, so it
    // is re-served directly — no job slot, no fit, no ε (post-processing
    // invariance). The job record is created pre-completed so the polling
    // protocol is unchanged for clients.
    if let Some(outcome) = state.engine.store_lookup(&request) {
        let job_id = state.jobs.create();
        let epsilon_spent = outcome.epsilon_spent;
        state.jobs.set(job_id, JobState::Completed(outcome.into()));
        let accepted = obj(vec![
            ("job_id", Value::UInt(job_id)),
            ("cache_hit", Value::Bool(true)),
            ("store_hit", Value::Bool(true)),
            ("epsilon_spent", Value::Float(epsilon_spent)),
        ]);
        return Response::json_value(202, &accepted);
    }
    // Acquire a job slot *before* admission: a refused request must not have
    // drawn ε, and the slot cap keeps a flood of (ε-free) cache hits from
    // spawning unbounded background work.
    let Some(slot) = state.try_acquire_job_slot() else {
        state.engine.telemetry().record_shed("job_slots");
        return Response::error(
            503,
            "overloaded",
            &format!(
                "{} synthesis jobs already in flight; retry later",
                state.max_jobs
            ),
        )
        .with_retry_after(1);
    };
    // Synchronous admission: over-budget requests are refused here, before
    // any learning runs (402), and never create a job.
    let admission = match state.engine.admit(&request) {
        Ok(a) => a,
        Err(e) => return service_error(&e), // slot released by drop
    };
    let job_id = state.jobs.create();
    let cache_hit = admission.cache_hit();
    let epsilon_spent = admission.epsilon_spent();
    let spawned = std::thread::Builder::new()
        .name(format!("agmdp-job-{job_id}"))
        .spawn(move || {
            // `slot` lives for the whole job; dropping it (including on
            // completion, failure or panic) frees the concurrency slot.
            let state = Arc::clone(&slot.state);
            state.jobs.set(job_id, JobState::Running);
            // A panic in the pipeline must still land the job in a terminal
            // state — live jobs are never evicted and clients poll them.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.engine.run(&request, admission)
            }));
            // The outcome counter ticks before the job flips to its terminal
            // state, so a client that saw the job finish also sees it counted.
            match run {
                Ok(Ok(outcome)) => {
                    state.engine.telemetry().record_job_outcome(true);
                    state.jobs.set(job_id, JobState::Completed(outcome.into()));
                }
                Ok(Err(e)) => {
                    state.engine.telemetry().record_job_outcome(false);
                    state.jobs.set(job_id, JobState::Failed(e.to_string()));
                }
                Err(panic) => {
                    let what = panic
                        .downcast_ref::<&str>()
                        .map(ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "synthesis panicked".to_string());
                    state.engine.telemetry().record_job_outcome(false);
                    state
                        .jobs
                        .set(job_id, JobState::Failed(format!("panic: {what}")));
                }
            }
        });
    if let Err(e) = spawned {
        // The admission's ε is already journaled; record the failure on the
        // job so the spend stays traceable, and tell the client which job to
        // look at.
        state.engine.telemetry().record_job_outcome(false);
        state
            .jobs
            .set(job_id, JobState::Failed(format!("spawn failed: {e}")));
        let refusal = obj(vec![
            ("error", Value::Str("overloaded".into())),
            (
                "message",
                Value::Str("could not spawn synthesis job".into()),
            ),
            ("job_id", Value::UInt(job_id)),
            ("epsilon_spent", Value::Float(epsilon_spent)),
        ]);
        return Response::json_value(503, &refusal);
    }
    let accepted = obj(vec![
        ("job_id", Value::UInt(job_id)),
        ("cache_hit", Value::Bool(cache_hit)),
        ("epsilon_spent", Value::Float(epsilon_spent)),
    ]);
    Response::json_value(202, &accepted)
}

fn handle_job(jobs: &JobStore, id_text: &str) -> Response {
    let Ok(id) = id_text.parse::<u64>() else {
        return invalid("job id must be an integer");
    };
    let Some(state) = jobs.get(id) else {
        return Response::error(404, "not_found", &format!("unknown job {id}"));
    };
    let mut entries = vec![
        ("id", Value::UInt(id)),
        ("status", Value::Str(state.status().into())),
    ];
    match state {
        JobState::Completed(outcome) => entries.push(("result", outcome_value(&outcome))),
        JobState::Failed(message) => entries.push(("error", Value::Str(message))),
        JobState::Queued | JobState::Running => {}
    }
    Response::json_value(200, &obj(entries))
}

/// `GET /metrics`: the Prometheus text exposition. Live counters and
/// histograms accumulate on the request path; point-in-time state (ledger
/// balances, queue depth, slot occupancy, cache size, open connections) is
/// refreshed into gauges here, at scrape time, so there is exactly one
/// renderer.
fn handle_metrics(state: &Arc<ServerState>) -> Response {
    let engine = &state.engine;
    let metrics = engine.telemetry().metrics();
    for (dataset, status) in engine.ledger().statuses() {
        let labels: &[(&str, &str)] = &[("dataset", dataset.as_str())];
        for (name, help, value) in [
            (
                "agmdp_epsilon_total",
                "Registered \u{3b5} budget, per dataset.",
                status.total,
            ),
            (
                "agmdp_epsilon_spent",
                "Cumulative \u{3b5} drawn from the ledger, per dataset.",
                status.spent,
            ),
            (
                "agmdp_epsilon_remaining",
                "\u{3b5} still available in the ledger, per dataset.",
                status.remaining,
            ),
        ] {
            metrics.gauge(name, help, labels).set(value);
        }
    }
    let (queued, running) = state.jobs.live_counts();
    let mut gauges = vec![
        (
            "agmdp_jobs_queued",
            "Synthesis jobs admitted but not yet running.",
            queued as f64,
        ),
        (
            "agmdp_jobs_running",
            "Synthesis jobs currently fitting or sampling.",
            running as f64,
        ),
        (
            "agmdp_job_slots_in_use",
            "Concurrency slots currently held by synthesis jobs.",
            state.active_jobs.load(Ordering::SeqCst) as f64,
        ),
        (
            "agmdp_job_slots_max",
            "Concurrency slot cap (worker threads \u{d7} jobs per worker).",
            state.max_jobs as f64,
        ),
        (
            "agmdp_fit_cache_entries",
            "Fitted-parameter cache entries currently resident.",
            engine.cache().len() as f64,
        ),
        (
            "agmdp_open_connections",
            "Connections currently registered with the reactor.",
            state.frontend.open_conns() as f64,
        ),
        (
            "agmdp_http_queue_depth",
            "Requests currently queued for or being handled by HTTP workers.",
            state.frontend.queued_jobs() as f64,
        ),
    ];
    if let Some(store) = engine.release_store() {
        let occupancy = store.stats();
        gauges.push((
            "agmdp_release_store_size_bytes",
            "Total bytes of .agb artifacts in the release store.",
            occupancy.bytes as f64,
        ));
        gauges.push((
            "agmdp_release_store_releases",
            "Committed releases in the store.",
            occupancy.releases as f64,
        ));
    }
    for (name, help, value) in gauges {
        metrics.gauge(name, help, &[]).set(value);
    }
    Response::metrics_text(200, metrics.render())
}

/// `GET /budget/:name`: `{"dataset": name}` followed by the ledger state's
/// own fields.
fn handle_budget(engine: &Arc<SynthesisEngine>, name: &str) -> Response {
    let Some(status) = engine.ledger().status(name) else {
        return Response::error(404, "not_found", &format!("unknown dataset '{name}'"));
    };
    let mut entries = vec![("dataset".to_string(), Value::Str(name.to_string()))];
    if let Value::Object(own) = status.to_json_value() {
        entries.extend(own);
    }
    Response::json_value(200, &Value::Object(entries))
}

// ---------------------------------------------------------------------------
// Body parsing
// ---------------------------------------------------------------------------

/// The fields of a JSON-object request body: the one way a handler reads
/// what a client sent. Each read names the `400 invalid_request` message a
/// missing or mistyped field gets.
struct Fields(Vec<(String, Value)>);

impl Fields {
    /// Parses `body` as UTF-8 JSON holding one object whose keys are all in
    /// `allowed`.
    fn parse(body: &[u8], allowed: &[&str]) -> Result<Self, Response> {
        let text = std::str::from_utf8(body).map_err(|_| invalid("body must be UTF-8 JSON"))?;
        let Value::Object(entries) = json::parse(text).map_err(|e| invalid(&e.to_string()))? else {
            return Err(invalid("body must be a JSON object"));
        };
        if let Some((key, _)) = entries
            .iter()
            .find(|(key, _)| !allowed.contains(&key.as_str()))
        {
            return Err(invalid(&format!(
                "unknown field '{key}' (allowed: {})",
                allowed.join(", ")
            )));
        }
        Ok(Self(entries))
    }

    /// The field `key` as `read` converts it; absent or unconvertible gets
    /// `message`.
    fn required<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
        message: &str,
    ) -> Result<T, Response> {
        self.optional(key, read, message)?
            .ok_or_else(|| invalid(message))
    }

    /// The field `key` as `read` converts it, `None` when absent; present
    /// but unconvertible gets `message`.
    fn optional<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
        message: &str,
    ) -> Result<Option<T>, Response> {
        match self.0.iter().find(|(name, _)| name == key) {
            None => Ok(None),
            Some((_, value)) => read(value).map(Some).ok_or_else(|| invalid(message)),
        }
    }
}

/// The seed of a `/synthesize` request that names none.
const DEFAULT_SEED: u64 = 2016;

/// Reads a `/synthesize` body over [`SynthesisRequest::new`]'s defaults. The
/// first bad field in the order read here is the one reported.
fn parse_synthesize_body(body: &[u8]) -> Result<SynthesisRequest, Response> {
    let fields = Fields::parse(
        body,
        &[
            "dataset",
            "epsilon",
            "model",
            "method",
            "k",
            "delta",
            "seed",
            "iterations",
            "return_graph",
            "threads",
        ],
    )?;
    let dataset = fields.required("dataset", json::as_str, "'dataset' (string) is required")?;
    let epsilon = fields.required("epsilon", json::as_f64, "'epsilon' (number) is required")?;
    let mut request = SynthesisRequest::new(dataset, epsilon, DEFAULT_SEED);
    if let Some(name) = fields.optional("model", json::as_str, "'model' must be a string")? {
        request.model = StructuralModelKind::parse(name).map_err(|e| invalid(&e))?;
    }
    let k = fields.optional("k", as_usize, "'k' must be a non-negative integer")?;
    let delta = fields.optional("delta", json::as_f64, "'delta' must be a number")?;
    let method = fields.optional("method", json::as_str, "'method' must be a string")?;
    request.method =
        CorrelationMethod::from_parts(method.unwrap_or("truncation"), k, delta.unwrap_or(1e-6))
            .map_err(|e| invalid(&e))?;
    request.seed = fields
        .optional(
            "seed",
            json::as_u64,
            "'seed' must be a non-negative integer",
        )?
        .unwrap_or(request.seed);
    request.refinement_iterations = fields
        .optional(
            "iterations",
            as_usize,
            "'iterations' must be a positive integer",
        )?
        .unwrap_or(request.refinement_iterations);
    request.return_graph = fields
        .optional(
            "return_graph",
            json::as_bool,
            "'return_graph' must be a boolean",
        )?
        .unwrap_or(request.return_graph);
    request.threads = fields
        .optional("threads", as_usize, "'threads' must be a positive integer")?
        .unwrap_or(request.threads);
    Ok(request)
}

fn as_usize(value: &Value) -> Option<usize> {
    json::as_u64(value).map(|n| n as usize)
}

// ---------------------------------------------------------------------------
// JSON response construction
// ---------------------------------------------------------------------------

fn obj(entries: Vec<(&'static str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A dataset object of `GET /datasets` and `POST /datasets`: the summary's
/// fields, then its ledger state under `budget`.
fn dataset_value(summary: &DatasetSummary, budget: Option<BudgetStatus>) -> Value {
    let mut value = summary.to_json_value();
    if let (Value::Object(entries), Some(budget)) = (&mut value, budget) {
        entries.push(("budget".to_string(), budget.to_json_value()));
    }
    value
}

fn outcome_value(outcome: &SynthesisOutcome) -> Value {
    let mut entries = vec![
        ("dataset", Value::Str(outcome.dataset.clone())),
        ("epsilon", Value::Float(outcome.epsilon)),
        ("epsilon_spent", Value::Float(outcome.epsilon_spent)),
        ("cache_hit", Value::Bool(outcome.cache_hit)),
        ("stats", outcome.stats.to_json_value()),
    ];
    if let Some(text) = &outcome.graph_text {
        entries.push(("graph", Value::Str(text.clone())));
    }
    obj(entries)
}

fn invalid(message: &str) -> Response {
    Response::error(400, "invalid_request", message)
}

fn not_found(path: &str) -> Response {
    Response::error(404, "not_found", &format!("no route for {path}"))
}

fn service_error(error: &ServiceError) -> Response {
    Response::error(error.http_status(), error.kind(), &error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::toy_social_graph;

    fn test_state_with(engine: SynthesisEngine, max_jobs: usize) -> Arc<ServerState> {
        Arc::new(ServerState {
            engine: Arc::new(engine),
            jobs: JobStore::new(),
            active_jobs: AtomicUsize::new(0),
            max_jobs,
            rate_limits: None,
            debug_endpoints: false,
            frontend: Arc::new(FrontendStats::default()),
        })
    }

    fn test_state() -> Arc<ServerState> {
        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        engine
            .register_dataset("toy", toy_social_graph(), 10.0)
            .unwrap();
        test_state_with(engine, 16)
    }

    fn get(state: &Arc<ServerState>, path: &str) -> Response {
        route(
            state,
            &Request {
                method: "GET".into(),
                path: path.into(),
                body: Vec::new(),
            },
        )
    }

    fn post(state: &Arc<ServerState>, path: &str, body: &str) -> Response {
        route(
            state,
            &Request {
                method: "POST".into(),
                path: path.into(),
                body: body.as_bytes().to_vec(),
            },
        )
    }

    fn wait_for_job(state: &Arc<ServerState>, id: u64) -> JobState {
        for _ in 0..600 {
            match state.jobs.get(id).expect("job exists") {
                JobState::Queued | JobState::Running => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                done => return done,
            }
        }
        panic!("job {id} did not finish");
    }

    #[test]
    fn healthz_and_datasets_routes() {
        let state = test_state();
        let health = get(&state, "/healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""));
        let list = get(&state, "/datasets");
        assert_eq!(list.status, 200);
        assert!(list.body.contains("\"toy\""));
        assert!(list.body.contains("\"total\":10.0"));
    }

    #[test]
    fn synthesize_job_round_trip() {
        let state = test_state();
        let accepted = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#,
        );
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        assert!(accepted.body.contains("\"cache_hit\":false"));
        let parsed = json::parse(&accepted.body).unwrap();
        let id = json::as_u64(json::get(&parsed, "job_id").unwrap()).unwrap();
        match wait_for_job(&state, id) {
            JobState::Completed(outcome) => {
                assert_eq!(outcome.dataset, "toy");
                assert!(outcome.stats.edges > 0);
            }
            other => panic!("job failed: {other:?}"),
        }
        let job = get(&state, &format!("/jobs/{id}"));
        assert_eq!(job.status, 200);
        assert!(job.body.contains("\"status\":\"completed\""));
        let budget = get(&state, "/budget/toy");
        assert_eq!(budget.status, 200);
        assert!(budget.body.contains("\"spent\":0.5"));
        // The finished job releases its concurrency slot (the release happens
        // just after the state flips to completed, so poll briefly).
        for _ in 0..200 {
            if state.active_jobs.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.active_jobs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn synthesize_accepts_and_validates_threads() {
        let state = test_state();
        let accepted = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1,"threads":4}"#,
        );
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let parsed = json::parse(&accepted.body).unwrap();
        let id = json::as_u64(json::get(&parsed, "job_id").unwrap()).unwrap();
        assert!(matches!(wait_for_job(&state, id), JobState::Completed(_)));

        // threads = 0 and a non-integer are refused before any ε is drawn.
        let spent_before = state.engine.ledger().status("toy").unwrap().spent;
        let zero = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":2,"threads":0}"#,
        );
        assert_eq!(zero.status, 400, "{}", zero.body);
        let not_int = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":2,"threads":"all"}"#,
        );
        assert_eq!(not_int.status, 400, "{}", not_int.body);
        let spent_after = state.engine.ledger().status("toy").unwrap().spent;
        assert_eq!(spent_before, spent_after);
    }

    #[test]
    fn metrics_route_renders_gauges_and_request_counters() {
        let state = test_state();
        // Through handle_request so the request counter and latency tick.
        let health = handle_request(
            &state,
            &Request {
                method: "GET".into(),
                path: "/healthz".into(),
                body: Vec::new(),
            },
        );
        assert_eq!(health.status, 200);
        let metrics = get(&state, "/metrics");
        assert_eq!(metrics.status, 200);
        assert!(
            metrics.body.contains(
                "agmdp_requests_total{endpoint=\"/healthz\",method=\"GET\",status=\"200\"} 1"
            ),
            "{}",
            metrics.body
        );
        assert!(metrics
            .body
            .contains("agmdp_request_duration_seconds_count{endpoint=\"/healthz\"} 1"));
        assert!(metrics
            .body
            .contains("agmdp_epsilon_total{dataset=\"toy\"} 10"));
        assert!(metrics
            .body
            .contains("agmdp_epsilon_remaining{dataset=\"toy\"} 10"));
        assert!(metrics.body.contains("agmdp_job_slots_max 16"));
        assert!(metrics.body.contains("agmdp_fit_cache_entries 0"));
        assert!(metrics.body.contains("agmdp_open_connections 0"));
        assert!(metrics.body.contains("agmdp_http_queue_depth 0"));
        // The exposition goes out as Prometheus text, not JSON.
        assert!(metrics.content_type.starts_with("text/plain"));
        // Wrong method gets a 405 like the other fixed routes.
        let wrong = route(
            &state,
            &Request {
                method: "POST".into(),
                path: "/metrics".into(),
                body: Vec::new(),
            },
        );
        assert_eq!(wrong.status, 405);
    }

    #[test]
    fn endpoint_labels_collapse_dynamic_segments() {
        assert_eq!(endpoint_label("/jobs/42"), "/jobs/:id");
        assert_eq!(endpoint_label("/budget/lastfm"), "/budget/:name");
        assert_eq!(endpoint_label("/metrics"), "/metrics");
        assert_eq!(endpoint_label("/__debug/sleep/50"), "/__debug");
        assert_eq!(endpoint_label("/something-else"), "unknown");
    }

    #[test]
    fn bad_requests_get_helpful_errors() {
        let state = test_state();
        assert_eq!(post(&state, "/synthesize", "not json").status, 400);
        assert_eq!(post(&state, "/synthesize", "[1,2]").status, 400);
        let unknown_field = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"epsilonn":1}"#,
        );
        assert_eq!(unknown_field.status, 400);
        assert!(unknown_field.body.contains("epsilonn"));
        assert_eq!(
            post(&state, "/synthesize", r#"{"dataset":"nope","epsilon":0.5}"#).status,
            404
        );
        assert_eq!(get(&state, "/jobs/notanumber").status, 400);
        assert_eq!(get(&state, "/jobs/424242").status, 404);
        assert_eq!(get(&state, "/budget/nope").status, 404);
        assert_eq!(get(&state, "/nope").status, 404);
        let wrong_method = route(
            &state,
            &Request {
                method: "DELETE".into(),
                path: "/datasets".into(),
                body: Vec::new(),
            },
        );
        assert_eq!(wrong_method.status, 405);
        // Rejected requests must not leak job slots.
        assert_eq!(state.active_jobs.load(Ordering::SeqCst), 0);
    }

    /// The message of a `400 invalid_request` refusal.
    fn refusal<T>(result: Result<T, Response>) -> String {
        let response = result.err().expect("refused");
        assert_eq!(response.status, 400);
        let body = json::parse(&response.body).unwrap();
        assert_eq!(
            json::get(&body, "error").and_then(json::as_str),
            Some("invalid_request")
        );
        json::get(&body, "message")
            .and_then(json::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn fields_read_present_absent_and_mistyped_keys() {
        let fields = Fields::parse(br#"{"a":"x","n":3}"#, &["a", "n", "m"]).unwrap();
        assert_eq!(fields.required("a", json::as_str, "need a").ok(), Some("x"));
        assert_eq!(fields.optional("n", json::as_u64, "n?").ok(), Some(Some(3)));
        assert_eq!(fields.optional("m", json::as_u64, "m?").ok(), Some(None));
        assert_eq!(
            refusal(fields.optional("a", json::as_u64, "a int")),
            "a int"
        );
        assert_eq!(
            refusal(fields.required("m", json::as_u64, "m req")),
            "m req"
        );
        assert_eq!(
            refusal(Fields::parse(br#"{"z":1}"#, &["a", "n"])),
            "unknown field 'z' (allowed: a, n)"
        );
        assert_eq!(
            refusal(Fields::parse(b"[]", &[])),
            "body must be a JSON object"
        );
    }

    #[test]
    fn synthesize_defaults_are_the_request_defaults() {
        let parsed = parse_synthesize_body(br#"{"dataset":"toy","epsilon":0.5}"#).unwrap();
        assert_eq!(parsed, SynthesisRequest::new("toy", 0.5, DEFAULT_SEED));
    }

    #[test]
    fn register_dataset_route_validates() {
        let state = test_state_with(SynthesisEngine::new(BudgetLedger::in_memory()), 16);
        let graph_text = io::to_text(&toy_social_graph());
        let body = serde_json::to_string(&obj(vec![
            ("name", Value::Str("fresh".into())),
            ("budget", Value::Float(1.5)),
            ("graph", Value::Str(graph_text)),
        ]))
        .unwrap();
        let created = post(&state, "/datasets", &body);
        assert_eq!(created.status, 201, "{}", created.body);
        assert!(created.body.contains("\"total\":1.5"));

        assert_eq!(post(&state, "/datasets", "{}").status, 400);
        assert_eq!(
            post(&state, "/datasets", r#"{"name":"x","budget":1}"#).status,
            400
        );
        let bad_graph = post(
            &state,
            "/datasets",
            r#"{"name":"x","budget":1,"graph":"nodes garbage"}"#,
        );
        assert_eq!(bad_graph.status, 400);
    }

    #[test]
    fn fits_certain_to_fail_are_refused_before_any_epsilon_is_drawn() {
        let mut state = test_state();
        // Burst 1 at a near-zero rate: a refusal that took the token would
        // turn the last request into a 429.
        Arc::get_mut(&mut state)
            .map(|s| s.rate_limits = Some(TokenBuckets::new(1e-6, 1.0)))
            .unwrap();
        let budget_before = get(&state, "/budget/toy").body;
        for (body, message) in [
            (
                r#"{"dataset":"toy","epsilon":0.5,"method":"smooth","delta":2}"#,
                "delta must lie in (0, 1), got 2",
            ),
            (
                r#"{"dataset":"toy","epsilon":0.25,"method":"sample-aggregate","k":100}"#,
                "group size 100 must lie in 1..=n (n = 30)",
            ),
        ] {
            let refused = post(&state, "/synthesize", body);
            assert_eq!(refused.status, 400, "{}", refused.body);
            assert!(refused.body.contains(message), "{}", refused.body);
            assert_eq!(get(&state, "/jobs/1").status, 404, "{body} created a job");
            assert_eq!(get(&state, "/budget/toy").body, budget_before, "{body}");
        }
        // δ means nothing to truncation, so a stray one is still ignored.
        let accepted = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1,"delta":5}"#,
        );
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        assert!(matches!(wait_for_job(&state, 1), JobState::Completed(_)));
    }

    #[test]
    fn mistyped_graph_sources_register_nothing() {
        let state = test_state_with(SynthesisEngine::new(BudgetLedger::in_memory()), 16);
        let dir = std::env::temp_dir().join(format!("agmdp_server_sources_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let agb = dir.join("toy.agb");
        std::fs::write(&agb, io::to_binary(&toy_social_graph())).unwrap();
        let path = Value::Str(agb.display().to_string());
        let inline = Value::Str(io::to_text(&toy_social_graph()));
        // A source of the wrong type beside a valid one is refused, not
        // ignored.
        for (graph, path) in [(Value::UInt(7), path), (inline, Value::UInt(7))] {
            let body = serde_json::to_string(&obj(vec![
                ("name", Value::Str("a".into())),
                ("budget", Value::Float(1.0)),
                ("graph", graph),
                ("path", path),
            ]))
            .unwrap();
            let refused = post(&state, "/datasets", &body);
            assert_eq!(refused.status, 400, "{}", refused.body);
            assert!(refused.body.contains(ONE_GRAPH_SOURCE), "{}", refused.body);
            assert!(state.engine.registry().summaries().is_empty());
            assert_eq!(get(&state, "/budget/a").status, 404);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_parse_errors_do_not_echo_file_content() {
        let state = test_state_with(SynthesisEngine::new(BudgetLedger::in_memory()), 16);
        let dir = std::env::temp_dir().join(format!("agmdp_server_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let secret_path = dir.join("secret.txt");
        std::fs::write(&secret_path, "hunter2-credential-line\n").unwrap();
        // A file that is not a graph, a path that does not exist, and a
        // directory: the replies must not tell them apart.
        let refusals: Vec<String> = [secret_path.clone(), dir.join("missing.graph"), dir.clone()]
            .iter()
            .map(|path| {
                let path = path.display().to_string();
                let body = serde_json::to_string(&obj(vec![
                    ("name", Value::Str("probe".into())),
                    ("budget", Value::Float(1.0)),
                    ("path", Value::Str(path.clone())),
                ]))
                .unwrap();
                let refused = post(&state, "/datasets", &body);
                assert_eq!(refused.status, 400, "{}", refused.body);
                assert!(
                    !refused.body.contains("hunter2"),
                    "error body echoed file content: {}",
                    refused.body
                );
                refused.body.replace(&path, "<path>")
            })
            .collect();
        assert_eq!(refusals[0], refusals[1]);
        assert_eq!(refusals[0], refusals[2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn over_budget_rejected_with_402_and_no_job() {
        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        engine
            .register_dataset("tiny", toy_social_graph(), 0.5)
            .unwrap();
        let state = test_state_with(engine, 16);
        let first = post(
            &state,
            "/synthesize",
            r#"{"dataset":"tiny","epsilon":0.4,"seed":1}"#,
        );
        assert_eq!(first.status, 202);
        let refused = post(
            &state,
            "/synthesize",
            r#"{"dataset":"tiny","epsilon":0.4,"seed":2}"#,
        );
        assert_eq!(refused.status, 402, "{}", refused.body);
        assert!(refused.body.contains("budget_exhausted"));
        // No job was created for the refused request.
        assert!(state.jobs.get(2).is_none());
        // Once the one accepted job finishes, every slot is free again (the
        // refused request released its slot immediately).
        wait_for_job(&state, 1);
        for _ in 0..200 {
            if state.active_jobs.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.active_jobs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn job_cap_refuses_with_503_before_spending() {
        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        engine
            .register_dataset("toy", toy_social_graph(), 10.0)
            .unwrap();
        let state = test_state_with(engine, 0); // no job slots at all
        let refused = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#,
        );
        assert_eq!(refused.status, 503, "{}", refused.body);
        assert!(refused.body.contains("overloaded"));
        assert_eq!(refused.retry_after, Some(1), "shed carries Retry-After");
        // The refusal happened before admission: no epsilon was drawn.
        let spent = state.engine.ledger().status("toy").unwrap().spent;
        assert_eq!(spent, 0.0);
        // The shed ticked the counter exactly once, with its reason.
        let metrics = get(&state, "/metrics");
        assert!(
            metrics
                .body
                .contains("agmdp_http_sheds_total{reason=\"job_slots\"} 1"),
            "{}",
            metrics.body
        );
    }

    #[test]
    fn rate_limit_refuses_with_429_per_dataset() {
        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        engine
            .register_dataset("toy", toy_social_graph(), 10.0)
            .unwrap();
        let mut state = test_state_with(engine, 16);
        // 1 rps, burst 1: the second immediate request is refused.
        Arc::get_mut(&mut state)
            .map(|s| s.rate_limits = Some(TokenBuckets::new(1.0, 1.0)))
            .unwrap();
        let first = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#,
        );
        assert_eq!(first.status, 202, "{}", first.body);
        let refused = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#,
        );
        assert_eq!(refused.status, 429, "{}", refused.body);
        assert!(refused.body.contains("rate_limited"));
        assert!(refused.retry_after.is_some());
        // Refused before the slot/ledger layers: the shed reason says so.
        let metrics = get(&state, "/metrics");
        assert!(
            metrics
                .body
                .contains("agmdp_http_sheds_total{reason=\"rate_limit\"} 1"),
            "{}",
            metrics.body
        );
        wait_for_job(&state, 1);
    }

    #[test]
    fn rate_limit_buckets_only_requests_the_engine_would_admit() {
        let mut state = test_state();
        // Burst 1 at a near-zero rate: a second token takes days.
        Arc::get_mut(&mut state)
            .map(|s| s.rate_limits = Some(TokenBuckets::new(1e-6, 1.0)))
            .unwrap();
        // Refused by the engine's request check: same 404/400 every time,
        // and no token taken.
        for _ in 0..2 {
            let unknown = post(&state, "/synthesize", r#"{"dataset":"nope","epsilon":0.5}"#);
            assert_eq!(unknown.status, 404, "{}", unknown.body);
        }
        let bad_epsilon = post(&state, "/synthesize", r#"{"dataset":"toy","epsilon":-1}"#);
        assert_eq!(bad_epsilon.status, 400, "{}", bad_epsilon.body);
        // The registered dataset's one token is still there.
        let accepted = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#,
        );
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let metrics = get(&state, "/metrics").body;
        assert!(!metrics.contains("reason=\"rate_limit\""), "{metrics}");
        wait_for_job(&state, 1);
    }

    #[test]
    fn healthz_reports_the_metrics_fit_cache_counts() {
        let state = test_state();
        let cold = SynthesisRequest::new("toy", 0.5, 1);
        assert!(!state.engine.synthesize(&cold).unwrap().cache_hit);
        let mut same_fit = cold.clone();
        same_fit.refinement_iterations = 4;
        assert!(state.engine.synthesize(&same_fit).unwrap().cache_hit);

        let health = json::parse(&get(&state, "/healthz").body).unwrap();
        let cache = json::get(&health, "cache").unwrap();
        let healthz = |name| json::as_u64(json::get(cache, name).unwrap()).unwrap();
        let metrics = get(&state, "/metrics").body;
        let metric = |name: &str| -> u64 {
            metrics
                .lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap()
        };
        assert_eq!((healthz("hits"), healthz("misses")), (1, 1));
        assert_eq!(metric("agmdp_fit_cache_hits_total"), healthz("hits"));
        assert_eq!(metric("agmdp_fit_cache_misses_total"), healthz("misses"));
    }

    fn store_state(dir: &std::path::Path) -> Arc<ServerState> {
        let mut engine = SynthesisEngine::new(BudgetLedger::in_memory());
        engine.set_release_store(ReleaseStore::open(dir.to_path_buf()).unwrap());
        engine
            .register_dataset("toy", toy_social_graph(), 10.0)
            .unwrap();
        test_state_with(engine, 16)
    }

    #[test]
    fn release_store_serves_repeat_requests_across_restarts() {
        let dir = std::env::temp_dir().join(format!("agmdp_srv_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = store_state(&dir);
        let body = r#"{"dataset":"toy","epsilon":0.5,"seed":9,"return_graph":true}"#;

        // Cold: runs a real job (one store miss) and writes the release.
        let cold = post(&state, "/synthesize", body);
        assert_eq!(cold.status, 202, "{}", cold.body);
        assert!(cold.body.contains("\"cache_hit\":false"));
        assert!(!cold.body.contains("store_hit"), "{}", cold.body);
        let parsed = json::parse(&cold.body).unwrap();
        let cold_id = json::as_u64(json::get(&parsed, "job_id").unwrap()).unwrap();
        let JobState::Completed(cold_outcome) = wait_for_job(&state, cold_id) else {
            panic!("cold job failed");
        };

        // Repeat: served straight from the store. The job record is created
        // already completed (no slot was taken, no thread spawned, no ε).
        let hit = post(&state, "/synthesize", body);
        assert_eq!(hit.status, 202, "{}", hit.body);
        assert!(hit.body.contains("\"store_hit\":true"), "{}", hit.body);
        assert!(hit.body.contains("\"cache_hit\":true"));
        assert!(hit.body.contains("\"epsilon_spent\":0.0"));
        let parsed = json::parse(&hit.body).unwrap();
        let hit_id = json::as_u64(json::get(&parsed, "job_id").unwrap()).unwrap();
        let JobState::Completed(hit_outcome) = state.jobs.get(hit_id).unwrap() else {
            panic!("store hit must complete synchronously");
        };
        // Pinned byte-identical to the cold release, at zero ε.
        assert_eq!(hit_outcome.graph_text, cold_outcome.graph_text);
        assert_eq!(hit_outcome.stats, cold_outcome.stats);
        assert_eq!(hit_outcome.epsilon_spent, 0.0);
        let spent = state.engine.ledger().status("toy").unwrap().spent;
        assert!((spent - 0.5).abs() < 1e-12, "hit must not draw ε: {spent}");

        let metrics = get(&state, "/metrics").body;
        assert!(
            metrics.contains("agmdp_release_store_hits_total 1"),
            "{metrics}"
        );
        assert!(metrics.contains("agmdp_release_store_misses_total 1"));
        assert!(metrics.contains("agmdp_release_store_bytes_total"));
        assert!(metrics.contains("agmdp_release_store_releases 1"));
        assert!(metrics.contains("agmdp_release_store_size_bytes"));
        // Only the cold request finished a job; the hit never ran one.
        assert!(metrics.contains("agmdp_jobs_finished_total{outcome=\"completed\"} 1"));

        // "Restart": a fresh engine over the same directory re-serves the
        // identical release without ever running a job.
        let state2 = store_state(&dir);
        let hit2 = post(&state2, "/synthesize", body);
        assert_eq!(hit2.status, 202, "{}", hit2.body);
        assert!(hit2.body.contains("\"store_hit\":true"), "{}", hit2.body);
        let parsed = json::parse(&hit2.body).unwrap();
        let id2 = json::as_u64(json::get(&parsed, "job_id").unwrap()).unwrap();
        let JobState::Completed(restart_outcome) = state2.jobs.get(id2).unwrap() else {
            panic!("restart hit must complete synchronously");
        };
        assert_eq!(restart_outcome.graph_text, cold_outcome.graph_text);
        assert_eq!(
            state2.engine.ledger().status("toy").unwrap().spent,
            0.0,
            "a restarted server re-serves the release for free"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stored_release_refuses_its_twin_with_out_of_range_threads() {
        let dir = std::env::temp_dir().join(format!("agmdp_srv_threads_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = store_state(&dir);
        let cold = post(
            &state,
            "/synthesize",
            r#"{"dataset":"toy","epsilon":0.5,"seed":3}"#,
        );
        assert_eq!(cold.status, 202, "{}", cold.body);
        let parsed = json::parse(&cold.body).unwrap();
        let id = json::as_u64(json::get(&parsed, "job_id").unwrap()).unwrap();
        assert!(matches!(wait_for_job(&state, id), JobState::Completed(_)));

        // `threads` is not part of the release key: only the request check
        // keeps the stored twin from answering these with a 202.
        let budget = get(&state, "/budget/toy").body;
        let store_hits = || {
            let metrics = get(&state, "/metrics").body;
            let hits = metrics
                .lines()
                .find(|l| l.starts_with("agmdp_release_store_hits_total"));
            hits.map(str::to_string)
        };
        let hits = store_hits();
        for threads in [0, crate::engine::MAX_REQUEST_THREADS + 1] {
            let body = format!(r#"{{"dataset":"toy","epsilon":0.5,"seed":3,"threads":{threads}}}"#);
            let refused = post(&state, "/synthesize", &body);
            assert_eq!(refused.status, 400, "threads {threads}: {}", refused.body);
        }
        assert!(
            state.jobs.get(id + 1).is_none(),
            "a refused request made a job"
        );
        assert_eq!(get(&state, "/budget/toy").body, budget);
        assert_eq!(store_hits(), hits);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn debug_routes_are_gated_by_config() {
        let state = test_state();
        // Disabled (the default): indistinguishable from unknown routes.
        assert_eq!(get(&state, "/__debug/sleep/1").status, 404);
        assert_eq!(get(&state, "/__debug/payload/10").status, 404);

        let engine = SynthesisEngine::new(BudgetLedger::in_memory());
        let mut enabled = test_state_with(engine, 16);
        Arc::get_mut(&mut enabled)
            .map(|s| s.debug_endpoints = true)
            .unwrap();
        let slept = get(&enabled, "/__debug/sleep/1");
        assert_eq!(slept.status, 200, "{}", slept.body);
        assert!(slept.body.contains("\"slept_ms\":1"));
        let payload = get(&enabled, "/__debug/payload/1000");
        assert_eq!(payload.status, 200);
        assert_eq!(payload.body.len(), 1000);
        assert_eq!(get(&enabled, "/__debug/sleep/abc").status, 400);
        assert_eq!(get(&enabled, "/__debug/nothing").status, 404);
    }
}
