//! The `service-mixed` workload: `agmdp serve` (event transport, two HTTP
//! workers, a journaled ledger and a release store) driven open-loop from
//! one thread over one keep-alive connection.
//!
//! Three request classes run on fixed schedules, each timed from its
//! scheduled send time, so a stall delays every later request's clock:
//!
//! * reads — a store hit (`POST /synthesize` for a released key, then
//!   `GET /jobs/:id`); every tenth asks for the graph text;
//! * resamples — a fitted seed with new `iterations`: fit-cache hit, store
//!   miss, a new release written;
//! * colds — a fresh seed: ledger spend with a journal append, DP fit,
//!   store write.
//!
//! A write is polled with `GET /jobs/:id` until it completes.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::StructuralModelKind;
use agmdp_eval::GraphProfile;
use agmdp_graph::io;
use agmdp_service::{json, BudgetLedger, ReleaseStore, SynthesisRequest};
use serde::Value;

use crate::check::{ensure, verify_release};
use crate::engine_run::{self, job_seed, ANCHOR_SEED, EPSILON, ITERATIONS};
use crate::http::Conn;
use crate::metrics::{Scrape, STAGES};
use crate::stats::{digest, mean, median, peak_rss_mb, percentile, ratio, reset_peak_rss};
use crate::{layers, Ctx};

const NAME: &str = "lastfm";
const BUDGET: f64 = 1.0e6;
const SERVER_THREADS: usize = 2;
/// Sampling threads per write job. One: the server's workers, the reactor
/// and the load generator already share the cores, and fork-join sampling
/// on a graph this small only adds wake-ups for the scheduler to delay.
pub const JOB_THREADS: usize = 1;
/// Released keys the reads cycle through.
const HIT_KEYS: u64 = 8;
/// Offered rates, per second. Reads and polls share the generator's one
/// connection; at these rates it is idle most of the time, so a write's
/// completion is seen without waiting behind reads.
const READ_RATE: f64 = 50.0;
const RESAMPLE_RATE: f64 = 2.0;
const COLD_RATE: f64 = 2.0;
/// Every n-th read asks for the graph text.
const GRAPH_READ_EVERY: u64 = 10;
/// Refinement iterations of a resample (hits and colds use `ITERATIONS`).
const RESAMPLE_ITERATIONS: usize = 4;
/// How often an unfinished write is polled.
const POLL: Duration = Duration::from_millis(10);
/// Seeds of the in-process fit decompositions of the traced run.
const FIT_CHECKS: u64 = 4;

/// A running `agmdp serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn body(seed: u64, iterations: usize, threads: usize, return_graph: bool) -> String {
    format!(
        "{{\"dataset\":\"{NAME}\",\"epsilon\":{EPSILON:?},\"seed\":{seed},\"iterations\":{iterations},\"threads\":{threads},\"return_graph\":{return_graph}}}"
    )
}

/// The engine-side request the server parses from [`body`] (for the store
/// key of a release).
fn request(seed: u64, iterations: usize) -> SynthesisRequest {
    SynthesisRequest {
        dataset: NAME.to_string(),
        epsilon: EPSILON,
        model: StructuralModelKind::TriCycLe,
        method: CorrelationMethod::default(),
        seed,
        refinement_iterations: iterations,
        return_graph: false,
        threads: 1,
    }
}

fn parse(text: &str) -> Result<Value, String> {
    json::parse(text).map_err(|e| format!("bad JSON reply: {e}"))
}

fn field<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| json::get(v, key))
}

fn f64_at(value: &Value, path: &[&str]) -> Option<f64> {
    field(value, path).and_then(json::as_f64)
}

/// Starts the server, waits for `/healthz`, registers the dataset.
fn start(ctx: &Ctx, dataset: &Path, i: usize) -> Result<Server, String> {
    let store = ctx.run_dir.join(format!("store-{i}"));
    let mut child = Command::new(&ctx.agmdp)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--transport",
            "event",
            "--quiet",
        ])
        .args(["--threads", &SERVER_THREADS.to_string(), "--ledger-path"])
        .arg(ctx.run_dir.join(format!("ledger-{i}.wal")))
        .arg("--release-store")
        .arg(&store)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", ctx.agmdp.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server exited before listening".into());
        }
        addr = line
            .split("listening on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
    }
    let server = Server {
        child,
        addr: addr.ok_or("no address")?,
        store,
        _stdout: stdout,
    };
    let mut conn = Conn::new(server.addr);
    let ready = Instant::now();
    while !matches!(conn.request("GET", "/healthz", ""), Ok(r) if r.status == 200) {
        if ready.elapsed() > Duration::from_secs(20) {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let path = dataset
        .canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", dataset.display()))?;
    let register = format!(
        "{{\"name\":\"{NAME}\",\"budget\":{BUDGET:?},\"path\":\"{}\"}}",
        path.display()
    );
    let reply = conn
        .request("POST", "/datasets", &register)
        .map_err(|e| format!("register failed: {e}"))?;
    ensure(reply.status == 201, || {
        format!("register returned {}: {}", reply.status, reply.body)
    })?;
    Ok(server)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Write {
    Resample,
    Cold,
}

/// A submitted write job awaiting completion.
struct Pending {
    job: u64,
    class: Write,
    seed: u64,
    iterations: usize,
    due: Instant,
    next_poll: Instant,
}

/// Submits a write and checks its admission reply; returns the job id.
fn submit(
    conn: &mut Conn,
    class: Write,
    seed: u64,
    iterations: usize,
    threads: usize,
) -> Result<u64, String> {
    let reply = conn
        .request(
            "POST",
            "/synthesize",
            &body(seed, iterations, threads, false),
        )
        .map_err(|e| format!("POST /synthesize: {e}"))?;
    ensure(reply.status == 202, || {
        format!("write returned {}: {}", reply.status, reply.body)
    })?;
    let v = parse(&reply.body)?;
    let (hit, spent) = (
        field(&v, &["cache_hit"]).and_then(json::as_bool),
        f64_at(&v, &["epsilon_spent"]),
    );
    let expected = match class {
        Write::Resample => (Some(true), Some(0.0)),
        Write::Cold => (Some(false), Some(EPSILON)),
    };
    ensure(
        (hit, spent) == expected && field(&v, &["store_hit"]).is_none(),
        || format!("{class:?} seed {seed} admitted as {}", reply.body),
    )?;
    field(&v, &["job_id"])
        .and_then(json::as_u64)
        .ok_or_else(|| "no job_id".to_string())
}

/// One `GET /jobs/:id`: `Ok(None)` while the job runs, its result once it
/// has completed.
fn poll(conn: &mut Conn, job: u64) -> Result<Option<Value>, String> {
    let reply = conn
        .request("GET", &format!("/jobs/{job}"), "")
        .map_err(|e| format!("GET /jobs/{job}: {e}"))?;
    ensure(reply.status == 200, || {
        format!("job {job} returned {}", reply.status)
    })?;
    let v = parse(&reply.body)?;
    match field(&v, &["status"]).and_then(json::as_str) {
        Some("completed") => Ok(field(&v, &["result"]).cloned()),
        Some("queued" | "running") => Ok(None),
        _ => Err(format!("job {job} failed: {}", reply.body)),
    }
}

/// Checks a completed write's result; returns its edge count.
fn check_result(result: &Value, class: Write, nodes: usize) -> Result<usize, String> {
    let spent = f64_at(result, &["epsilon_spent"]);
    let expected = if class == Write::Cold { EPSILON } else { 0.0 };
    ensure(spent == Some(expected), || {
        format!("{class:?} result spent {spent:?}")
    })?;
    let released = field(result, &["stats", "nodes"]).and_then(json::as_u64);
    ensure(released == Some(nodes as u64), || {
        format!("{class:?} released {released:?} nodes")
    })?;
    field(result, &["stats", "edges"])
        .and_then(json::as_u64)
        .map(|e| e as usize)
        .ok_or_else(|| "result has no edge count".to_string())
}

/// Submits a write and polls it to completion (warm-up only).
fn write_and_wait(
    conn: &mut Conn,
    class: Write,
    seed: u64,
    iterations: usize,
    threads: usize,
) -> Result<Value, String> {
    let job = submit(conn, class, seed, iterations, threads)?;
    loop {
        if let Some(result) = poll(conn, job)? {
            return Ok(result);
        }
        std::thread::sleep(POLL);
    }
}

/// A store-hit read: POST for a released key, then fetch its job.
fn read(
    conn: &mut Conn,
    seed: u64,
    threads: usize,
    with_graph: bool,
    stats: &Value,
    graphs: &mut BTreeMap<u64, String>,
    nodes: usize,
) -> Result<(), String> {
    let reply = conn
        .request(
            "POST",
            "/synthesize",
            &body(seed, ITERATIONS, threads, with_graph),
        )
        .map_err(|e| format!("POST /synthesize: {e}"))?;
    ensure(reply.status == 202, || {
        format!("read returned {}: {}", reply.status, reply.body)
    })?;
    let v = parse(&reply.body)?;
    ensure(
        field(&v, &["store_hit"]).and_then(json::as_bool) == Some(true)
            && f64_at(&v, &["epsilon_spent"]) == Some(0.0),
        || {
            format!(
                "read of seed {seed} was not an ε-free store hit: {}",
                reply.body
            )
        },
    )?;
    let job = field(&v, &["job_id"])
        .and_then(json::as_u64)
        .ok_or("no job_id")?;
    let result = poll(conn, job)?.ok_or_else(|| format!("store-hit job {job} not completed"))?;
    ensure(field(&result, &["stats"]) == Some(stats), || {
        format!("store hit of seed {seed} changed its stats")
    })?;
    ensure(f64_at(&result, &["epsilon_spent"]) == Some(0.0), || {
        "store hit spent ε".into()
    })?;
    if with_graph {
        let text = field(&result, &["graph"])
            .and_then(json::as_str)
            .ok_or("no graph text")?;
        let d = digest(text.as_bytes());
        match graphs.get(&seed) {
            Some(known) => ensure(*known == d, || format!("graph text of seed {seed} changed"))?,
            None => {
                let g =
                    io::from_text(text).map_err(|e| format!("graph text does not parse: {e}"))?;
                ensure(g.num_nodes() == nodes, || {
                    format!("graph text has {} nodes", g.num_nodes())
                })?;
                graphs.insert(seed, d);
            }
        }
    }
    Ok(())
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let reply = conn
        .request("GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    ensure(reply.status == 200, || {
        format!("/metrics returned {}", reply.status)
    })?;
    Ok(Scrape::parse(&reply.body))
}

pub fn run(ctx: &mut Ctx, dataset: &Path) -> Result<(), String> {
    let threads = ctx.threads;
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..engine_run::SETUP_REPEATS {
        drop(server.take());
        let started = Instant::now();
        server = Some(start(ctx, dataset, i)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no set-up ran")?;
    let nodes = io::read_binary_file(dataset)
        .map_err(|e| e.to_string())?
        .num_nodes();
    ctx.env("nodes", nodes.to_string());
    ctx.env("server_threads", SERVER_THREADS.to_string());
    ctx.env("generator_threads", "1".into());
    ctx.env("connections", "1".into());
    ctx.env(
        "offered_rates_per_s",
        format!("{{\"read\": {READ_RATE}, \"resample\": {RESAMPLE_RATE}, \"cold\": {COLD_RATE}}}"),
    );
    ctx.env(
        "graph_read_share",
        (1.0 / GRAPH_READ_EVERY as f64).to_string(),
    );
    ctx.env("hit_keys", HIT_KEYS.to_string());
    ctx.env("anchor_seed", ANCHOR_SEED.to_string());
    ctx.env("poll_ms", POLL.as_millis().to_string());

    // Warm-up, untimed: the anchor release, then the keys the reads hit.
    let mut conn = Conn::new(server.addr);
    let mut released: Vec<(u64, usize, usize)> = Vec::new();
    let mut colds_spent = 0u64;
    let mut hit_stats = Vec::new();
    for (j, seed) in std::iter::once(ANCHOR_SEED)
        .chain((0..HIT_KEYS).map(|j| job_seed(ctx.seed, 2, j)))
        .enumerate()
    {
        let result = write_and_wait(&mut conn, Write::Cold, seed, ITERATIONS, threads)
            .map_err(|e| format!("warm-up write failed: {e}"))?;
        colds_spent += 1;
        let edges = check_result(&result, Write::Cold, nodes)?;
        ctx.checks.record(Ok(()));
        released.push((seed, ITERATIONS, edges));
        if j > 0 {
            let stats = field(&result, &["stats"]).cloned().ok_or("no stats")?;
            hit_stats.push((seed, stats));
        }
    }
    let mut pool: Vec<u64> = hit_stats.iter().map(|(s, _)| *s).collect();
    let mut resampled: BTreeMap<u64, usize> = BTreeMap::new();

    // The server's peak memory counts from here: the load, not the warm-up.
    let server_proc = PathBuf::from(format!("/proc/{}", server.child.id()));
    let peak_reset = reset_peak_rss(&server_proc);
    let before = scrape(&mut conn)?;
    let mut graphs = BTreeMap::new();
    let (mut hit_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let (mut resample_ms, mut cold_ms) = (Vec::new(), Vec::new());
    let (mut edges_out, mut triangles_out) = (0.0, 0.0);
    let mut pending: Vec<Pending> = Vec::new();
    let (mut reads, mut resamples, mut colds) = (0u64, 0u64, 0u64);
    let t0 = Instant::now() + Duration::from_millis(10);
    let end = t0 + Duration::from_secs_f64(ctx.seconds);
    let at =
        |i: u64, rate: f64, phase: f64| t0 + Duration::from_secs_f64((i as f64 + phase) / rate);
    // Resamples run half a period after colds, so two writes seldom share
    // the cores and a write's latency is its own work, not its neighbour's.
    loop {
        let next_read = Some(at(reads, READ_RATE, 0.0)).filter(|t| *t < end);
        let next_resample = Some(at(resamples, RESAMPLE_RATE, 0.5)).filter(|t| *t < end);
        let next_cold = Some(at(colds, COLD_RATE, 0.0)).filter(|t| *t < end);
        let next_poll = pending.iter().map(|p| p.next_poll).min();
        let Some(due) = [next_read, next_resample, next_cold, next_poll]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if next_poll == Some(due) {
            let k = pending
                .iter()
                .position(|p| p.next_poll == due)
                .expect("due poll exists");
            match poll(&mut conn, pending[k].job) {
                Ok(None) => pending[k].next_poll = Instant::now() + POLL,
                Ok(Some(result)) => {
                    let p = pending.swap_remove(k);
                    let latency = p.due.elapsed().as_secs_f64() * 1e3;
                    let edges = check_result(&result, p.class, nodes);
                    if let Ok(edges) = &edges {
                        released.push((p.seed, p.iterations, *edges));
                        edges_out += *edges as f64;
                        triangles_out += f64_at(&result, &["stats", "triangles"]).unwrap_or(0.0);
                        match p.class {
                            Write::Resample => resample_ms.push(latency),
                            Write::Cold => {
                                cold_ms.push(latency);
                                pool.push(p.seed);
                            }
                        }
                    }
                    ctx.checks.record(edges.map(|_| ()));
                }
                Err(e) => {
                    pending.swap_remove(k);
                    ctx.checks.record(Err(e));
                }
            }
        } else if next_read == Some(due) {
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let (seed, stats) = &hit_stats[(reads % HIT_KEYS) as usize];
            let with_graph = reads % GRAPH_READ_EVERY == GRAPH_READ_EVERY - 1;
            let outcome = read(
                &mut conn,
                *seed,
                threads,
                with_graph,
                stats,
                &mut graphs,
                nodes,
            );
            if outcome.is_ok() {
                hit_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            ctx.checks.record(outcome);
            reads += 1;
        } else {
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let (class, seed, iterations) = if next_cold == Some(due) {
                colds += 1;
                (Write::Cold, job_seed(ctx.seed, 3, colds), ITERATIONS)
            } else {
                // Each fitted seed is resampled once; if resamples outrun
                // the colds that grow the pool, a seed is resampled again
                // with one more iteration, so every resample misses the store.
                let j = resamples as usize;
                resamples += 1;
                let seed = pool
                    .iter()
                    .copied()
                    .find(|s| !resampled.contains_key(s))
                    .unwrap_or(pool[j % pool.len()]);
                let iterations = resampled
                    .get(&seed)
                    .map_or(RESAMPLE_ITERATIONS, |last| last + 1);
                resampled.insert(seed, iterations);
                (Write::Resample, seed, iterations)
            };
            match submit(&mut conn, class, seed, iterations, threads) {
                Ok(job) => {
                    if class == Write::Cold {
                        colds_spent += 1;
                    }
                    pending.push(Pending {
                        job,
                        class,
                        seed,
                        iterations,
                        due,
                        next_poll: Instant::now() + POLL,
                    });
                }
                Err(e) => ctx.checks.record(Err(e)),
            }
        }
    }
    let after = scrape(&mut conn)?;

    // The ledger charged exactly the colds.
    let budget = conn
        .request("GET", &format!("/budget/{NAME}"), "")
        .map_err(|e| format!("GET /budget: {e}"))
        .and_then(|r| parse(&r.body));
    let spent = budget.as_ref().ok().and_then(|b| f64_at(b, &["spent"]));
    let expected = colds_spent as f64 * EPSILON;
    ctx.checks.record(ensure(
        spent.is_some_and(|s| (s - expected).abs() < 1e-9),
        || format!("ledger spent {spent:?}, expected {expected} for {colds_spent} colds"),
    ));
    let rss = peak_rss_mb(&server_proc.join("status"));
    let store = server.store.clone();
    drop(server);

    // Every release decodes through the verified tier and matches earlier
    // releases of the same request.
    for (seed, iterations, edges) in &released {
        let req = request(*seed, *iterations);
        let path = store.join(format!("{}.agb", ReleaseStore::release_stem(&req)));
        let outcome = verify_release(&path, nodes, Some(*edges)).and_then(|d| {
            ctx.digests
                .check(&engine_run::digest_key(dataset, &req), &d)
        });
        ctx.checks.record(outcome);
    }

    ctx.set("setup_s", median(&setups));
    ctx.set("cold_synth_s", median(&cold_ms) / 1e3);
    ctx.set("service.hit_p50_ms", median(&hit_ms));
    ctx.set("resample_p50_ms", median(&resample_ms));
    ctx.set("peak_rss_mb", rss.ok_or("cannot read the server's VmHWM")?);
    ctx.env("reads", reads.to_string());
    ctx.env("resamples", resample_ms.len().to_string());
    ctx.env("colds", cold_ms.len().to_string());
    ctx.env("peak_rss_since_warm_up", peak_reset.to_string());
    ctx.env("connects", conn.connects.to_string());

    if ctx.rec.enabled() {
        let jobs = after.delta(&before, "agmdp_jobs_finished_total{outcome=\"completed\"}");
        let writes: Vec<f64> = resample_ms
            .iter()
            .chain(&cold_ms)
            .map(|ms| ms / 1e3)
            .collect();
        let wall = mean(&writes);
        let mut staged = 0.0;
        for (stage, metric) in STAGES {
            let per_job = ratio(after.stage_secs(&before, stage), jobs);
            ctx.set(metric, per_job);
            staged += per_job;
        }
        ctx.set("trace.job_wall_s", wall);
        ctx.set("unattributed_s", wall - staged);
        ctx.set("unattributed_share", ratio(wall - staged, wall));
        ctx.set("trace.jobs", jobs);
        ctx.set(
            "models.sample_passes",
            after.stage_count(&before, "edge_sample"),
        );
        ctx.set("models.edges_out", edges_out);
        ctx.set("models.triangles_out", triangles_out);
        ctx.set(
            "service.handler_ms.synthesize",
            after.handler_ms(&before, "/synthesize"),
        );
        ctx.set(
            "service.handler_ms.jobs",
            after.handler_ms(&before, "/jobs/:id"),
        );
        let store_hits = after.delta(&before, "agmdp_release_store_hits_total");
        let store_lookups = store_hits + after.delta(&before, "agmdp_release_store_misses_total");
        ctx.set("service.store_hit_ratio", ratio(store_hits, store_lookups));
        ctx.set("service.store_lookups", store_lookups);
        let fit_hits = after.delta(&before, "agmdp_fit_cache_hits_total");
        let fit_lookups = fit_hits + after.delta(&before, "agmdp_fit_cache_misses_total");
        ctx.set("service.fit_cache_hit_ratio", ratio(fit_hits, fit_lookups));
        ctx.set("service.fit_cache_lookups", fit_lookups);
        ctx.set(
            "service.sheds",
            after.family_delta(&before, "agmdp_http_sheds_total"),
        );
        ctx.set(
            "service.conn_timeouts",
            after.family_delta(&before, "agmdp_conn_timeouts_total"),
        );
        ctx.set(
            "service.keepalive_reuse_ratio",
            ratio(
                after.delta(&before, "agmdp_keepalive_reuse_total"),
                after.family_delta(&before, "agmdp_requests_total"),
            ),
        );
        ctx.set("service.hit_p99_ms", percentile(&hit_ms, 99.0));
        ctx.set("loadgen.lag_p99_ms", percentile(&lag_ms, 99.0));
        ctx.set("loadgen.lag_p50_ms", median(&lag_ms));
        ctx.trace_overhead(median(&cold_ms) / 1e3);
        in_process_layers(ctx, dataset)?;
    } else {
        ctx.record_untraced(median(&cold_ms) / 1e3);
    }
    Ok(())
}

/// The layers the server runs out of reach of the client, timed in process
/// on the same dataset after the load has stopped: mapped open, admission
/// with a journaled ledger, the dataset profile and the fit sub-steps.
fn in_process_layers(ctx: &mut Ctx, dataset: &Path) -> Result<(), String> {
    let ledger =
        BudgetLedger::open(ctx.run_dir.join("in-process.wal")).map_err(|e| e.to_string())?;
    let store = ctx.run_dir.join("in-process-store");
    let engine = engine_run::setup(&mut ctx.rec, dataset, &store, ledger)?;
    ctx.set(
        "graph.mmap_open_s",
        median(&ctx.rec.self_times("graph.mmap_open")),
    );
    let graph = engine
        .registry()
        .get(engine_run::NAME)
        .map_err(|e| e.to_string())?;
    let (_, secs) = ctx
        .rec
        .span("eval.profile", 0, |_| GraphProfile::of(graph.as_ref()));
    ctx.set("eval.profile_s", secs);
    for i in 0..FIT_CHECKS {
        let req = engine_run::request(
            StructuralModelKind::TriCycLe,
            job_seed(ctx.seed, 4, i),
            ITERATIONS,
            ctx.threads,
        );
        let (admission, _) = ctx.rec.span("service.admit", i, |_| engine.admit(&req));
        let admission = admission.map_err(|e| e.to_string())?;
        let theirs = engine
            .parameters(&req, &admission)
            .map_err(|e| e.to_string())?;
        let mine = layers::decompose(&mut ctx.rec, i, &graph, &req);
        ctx.checks.record(match mine {
            Ok(mine) if mine == *theirs => Ok(()),
            Ok(_) => Err(format!(
                "fit decomposition of seed {} differs from the engine's fit",
                req.seed
            )),
            Err(e) => Err(format!(
                "fit decomposition of seed {} failed: {e}",
                req.seed
            )),
        });
    }
    for (span, metric) in layers::FIT_SPANS {
        let value = mean(&ctx.rec.self_times(span));
        ctx.set(metric, value);
    }
    ctx.set(
        "service.admit_ms",
        mean(&ctx.rec.self_times("service.admit")) * 1e3,
    );
    Ok(())
}
