//! The Pokec workloads: cold AGM-DP synthesis jobs through an in-process
//! `SynthesisEngine` over a memory-mapped `.agb` dataset with a release
//! store, each followed by a resample and by store-hit lookups of the
//! releases made so far.

use std::path::Path;
use std::time::Instant;

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{Privacy, StructuralModelKind};
use agmdp_eval::GraphProfile;
use agmdp_graph::{GraphView, MappedGraph};
use agmdp_service::cache::FitKey;
use agmdp_service::engine::GraphStats;
use agmdp_service::{
    BudgetLedger, ReleaseStore, ServiceError, SynthesisEngine, SynthesisOutcome, SynthesisRequest,
};

use crate::check::{ensure, verify_release, DigestLedger};
use crate::metrics::{Scrape, STAGES};
use crate::stats::{mean, median, mix, peak_rss_mb, percentile, ratio, reset_peak_rss, trim_heap};
use crate::trace::Recorder;
use crate::{layers, Ctx};

/// Where the process reads its own memory counters.
const PROC_SELF: &str = "/proc/self";
/// Name the dataset is registered under.
pub const NAME: &str = "graph";
/// ε of every release.
pub const EPSILON: f64 = 1.0;
/// Total budget: far above what any run spends.
const BUDGET: f64 = 1.0e6;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Acceptance-refinement iterations of every timed job.
pub const ITERATIONS: usize = 3;
/// The warm-up job refines once: it only has to build the dataset profile.
const WARMUP_ITERATIONS: usize = 1;
/// Iterations of the resample that follows each cold job: a new store key
/// on the cached fit, at the cheapest sampling cost.
const RESAMPLE_ITERATIONS: usize = 1;
/// Store-hit lookups after each cold job.
const HITS_PER_JOB: usize = 200;
/// Seed of the warm-up job. It is the same in every run, so every run
/// re-checks the digest of one release against the first run's.
pub const ANCHOR_SEED: u64 = 2016;

/// The request every job of a workload issues, up to its seed.
pub fn request(
    model: StructuralModelKind,
    seed: u64,
    iterations: usize,
    threads: usize,
) -> SynthesisRequest {
    SynthesisRequest {
        dataset: NAME.to_string(),
        epsilon: EPSILON,
        model,
        method: CorrelationMethod::default(),
        seed,
        refinement_iterations: iterations,
        return_graph: false,
        threads,
    }
}

/// Seed of the `i`-th request of a class (`salt`) in a run with `seed`.
pub fn job_seed(seed: u64, salt: u64, i: u64) -> u64 {
    mix(mix(seed ^ salt.rotate_left(32)) ^ i)
}

/// Key of a release in the digest ledger.
pub fn digest_key(dataset: &Path, request: &SynthesisRequest) -> String {
    format!(
        "{}/{}/seed={}/iterations={}",
        dataset.file_stem().and_then(|s| s.to_str()).unwrap_or("?"),
        request.model,
        request.seed,
        request.refinement_iterations
    )
}

/// Opens and verifies the `.agb`, then builds an engine with a release
/// store and registers the mapping. Returns the engine.
pub fn setup(
    rec: &mut Recorder,
    path: &Path,
    store_dir: &Path,
    ledger: BudgetLedger,
) -> Result<SynthesisEngine, String> {
    let (mapped, _) = rec.span("graph.mmap_open", 0, |_| MappedGraph::open(path));
    let mapped = mapped.map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut engine = SynthesisEngine::new(ledger);
    engine.set_release_store(ReleaseStore::open(store_dir).map_err(|e| e.to_string())?);
    rec.span("service.register", 0, |_| {
        engine.register_mapped_dataset(NAME, mapped, BUDGET)
    })
    .0
    .map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Checks one job's outcome: it ran as a cold fit (or, for a resample, on
/// the cached fit without drawing ε) and released the input's node count.
fn check_outcome(
    request: &SynthesisRequest,
    outcome: Result<SynthesisOutcome, ServiceError>,
    nodes: usize,
    resample: bool,
) -> Result<GraphStats, String> {
    let outcome = outcome.map_err(|e| format!("job seed {} failed: {e}", request.seed))?;
    let spent = if resample { 0.0 } else { EPSILON };
    ensure(
        outcome.cache_hit == resample && outcome.epsilon_spent == spent,
        || {
            format!(
                "job seed {} iterations {}: cache_hit {}, ε spent {}",
                request.seed,
                request.refinement_iterations,
                outcome.cache_hit,
                outcome.epsilon_spent
            )
        },
    )?;
    ensure(outcome.stats.nodes == nodes, || {
        format!(
            "job seed {} released {} nodes",
            request.seed, outcome.stats.nodes
        )
    })?;
    Ok(outcome.stats)
}

/// Opens a job's stored artifact through the verified tier and checks its
/// digest against every earlier release of the same request. Runs after the
/// peak RSS is read, so the check's own reads do not count in it.
fn check_stored(
    engine: &SynthesisEngine,
    digests: &mut DigestLedger,
    dataset: &Path,
    request: &SynthesisRequest,
    stats: &GraphStats,
) -> Result<(), String> {
    let store = engine
        .release_store()
        .ok_or("engine has no release store")?;
    let artifact = store
        .dir()
        .join(format!("{}.agb", ReleaseStore::release_stem(request)));
    let digest = verify_release(&artifact, stats.nodes, Some(stats.edges))?;
    digests.check(&digest_key(dataset, request), &digest)
}

fn scrape(engine: &SynthesisEngine) -> Scrape {
    Scrape::parse(&engine.telemetry().metrics().render())
}

/// One cold job. Traced, it is split into its admission and run spans.
fn cold_job(
    rec: &mut Recorder,
    engine: &SynthesisEngine,
    request: &SynthesisRequest,
    run: u64,
) -> (Result<SynthesisOutcome, ServiceError>, f64) {
    if !rec.enabled() {
        let started = Instant::now();
        let outcome = engine.synthesize(request);
        return (outcome, started.elapsed().as_secs_f64());
    }
    rec.span("service.job", run, |rec| {
        let (admission, _) = rec.span("service.admit", run, |_| engine.admit(request));
        rec.span("service.run", run, |_| engine.run(request, admission?))
            .0
    })
}

pub fn run(ctx: &mut Ctx, model: StructuralModelKind, dataset: &Path) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut engine = None;
    for i in 0..SETUP_REPEATS {
        drop(engine.take());
        let store_dir = ctx.run_dir.join(format!("store-{i}"));
        let (built, secs) = ctx.rec.span("setup", 0, |rec| {
            setup(rec, dataset, &store_dir, BudgetLedger::in_memory())
        });
        engine = Some(built?);
        setups.push(secs);
    }
    let engine = engine.ok_or("no set-up ran")?;
    let graph = engine.registry().get(NAME).map_err(|e| e.to_string())?;
    let (nodes, edges) = (graph.num_nodes(), graph.num_edges());
    ctx.env("nodes", nodes.to_string());
    ctx.env("edges", edges.to_string());
    ctx.env("model", format!("\"{model}\""));
    ctx.env("epsilon", EPSILON.to_string());
    ctx.env("refinement_iterations", ITERATIONS.to_string());
    ctx.env("anchor_seed", ANCHOR_SEED.to_string());
    ctx.env("resample_iterations", RESAMPLE_ITERATIONS.to_string());
    ctx.env("load", "\"closed loop: one job at a time\"".into());

    // Warm-up, untimed: the first job builds the dataset's utility profile.
    let anchor = request(model, ANCHOR_SEED, WARMUP_ITERATIONS, ctx.threads);
    let outcome = engine.synthesize(&anchor);
    let mut released: Vec<(SynthesisRequest, GraphStats)> = Vec::new();
    let checked = check_outcome(&anchor, outcome, nodes, false);
    ctx.checks
        .record(checked.map(|stats| released.push((anchor, stats))));
    if ctx.rec.enabled() {
        let (_, secs) = ctx
            .rec
            .span("eval.profile", 0, |_| GraphProfile::of(graph.as_ref()));
        ctx.set("eval.profile_s", secs);
    }

    let before = scrape(&engine);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut job_peaks_mb = Vec::new();
    let mut peak_reset = true;
    let mut hit_ms = Vec::new();
    let mut resample_ms = Vec::new();
    let mut stage_secs = [0.0; STAGES.len()];
    let mut edge_passes = 0.0;
    let (mut edges_out, mut triangles_out) = (0.0, 0.0);
    let mut run = 0u64;
    while run == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        run += 1;
        let req = request(model, job_seed(ctx.seed, 1, run), ITERATIONS, ctx.threads);
        let pre = ctx.rec.enabled().then(|| scrape(&engine));
        // Each cold job starts from the live heap alone, so its peak does
        // not depend on what earlier jobs left in the allocator.
        trim_heap();
        peak_reset &= reset_peak_rss(Path::new(PROC_SELF));
        let (outcome, wall) = cold_job(&mut ctx.rec, &engine, &req, run);
        job_peaks_mb
            .push(peak_rss_mb(&Path::new(PROC_SELF).join("status")).ok_or("cannot read VmHWM")?);
        if let Some(pre) = pre {
            let post = scrape(&engine);
            for (total, (stage, _)) in stage_secs.iter_mut().zip(STAGES) {
                *total += post.stage_secs(&pre, stage);
            }
            edge_passes += post.stage_count(&pre, "edge_sample");
        }
        walls.push(wall);
        let checked = check_outcome(&req, outcome, nodes, false);
        match checked {
            Ok(stats) => {
                edges_out += stats.edges as f64;
                triangles_out += stats.triangles as f64;
                released.push((req.clone(), stats));
                ctx.checks.record(Ok(()));
            }
            Err(e) => ctx.checks.record(Err(e)),
        }

        // The resample: the fit is cached, the release is not.
        let resample = request(model, req.seed, RESAMPLE_ITERATIONS, ctx.threads);
        let (outcome, secs) = ctx
            .rec
            .span("service.resample", run, |_| engine.synthesize(&resample));
        resample_ms.push(secs * 1e3);
        let checked = check_outcome(&resample, outcome, nodes, true);
        match checked {
            Ok(stats) => {
                released.push((resample, stats));
                ctx.checks.record(Ok(()));
            }
            Err(e) => ctx.checks.record(Err(e)),
        }

        // Store hits: repeat requests for every release made so far.
        for h in 0..HITS_PER_JOB {
            let (key, stats) = &released[h % released.len()];
            let t = Instant::now();
            let hit = engine.store_lookup(key);
            hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ctx.checks.record(match hit {
                Some(o) if o.epsilon_spent == 0.0 && o.stats == *stats => Ok(()),
                Some(_) => Err(format!(
                    "store hit of seed {} spent ε or changed its stats",
                    key.seed
                )),
                None => Err(format!(
                    "release of seed {} missing from the store",
                    key.seed
                )),
            });
        }

        if ctx.rec.enabled() {
            let fitted = layers::decompose(&mut ctx.rec, run, &graph, &req);
            let key = FitKey::new(
                NAME,
                Privacy::Dp { epsilon: EPSILON },
                model,
                req.method,
                req.seed,
            );
            ctx.checks
                .record(match (fitted, engine.cache().peek(&key)) {
                    (Ok(mine), Some(theirs)) if mine == *theirs => Ok(()),
                    (Ok(_), Some(_)) => Err(format!(
                        "fit decomposition of seed {} differs from the engine's fit",
                        req.seed
                    )),
                    (Ok(_), None) => Err(format!("engine fit of seed {} not cached", req.seed)),
                    (Err(e), _) => Err(format!(
                        "fit decomposition of seed {} failed: {e}",
                        req.seed
                    )),
                });
        }
    }
    let after = scrape(&engine);

    ctx.set("setup_s", median(&setups));
    ctx.set("cold_synth_s", median(&walls));
    ctx.set("service.hit_p50_ms", median(&hit_ms));
    ctx.set("resample_p50_ms", median(&resample_ms));
    ctx.set("peak_rss_mb", median(&job_peaks_mb));
    for (req, stats) in &released {
        let stored = check_stored(&engine, &mut ctx.digests, dataset, req, stats);
        ctx.checks.record(stored);
    }
    ctx.env("cold_jobs", walls.len().to_string());
    ctx.env("peak_rss_per_job", peak_reset.to_string());
    ctx.env("resamples", resample_ms.len().to_string());
    ctx.env("store_hit_lookups", hit_ms.len().to_string());
    ctx.env("setups", setups.len().to_string());

    if ctx.rec.enabled() {
        let jobs = walls.len() as f64;
        let wall = mean(&walls);
        let mut staged = 0.0;
        for (total, (_, metric)) in stage_secs.iter().zip(STAGES) {
            ctx.set(metric, total / jobs);
            staged += total / jobs;
        }
        ctx.set("trace.job_wall_s", wall);
        ctx.set("unattributed_s", wall - staged);
        ctx.set("unattributed_share", ratio(wall - staged, wall));
        ctx.set("trace.jobs", jobs);
        ctx.set("models.sample_passes", edge_passes);
        ctx.set("models.edges_out", edges_out);
        ctx.set("models.triangles_out", triangles_out);
        ctx.set(
            "graph.mmap_open_s",
            median(&ctx.rec.self_times("graph.mmap_open")),
        );
        for (span, metric) in layers::FIT_SPANS {
            let value = mean(&ctx.rec.self_times(span));
            ctx.set(metric, value);
        }
        ctx.set(
            "service.admit_ms",
            mean(&ctx.rec.self_times("service.admit")) * 1e3,
        );
        let store_hits = after.delta(&before, "agmdp_release_store_hits_total");
        let store_lookups = store_hits + after.delta(&before, "agmdp_release_store_misses_total");
        ctx.set("service.store_hit_ratio", ratio(store_hits, store_lookups));
        ctx.set("service.store_lookups", store_lookups);
        let fit_hits = after.delta(&before, "agmdp_fit_cache_hits_total");
        let fit_lookups = fit_hits + after.delta(&before, "agmdp_fit_cache_misses_total");
        ctx.set("service.fit_cache_hit_ratio", ratio(fit_hits, fit_lookups));
        ctx.set("service.fit_cache_lookups", fit_lookups);
        ctx.set("service.hit_p99_ms", percentile(&hit_ms, 99.0));
        ctx.trace_overhead(median(&walls));
    } else {
        ctx.record_untraced(median(&walls));
    }
    Ok(())
}
