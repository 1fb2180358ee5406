//! `agmdp-perfbench`: the repository benchmark.
//!
//! ```text
//! agmdp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --agmdp <path-to-agmdp-binary> [--work-dir <dir>] [--tiny]
//! ```
//!
//! Workloads (see README.md for why each exists):
//!
//! * `tricycle-pokec25` — cold TriCycLe jobs on the Pokec stand-in at scale
//!   0.25, through an in-process engine over a mapped `.agb`;
//! * `fcl-pokec` — cold FCL jobs on the full-scale Pokec stand-in (by hand
//!   only: one job per run is too few for `BENCHMARK.json`'s bounds);
//! * `service-mixed` — an open-loop mix of store-hit reads, resamples and
//!   cold jobs against `agmdp serve` on the Last.fm stand-in.
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced runs
//! report the per-layer metrics. The last line of standard output is the
//! result object; the line before it is the environment header. The exit
//! code is 0 only if every correctness check passed.

mod check;
mod engine_run;
mod http;
mod layers;
mod metrics;
mod service_run;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use agmdp_core::workflow::StructuralModelKind;

use check::{Checks, DigestLedger};
use trace::Recorder;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cold_synth_s", "s"),
    ("resample_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("graph.mmap_open_s", "s"),
    ("graph.thaw_s", "s"),
    ("graph.truncation_s", "s"),
    ("core.theta_x_s", "s"),
    ("core.theta_f_s", "s"),
    ("privacy.degree_seq_s", "s"),
    ("privacy.ladder_s", "s"),
    ("core.fit_s", "s"),
    ("models.attr_sample_s", "s"),
    ("models.edge_sample_s", "s"),
    ("models.rewire_s", "s"),
    ("graph.freeze_s", "s"),
    ("eval.score_s", "s"),
    ("service.store_write_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace.job_wall_s", "s"),
    ("trace.jobs", "count"),
    ("trace.overhead_s", "s"),
    ("models.sample_passes", "count"),
    ("models.edges_out", "count"),
    ("models.triangles_out", "count"),
    ("eval.profile_s", "s"),
    ("service.admit_ms", "ms"),
    ("service.handler_ms.synthesize", "ms"),
    ("service.handler_ms.jobs", "ms"),
    ("service.store_hit_ratio", "ratio"),
    ("service.store_lookups", "count"),
    ("service.fit_cache_hit_ratio", "ratio"),
    ("service.fit_cache_lookups", "count"),
    ("service.sheds", "count"),
    ("service.conn_timeouts", "count"),
    ("service.keepalive_reuse_ratio", "ratio"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.lag_p50_ms", "ms"),
];

/// Seed of the dataset stand-ins: the input graph is fixed, as a data
/// owner's registered graph is; the workload seed varies the requests.
const DATASET_SEED: u64 = 2016;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Engine(StructuralModelKind),
    Service,
}

#[derive(Debug)]
struct Workload {
    name: &'static str,
    dataset: &'static str,
    scale: f64,
    kind: Kind,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tricycle-pokec25",
        dataset: "pokec",
        scale: 0.25,
        kind: Kind::Engine(StructuralModelKind::TriCycLe),
    },
    Workload {
        name: "fcl-pokec",
        dataset: "pokec",
        scale: 1.0,
        kind: Kind::Engine(StructuralModelKind::Fcl),
    },
    Workload {
        name: "service-mixed",
        dataset: "lastfm",
        scale: 1.0,
        kind: Kind::Service,
    },
];

/// `--tiny` swaps every input for this stand-in (the smoke test).
const TINY: (&str, f64) = ("lastfm", 0.1);

/// State shared by a run: its parameters, the span recorder, the
/// correctness gate and the collected metrics.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    /// Sampling threads per job: `nproc` in process, one on the service.
    pub threads: usize,
    pub agmdp: PathBuf,
    pub work_dir: PathBuf,
    /// Scratch directory of this run (stores, ledgers), removed at exit.
    pub run_dir: PathBuf,
    pub workload: &'static str,
    pub rec: Recorder,
    pub checks: Checks,
    pub digests: DigestLedger,
    values: BTreeMap<&'static str, f64>,
    env: Vec<(&'static str, String)>,
}

impl Ctx {
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// Adds one environment-header field; `json` is already rendered.
    pub fn env(&mut self, key: &'static str, json: String) {
        self.env.push((key, json));
    }

    fn untraced_record(&self) -> PathBuf {
        self.work_dir
            .join("untraced")
            .join(format!("{}-{}-{}.txt", self.workload, self.tiny, self.seed))
    }

    /// Remembers an untraced run's median job wall, for the traced run of
    /// the same seed to subtract.
    pub fn record_untraced(&self, job_wall: f64) {
        let path = self.untraced_record();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, format!("{job_wall}\n"));
    }

    /// `trace.overhead_s`: this traced run's median job wall minus that of
    /// the untraced run with the same seed, when one ran in this checkout
    /// (0 otherwise).
    pub fn trace_overhead(&mut self, traced_wall: f64) {
        let untraced = std::fs::read_to_string(self.untraced_record())
            .ok()
            .and_then(|t| t.trim().parse::<f64>().ok());
        self.env("trace_overhead_base", untraced.is_some().to_string());
        self.set(
            "trace.overhead_s",
            untraced.map_or(0.0, |u| traced_wall - u),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    agmdp: PathBuf,
    work_dir: PathBuf,
    tiny: bool,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !matches!(
            flag.as_str(),
            "--workload"
                | "--seed"
                | "--seconds"
                | "--trace"
                | "--agmdp"
                | "--work-dir"
                | "--git-rev"
        ) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("{k} is required"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        agmdp: get("--agmdp")?.into(),
        work_dir: flags
            .get("--work-dir")
            .map_or_else(|| ".bench_build/perfbench".into(), PathBuf::from),
        tiny,
        git_rev: flags
            .get("--git-rev")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

/// The `.agb` input of a workload, generated by `agmdp generate-dataset`
/// on first use and cached in the work directory (generation is benchmark
/// work and stays out of every metric).
fn dataset_file(agmdp: &Path, work_dir: &Path, name: &str, scale: f64) -> Result<PathBuf, String> {
    let dir = work_dir.join("data");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-{scale}-seed{DATASET_SEED}.agb"));
    if path.exists() {
        return Ok(path);
    }
    let tmp = dir.join(format!("{name}-{scale}.{}.tmp.agb", std::process::id()));
    let status = Command::new(agmdp)
        .args([
            "generate-dataset",
            "--name",
            name,
            "--scale",
            &scale.to_string(),
        ])
        .args(["--seed", &DATASET_SEED.to_string(), "--output"])
        .arg(&tmp)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", agmdp.display()))?;
    if !status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("generating {name}@{scale} failed: {status}"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot store {}: {e}", path.display()))?;
    Ok(path)
}

fn render_metrics(
    ctx: &Ctx,
    list: &[(&'static str, &'static str)],
    fill: bool,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in list {
        let value = match ctx.values.get(name) {
            Some(v) => *v,
            None if fill => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let (dataset, scale) = if args.tiny {
        TINY
    } else {
        (workload.dataset, workload.scale)
    };
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let input = dataset_file(&args.agmdp, &args.work_dir, dataset, scale)?;
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match workload.kind {
        Kind::Engine(_) => nproc,
        Kind::Service => service_run::JOB_THREADS,
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        threads,
        agmdp: args.agmdp.clone(),
        work_dir: args.work_dir.clone(),
        run_dir: run_dir.clone(),
        workload: workload.name,
        rec: Recorder::new(args.trace),
        checks: Checks::default(),
        digests: DigestLedger::load(args.work_dir.join("digests.txt")),
        values: BTreeMap::new(),
        env: Vec::new(),
    };
    ctx.env("git_rev", format!("\"{}\"", args.git_rev));
    ctx.env("nproc", nproc.to_string());
    ctx.env("workload", format!("\"{}\"", workload.name));
    ctx.env("dataset", format!("\"{dataset}\""));
    ctx.env("scale", scale.to_string());
    ctx.env("dataset_seed", DATASET_SEED.to_string());
    ctx.env("seed", args.seed.to_string());
    ctx.env("seconds", args.seconds.to_string());
    ctx.env("trace", args.trace.to_string());
    ctx.env("sampling_threads", threads.to_string());

    let outcome = match workload.kind {
        Kind::Engine(model) => engine_run::run(&mut ctx, model, &input),
        Kind::Service => service_run::run(&mut ctx, &input),
    };
    let saved = ctx.digests.save();
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome?;
    saved.map_err(|e| format!("cannot save the digest ledger: {e}"))?;

    if args.trace {
        let dir = args.work_dir.join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| ctx.rec.write_jsonl(&path))
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    for message in &ctx.checks.messages {
        println!("CHECK FAILED: {message}");
    }
    let correct = ctx.checks.failed == 0 && ctx.checks.attempted > 0;
    let error_ratio = stats::ratio(ctx.checks.failed as f64, ctx.checks.attempted as f64);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = ctx.values.get(name) {
            println!("{name:<32} {v:>16.6} {unit}");
        }
    }
    println!("{:<32} {error_ratio:>16.6} ratio", "error_ratio");
    let env: Vec<String> = ctx
        .env
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"env\": {{{}}}}}", env.join(", "));
    let metrics = if args.trace {
        render_metrics(&ctx, &PER_LAYER, true)?
    } else {
        render_metrics(&ctx, &END_TO_END, false)?
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ctx.checks.attempted, ctx.checks.failed
    );
    Ok(correct)
}
