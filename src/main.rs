//! `agmdp` — command-line interface for the AGM-DP workflow.
//!
//! Subcommands:
//!
//! * `stats <graph>` — print the structural and attribute statistics of a
//!   graph in either interchange format (text or binary, auto-detected).
//! * `synthesize --input <graph> --output <graph> --epsilon <ε> [options]` —
//!   run the end-to-end AGM-DP pipeline and write a publishable synthetic
//!   graph.
//! * `convert --input <graph> --output <graph> [--to text|binary]` — convert
//!   between the text and binary (`.agb`) graph formats, either direction.
//! * `generate-dataset --name <lastfm|petster|epinions|pokec> [--scale f]
//!   --output <graph>` — write one of the synthetic dataset stand-ins to disk.
//! * `serve [--addr <ip:port>] [--threads <n>] [--ledger-path <file>]
//!   [--release-store <dir>] [--max-conns <n>] [--queue-depth <n>]
//!   [--rate-limit <rps>] [--quiet]` — run the
//!   multi-tenant synthesis server (event-driven keep-alive front end with
//!   explicit load shedding) with a persistent privacy-budget ledger, an
//!   optional on-disk content-addressed release store, and a Prometheus
//!   `GET /metrics` endpoint.
//! * `evaluate --plan <file> [--out <dir>] [--markdown <file>] [options]` —
//!   run a declarative experiment plan (the paper's evaluation) and emit
//!   per-trial and aggregate artifacts as JSON/CSV/markdown.
//! * `lint [--root <dir>] [--json]` — run the workspace invariant checker
//!   (`agmdp-lint`) over the source tree; exits nonzero on any unwaived
//!   finding.
//!
//! Run `agmdp help` for the full usage text.

mod args;

use std::process::ExitCode;
use std::time::Duration;

use rand::SeedableRng;

use agmdp::core::correlations_dp::CorrelationMethod;
use agmdp::core::workflow::{synthesize, AgmConfig, Privacy, StructuralModelKind};
use agmdp::core::{ThetaF, ThetaX};
use agmdp::datasets::{generate_dataset, DatasetSpec};
use agmdp::eval::EvalPlan;
use agmdp::graph::clustering::{average_local_clustering, global_clustering};
use agmdp::graph::components::connected_components;
use agmdp::graph::triangles::count_triangles;
use agmdp::graph::{io, GraphView};
use agmdp::metrics::GraphComparison;
use agmdp::service::{self, ServiceConfig};

use args::FlagSet;

const USAGE: &str = "\
agmdp — differentially private synthesis of attributed social graphs

USAGE:
    agmdp stats <graph-file>
    agmdp synthesize --input <graph> --output <graph> --epsilon <e>
                     [--model fcl|tricycle] [--method truncation|smooth|sample-aggregate|naive]
                     [--k <truncation-k>] [--iterations <n>] [--seed <s>] [--non-private]
                     [--threads <n>]
    agmdp convert    --input <graph> --output <graph> [--to text|binary]
    agmdp generate-dataset --name <lastfm|petster|epinions|pokec> --output <graph>
                     [--scale <0..1>] [--seed <s>]
    agmdp serve      [--addr <ip:port>] [--threads <n>] [--ledger-path <file>]
                     [--release-store <dir>] [--max-conns <n>]
                     [--queue-depth <n>] [--rate-limit <rps>]
                     [--max-body-bytes <n>] [--read-timeout-secs <s>]
                     [--write-timeout-secs <s>] [--idle-timeout-secs <s>]
                     [--quiet] [--debug-endpoints]
    agmdp evaluate   --plan <plan-file> [--out <dir>] [--markdown <file>]
                     [--repetitions <n>] [--threads <n>] [--seed <s>]
    agmdp lint       [--root <dir>] [--json]
    agmdp help

Graph files use either interchange format documented in `agmdp::graph::io`:
the line-oriented text format (nodes/attr/edge records) or the binary `.agb`
container (versioned little-endian CSR arrays with a trailing checksum).
Every file-reading command auto-detects the format; writers pick the format
from the output extension (`.agb` -> binary) unless `convert --to`
overrides it. `convert` round-trips losslessly: text -> binary -> text
reproduces agmdp-written text files byte for byte (hand-authored files
come back in canonical form with identical content). `serve` exposes the
JSON endpoints GET /healthz, GET /datasets, POST /datasets,
POST /synthesize, GET /jobs/:id, GET /budget/:dataset and GET /evaluate,
plus the Prometheus text exposition at GET /metrics; POST /datasets 'path'
registrations accept both formats. The server writes one JSON access-log
line per request (and one span line per synthesis stage) to stderr;
`serve --quiet` suppresses them without affecting /metrics.

`synthesize --threads <n>` runs the sampling phase on n worker threads; the
output graph is bit-identical to --threads 1 at the same seed (parameter
learning always stays single-threaded). `serve --threads <n>` sizes the HTTP
worker pool; per-request sampling threads are the `threads` field of the
POST /synthesize body.

`evaluate` runs the experiment plan (format documented in
`agmdp::eval::plan`), prints the aggregate utility table, and — with --out —
writes report.json, aggregates.json, trials.csv and aggregates.csv into the
directory. --markdown writes the tables `docs/EVALUATION.md` embeds. The
--repetitions/--threads/--seed flags override the plan; results are
bit-identical at every --threads value.

`lint` runs the static invariant checker (`agmdp::analysis`) over the
workspace sources: determinism (no ambient RNGs, wall clocks, or
hash-ordered containers in the deterministic crates), epsilon-flow (noise
primitives only inside the privacy boundary), panic-freedom (no panicking
constructs in the service request path) and hygiene (no stray debug
printing). Findings are silenced only by an inline
`// agmdp: allow(<lint>, reason = \"...\")` waiver; the contracts are
documented in docs/INVARIANTS.md. --root defaults to the current
directory; --json emits the stable report CI diffs.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("synthesize") => cmd_synthesize(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("generate-dataset") => cmd_generate_dataset(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_stats<G: GraphView>(graph: &G) {
    let comps = connected_components(graph);
    println!("nodes               : {}", graph.num_nodes());
    println!("edges               : {}", graph.num_edges());
    println!("attribute width (w) : {}", graph.schema().width());
    println!("max degree          : {}", graph.max_degree());
    println!("avg degree          : {:.2}", graph.avg_degree());
    println!("triangles           : {}", count_triangles(graph));
    println!(
        "avg local clustering: {:.4}",
        average_local_clustering(graph)
    );
    println!("global clustering   : {:.4}", global_clustering(graph));
    println!("connected components: {}", comps.count());
    if graph.schema().width() > 0 {
        let tx = ThetaX::from_graph(graph);
        let tf = ThetaF::from_graph(graph);
        println!("Theta_X             : {:?}", round3(tx.probabilities()));
        println!("Theta_F             : {:?}", round3(tf.probabilities()));
    }
}

fn round3(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats requires a graph file argument")?;
    // Auto-detects text vs binary and yields the frozen CSR snapshot the
    // read-only statistics run on.
    let graph = io::load_frozen_file(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    println!("graph: {path}");
    print_stats(&graph);
    Ok(())
}

/// Builds the correlation method from `--method`/`--k` via the parser shared
/// with the service API (`CorrelationMethod::from_parts`).
fn correlation_method(flags: &FlagSet) -> Result<CorrelationMethod, String> {
    let k: Option<usize> = flags.get_parsed("--k", "a positive integer")?;
    CorrelationMethod::from_parts(flags.get("--method").unwrap_or("truncation"), k, 1e-6)
}

fn cmd_synthesize(args: &[String]) -> Result<(), String> {
    let flags = args::parse(
        args,
        &[
            "--input",
            "--output",
            "--epsilon",
            "--model",
            "--method",
            "--k",
            "--iterations",
            "--seed",
            "--threads",
        ],
        &["--non-private"],
    )?;
    let input = flags.require("--input", "<graph>")?.to_string();
    let output = flags.require("--output", "<graph>")?.to_string();
    let privacy = if flags.has("--non-private") {
        Privacy::NonPrivate
    } else {
        let epsilon: f64 = flags
            .get_parsed("--epsilon", "a number")?
            .ok_or("--epsilon <e> is required (or pass --non-private)")?;
        Privacy::Dp { epsilon }
    };
    let model = StructuralModelKind::parse(flags.get("--model").unwrap_or("tricycle"))?;
    let correlation_method = correlation_method(&flags)?;
    let refinement_iterations = flags.get_parsed_or("--iterations", "a positive integer", 3)?;
    let seed: u64 = flags.get_parsed_or("--seed", "an integer", 2016)?;
    let threads: usize = flags.get_parsed_or("--threads", "a positive integer", 1)?;

    // Auto-detects the text or binary interchange format from the file's
    // leading bytes; the fit and the statistics read the CSR graph in place.
    let graph = io::load_frozen_file(&input).map_err(|e| format!("failed to read {input}: {e}"))?;
    let config = AgmConfig {
        privacy,
        model,
        correlation_method,
        refinement_iterations,
        orphan_postprocessing: true,
        threads,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let synthetic =
        synthesize(&graph, &config, &mut rng).map_err(|e| format!("synthesis failed: {e}"))?;
    write_graph_file(&synthetic, &output, None)?;

    // The synthetic graph is done mutating: freeze it once and run the
    // statistics and the fidelity report on the CSR snapshots.
    let frozen_synthetic = synthetic.freeze();
    println!("input  ({input}):");
    print_stats(&graph);
    println!("\nsynthetic ({output}):");
    print_stats(&frozen_synthetic);
    let report = GraphComparison::compare(&graph, &frozen_synthetic);
    println!("\nfidelity: KS(degree) = {:.3}, H(degree) = {:.3}, triangle RE = {:.3}, clustering RE = {:.3}, m RE = {:.4}",
        report.ks_degree,
        report.hellinger_degree,
        report.triangle_count_re,
        report.avg_clustering_re,
        report.edge_count_re,
    );
    match config.privacy {
        Privacy::NonPrivate => println!("privacy: non-private (exact parameters)"),
        Privacy::Dp { epsilon } => println!("privacy: {epsilon}-differential privacy"),
    }
    Ok(())
}

/// Writes `g` to `path` in the text or binary interchange format.
///
/// `forced` is the `--to text|binary` override; without it the format is
/// inferred from the output extension (`.agb` → binary, anything else →
/// text).
fn write_graph_file<G: GraphView>(g: &G, path: &str, forced: Option<&str>) -> Result<(), String> {
    let binary = match forced {
        Some("binary") => true,
        Some("text") => false,
        Some(other) => return Err(format!("--to must be 'text' or 'binary', got '{other}'")),
        None => std::path::Path::new(path)
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case(io::BINARY_EXTENSION)),
    };
    if binary {
        io::write_binary_file(g, path).map_err(|e| format!("failed to write {path}: {e}"))
    } else {
        io::write_file(g, path).map_err(|e| format!("failed to write {path}: {e}"))
    }
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let flags = args::parse(args, &["--input", "--output", "--to"], &[])?;
    let input = flags.require("--input", "<graph>")?.to_string();
    let output = flags.require("--output", "<graph>")?.to_string();
    let to = flags.get("--to");
    // Load in either format (auto-detected) straight into the CSR snapshot —
    // conversion never mutates, so the frozen form serialises both targets.
    let graph = io::load_frozen_file(&input).map_err(|e| format!("failed to read {input}: {e}"))?;
    write_graph_file(&graph, &output, to)?;
    println!(
        "converted {input} -> {output} ({} nodes, {} edges, width {})",
        graph.num_nodes(),
        graph.num_edges(),
        graph.schema().width()
    );
    Ok(())
}

fn cmd_generate_dataset(args: &[String]) -> Result<(), String> {
    let flags = args::parse(args, &["--name", "--output", "--scale", "--seed"], &[])?;
    let name = flags.require("--name", "<dataset>")?;
    let output = flags.require("--output", "<graph>")?.to_string();
    let scale: f64 = flags.get_parsed_or("--scale", "a number in (0, 1]", 1.0)?;
    let seed: u64 = flags.get_parsed_or("--seed", "an integer", 2016)?;
    let spec = match name {
        "lastfm" => DatasetSpec::lastfm(),
        "petster" => DatasetSpec::petster(),
        "epinions" => DatasetSpec::epinions(),
        "pokec" => DatasetSpec::pokec(),
        other => return Err(format!("unknown dataset '{other}'")),
    }
    .scaled(scale);
    let graph =
        generate_dataset(&spec, seed).map_err(|e| format!("dataset generation failed: {e}"))?;
    write_graph_file(&graph, &output, None)?;
    println!(
        "wrote {} ({} nodes, {} edges) to {output}",
        spec.name,
        graph.num_nodes(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let flags = args::parse(
        args,
        &[
            "--plan",
            "--out",
            "--markdown",
            "--repetitions",
            "--threads",
            "--seed",
        ],
        &[],
    )?;
    let plan_path = flags.require("--plan", "<plan-file>")?.to_string();
    let text = std::fs::read_to_string(&plan_path)
        .map_err(|e| format!("failed to read {plan_path}: {e}"))?;
    let mut plan = EvalPlan::parse(&text).map_err(|e| format!("{plan_path}: {e}"))?;
    if let Some(repetitions) = flags.get_parsed("--repetitions", "a positive integer")? {
        plan.repetitions = repetitions;
    }
    if let Some(threads) = flags.get_parsed("--threads", "a positive integer")? {
        plan.threads = threads;
    }
    if let Some(seed) = flags.get_parsed("--seed", "an integer")? {
        plan.seed = seed;
    }

    let cells = plan.datasets.len() * plan.epsilons.len() * plan.models.len();
    println!(
        "running plan '{}' from {plan_path}: {cells} cells × {} repetitions = {} trials on {} thread(s)",
        plan.name,
        plan.repetitions,
        cells * plan.repetitions,
        plan.threads
    );
    let report = plan.run().map_err(|e| e.to_string())?;
    println!();
    print!("{}", report.to_text_table());

    if let Some(dir) = flags.get("--out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("failed to create {}: {e}", dir.display()))?;
        let artifacts: [(&str, String); 4] = [
            ("report.json", report.to_json()),
            ("aggregates.json", report.aggregates_json()),
            ("trials.csv", report.trials_csv()),
            ("aggregates.csv", report.aggregates_csv()),
        ];
        for (name, contents) in artifacts {
            let path = dir.join(name);
            std::fs::write(&path, contents)
                .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        }
        println!(
            "\nwrote report.json, aggregates.json, trials.csv, aggregates.csv to {}",
            dir.display()
        );
    }
    if let Some(md_path) = flags.get("--markdown") {
        std::fs::write(md_path, report.to_markdown())
            .map_err(|e| format!("failed to write {md_path}: {e}"))?;
        println!("wrote markdown tables to {md_path}");
    }
    // Echo every result-affecting override so the printed command really
    // reproduces this run (--threads is omitted: scheduling only).
    println!(
        "\nreproduce with: agmdp evaluate --plan {plan_path} --seed {} --repetitions {}",
        plan.seed, plan.repetitions
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let flags = args::parse(args, &["--root"], &["--json"])?;
    let root = std::path::Path::new(flags.get("--root").unwrap_or("."));
    let report = agmdp::analysis::lint_workspace(root).map_err(|e| e.to_string())?;
    if flags.has("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    match report.unwaived_count() {
        0 => Ok(()),
        n => Err(format!("{n} unwaived lint finding(s)")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = args::parse(
        args,
        &[
            "--addr",
            "--threads",
            "--ledger-path",
            "--release-store",
            "--transport",
            "--max-conns",
            "--queue-depth",
            "--rate-limit",
            "--max-body-bytes",
            "--read-timeout-secs",
            "--write-timeout-secs",
            "--idle-timeout-secs",
        ],
        &["--quiet", "--debug-endpoints"],
    )?;
    // `--transport event` names the only front end; it stays accepted
    // because existing command lines pass it.
    if let Some(other) = flags.get("--transport").filter(|&t| t != "event") {
        return Err(format!(
            "--transport accepts only 'event' (the blocking transport was removed), got '{other}'"
        ));
    }
    let default = ServiceConfig::default();
    let config = ServiceConfig {
        addr: flags.get("--addr").unwrap_or(&default.addr).to_string(),
        threads: flags.get_parsed_or("--threads", "a positive integer", default.threads)?,
        ledger_path: flags.get("--ledger-path").map(Into::into),
        release_store: flags.get("--release-store").map(Into::into),
        quiet: flags.has("--quiet"),
        max_conns: flags.get_parsed_or("--max-conns", "a positive integer", default.max_conns)?,
        queue_depth: flags.get_parsed_or(
            "--queue-depth",
            "a positive integer",
            default.queue_depth,
        )?,
        rate_limit: flags.get_parsed("--rate-limit", "requests per second")?,
        max_body_bytes: flags.get_parsed_or(
            "--max-body-bytes",
            "a positive integer",
            default.max_body_bytes,
        )?,
        read_timeout: Duration::from_secs(flags.get_parsed_or(
            "--read-timeout-secs",
            "seconds",
            default.read_timeout.as_secs(),
        )?),
        write_timeout: Duration::from_secs(flags.get_parsed_or(
            "--write-timeout-secs",
            "seconds",
            default.write_timeout.as_secs(),
        )?),
        idle_timeout: Duration::from_secs(flags.get_parsed_or(
            "--idle-timeout-secs",
            "seconds",
            default.idle_timeout.as_secs(),
        )?),
        debug_endpoints: flags.has("--debug-endpoints"),
        ..default
    };
    let handle = service::start(&config).map_err(|e| format!("failed to start server: {e}"))?;
    println!(
        "agmdp-service listening on http://{} (event transport, {} worker threads, max-conns {}, queue-depth {}, rate-limit {}, ledger: {}, access log: {})",
        handle.local_addr(),
        config.threads,
        config.max_conns,
        config.queue_depth,
        config
            .rate_limit
            .map_or("off".to_string(), |r| format!("{r}/s per dataset")),
        config
            .ledger_path
            .as_deref()
            .map_or("in-memory".to_string(), |p| p.display().to_string()),
        if config.quiet { "off" } else { "stderr" },
    );
    println!(
        "release store: {}",
        config
            .release_store
            .as_deref()
            .map_or("off".to_string(), |p| p.display().to_string()),
    );
    println!("endpoints: GET /healthz · GET /datasets · POST /datasets · POST /synthesize · GET /jobs/:id · GET /budget/:dataset · GET /evaluate · GET /metrics");
    handle.wait();
    Ok(())
}
