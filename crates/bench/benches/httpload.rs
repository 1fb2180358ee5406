//! `httpload` — closed-loop load test of the `agmdp-service` HTTP front end.
//!
//! Not a Criterion bench: wall-clock throughput of a multi-threaded server
//! under concurrent connections is a grid measurement, not a tight loop.
//! (`harness = false`; the `--bench` flag cargo passes is tolerated.)
//!
//! Boots the event-driven server in-process on an ephemeral port (or aims
//! at `--addr` if given), pre-registers the toy dataset, warms the
//! fitted-parameter cache *and* the release store (so the repeat
//! `/synthesize` workload is a store hit — a sidecar read plus a trusted
//! mmap, no sampling job), then measures a grid of workload × connection
//! mode (keep-alive, or a fresh connection per request) × connection-count
//! cells with `agmdp_bench::loadgen`.
//!
//! ```text
//! cargo bench -p agmdp-bench --bench httpload -- --seconds 2 \
//!     --connections 1,4,16 --strict --out BENCH_http.json
//! ```
//!
//! `--strict` exits nonzero if any cell saw a 5xx that was not a deliberate
//! shed (429/503 + `Retry-After`) — the CI `http-load` job runs this mode.

use std::net::SocketAddr;
use std::time::Duration;

use serde::Serialize;

use agmdp_bench::loadgen::{run_load, ConnMode, LoadOptions, LoadSpec, Workload};
use agmdp_service::engine::{SynthesisEngine, SynthesisRequest};
use agmdp_service::ledger::BudgetLedger;
use agmdp_service::{ReleaseStore, ServerHandle, ServiceConfig};

/// The fixed cache-hit request. Must stay in sync with `warm_engine`.
const SYNTH_BODY: &str = r#"{"dataset":"toy","epsilon":0.5,"seed":7}"#;

/// An engine with the toy dataset registered (effectively unlimited budget),
/// a release store attached, and the fixed request already synthesized once —
/// so every `/synthesize` the load generator sends is an ε-free *store* hit:
/// a sidecar read plus a trusted mmap, no sampling job at all.
fn warm_engine(store_dir: &std::path::Path) -> SynthesisEngine {
    let mut engine = SynthesisEngine::new(BudgetLedger::in_memory());
    engine.set_release_store(ReleaseStore::open(store_dir.to_path_buf()).expect("release store"));
    engine
        .register_dataset("toy", agmdp_datasets::toy_social_graph(), 1e9)
        .expect("register toy dataset");
    let outcome = engine
        .synthesize(&SynthesisRequest::new("toy", 0.5, 7))
        .expect("warm cache + store");
    assert!(!outcome.cache_hit);
    engine
}

fn boot(threads: usize, store_dir: &std::path::Path) -> ServerHandle {
    agmdp_service::server::start_with_engine(
        &ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            ledger_path: None,
            quiet: true,
            ..ServiceConfig::default()
        },
        warm_engine(store_dir),
    )
    .expect("server start")
}

#[derive(Serialize)]
struct Cell {
    mode: &'static str,
    workload: &'static str,
    connections: usize,
    seconds: f64,
    requests: u64,
    ok_2xx: u64,
    sheds: u64,
    client_4xx: u64,
    other_5xx: u64,
    io_errors: u64,
    /// Useful (2xx) responses per second.
    rps: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    seconds_per_cell: f64,
    server_threads: usize,
    cpu_cores: usize,
    cells: Vec<Cell>,
}

fn run_cell(
    addr: SocketAddr,
    mode: ConnMode,
    workload: Workload,
    connections: usize,
    seconds: f64,
) -> Cell {
    let result = run_load(&LoadSpec {
        addr,
        connections,
        duration: Duration::from_secs_f64(seconds),
        mode,
        workload: workload.clone(),
    });
    let cell = Cell {
        mode: mode.label(),
        workload: workload.label(),
        connections,
        seconds: result.elapsed.as_secs_f64(),
        requests: result.counts.requests,
        ok_2xx: result.counts.ok_2xx,
        sheds: result.counts.sheds,
        client_4xx: result.counts.client_4xx,
        other_5xx: result.counts.other_5xx,
        io_errors: result.counts.io_errors,
        rps: result.rps,
    };
    eprintln!(
        "[httpload] {:<11} {:<20} conns={:<3} rps={:>9.1} (2xx={} sheds={} 4xx={} 5xx={} io={})",
        cell.mode,
        cell.workload,
        cell.connections,
        cell.rps,
        cell.ok_2xx,
        cell.sheds,
        cell.client_4xx,
        cell.other_5xx,
        cell.io_errors,
    );
    cell
}

fn main() {
    let options = LoadOptions::parse();
    let workloads = [
        Workload::Healthz,
        Workload::SynthesizeCacheHit {
            body: SYNTH_BODY.to_string(),
        },
    ];
    let store_dir =
        std::env::temp_dir().join(format!("agmdp_httpload_store_{}", std::process::id()));
    let (addr, server) = match options.addr {
        Some(addr) => (addr, None),
        None => {
            std::fs::remove_dir_all(&store_dir).ok();
            let server = boot(options.threads, &store_dir);
            (server.local_addr(), Some(server))
        }
    };
    let mut cells = Vec::new();
    for workload in &workloads {
        for &conns in &options.connections {
            for mode in [ConnMode::KeepAlive, ConnMode::PerRequest] {
                cells.push(run_cell(
                    addr,
                    mode,
                    workload.clone(),
                    conns,
                    options.seconds,
                ));
            }
        }
    }
    if let Some(server) = server {
        server.stop();
        std::fs::remove_dir_all(&store_dir).ok();
    }
    let cpu_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let unexpected_5xx: u64 = cells.iter().map(|c| c.other_5xx).sum();
    let report = Report {
        bench: "http_load",
        seconds_per_cell: options.seconds,
        server_threads: options.threads,
        cpu_cores,
        cells,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    match &options.out {
        Some(path) => {
            std::fs::write(path, &json).expect("write report");
            eprintln!("[httpload] wrote {path}");
        }
        None => println!("{json}"),
    }

    if options.strict && unexpected_5xx > 0 {
        eprintln!("[httpload] STRICT FAILURE: {unexpected_5xx} non-shed 5xx responses");
        std::process::exit(1);
    }
}
