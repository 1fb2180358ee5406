//! End-to-end test of the `agmdp-service` HTTP server over real sockets:
//! boot on an ephemeral port, register a dataset, run two synthesize jobs,
//! watch the ledger decrease, get refused once the budget is exhausted, and
//! verify the ledger state survives a server restart. The `agmdp serve`
//! command line that scripts depend on is pinned here too.
//!
//! `every_route_matches_the_pinned_transcript` compares the raw response
//! bytes of a fixed script over every route with
//! `tests/golden/service_transcript.txt`, byte for byte. A diff there means
//! a response changed; the test writes what it saw to
//! `target/tmp/service_transcript.txt`, and if the change is intended,
//! re-pin with:
//!
//! ```text
//! cargo test --test service_http every_route_matches_the_pinned_transcript
//! cp target/tmp/service_transcript.txt tests/golden/service_transcript.txt
//! ```
//!
//! The server's reactor needs epoll, so the suite runs on Linux only.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::Duration;

use agmdp::graph::io;
use agmdp::service::json;
use agmdp::service::{ServerHandle, ServiceConfig};
use serde::Value;

mod common;
use common::{connect, exchange, request_text};

// ---------------------------------------------------------------------------
// A tiny raw-TCP HTTP client (the repo vendors no HTTP client either), on the
// shared socket helpers in `common`.
// ---------------------------------------------------------------------------

struct Reply {
    status: u16,
    body: Value,
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let (status, text) = request_text(addr, method, path, body.unwrap_or(""));
    let body = json::parse(&text).unwrap_or_else(|e| panic!("non-JSON body ({e}): {text:?}"));
    Reply { status, body }
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    request(addr, "GET", path, None)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    request(addr, "POST", path, Some(body))
}

/// Extracts the value of an unlabelled metric from a Prometheus exposition.
fn parse_metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in {text}"))
}

fn field_f64(value: &Value, key: &str) -> f64 {
    json::get(value, key)
        .and_then(json::as_f64)
        .unwrap_or_else(|| panic!("missing number '{key}' in {value:?}"))
}

fn field_u64(value: &Value, key: &str) -> u64 {
    json::get(value, key)
        .and_then(json::as_u64)
        .unwrap_or_else(|| panic!("missing integer '{key}' in {value:?}"))
}

fn field_bool(value: &Value, key: &str) -> bool {
    json::get(value, key)
        .and_then(json::as_bool)
        .unwrap_or_else(|| panic!("missing bool '{key}' in {value:?}"))
}

/// Polls `GET /jobs/:id` until the job leaves queued/running.
fn wait_for_job(addr: SocketAddr, job_id: u64) -> Value {
    for _ in 0..1200 {
        let reply = get(addr, &format!("/jobs/{job_id}"));
        assert_eq!(reply.status, 200);
        let status = json::get(&reply.body, "status")
            .and_then(json::as_str)
            .expect("job status")
            .to_string();
        match status.as_str() {
            "queued" | "running" => std::thread::sleep(Duration::from_millis(25)),
            "completed" => return reply.body,
            other => panic!("job {job_id} ended as {other}: {:?}", reply.body),
        }
    }
    panic!("job {job_id} did not complete in time");
}

fn boot(ledger_path: &std::path::Path) -> ServerHandle {
    agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(), // ephemeral port
        threads: 3,
        ledger_path: Some(ledger_path.to_path_buf()),
        quiet: true,
        ..ServiceConfig::default()
    })
    .expect("server start")
}

/// A quiet server on an ephemeral port with `threads` workers, an in-memory
/// ledger and, if given, a release store.
fn boot_with(threads: usize, release_store: Option<std::path::PathBuf>) -> ServerHandle {
    agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ledger_path: None,
        quiet: true,
        release_store,
        ..ServiceConfig::default()
    })
    .expect("server start")
}

/// The `POST /datasets` body that registers the toy graph inline as `toy`.
fn register_toy(budget: f64) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("name".to_string(), Value::Str("toy".to_string())),
        ("budget".to_string(), Value::Float(budget)),
        (
            "graph".to_string(),
            Value::Str(io::to_text(&agmdp::datasets::toy_social_graph())),
        ),
    ]))
    .unwrap()
}

#[test]
fn budget_ledger_enforces_and_survives_restart_over_http() {
    let dir = std::env::temp_dir().join("agmdp_service_http_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ledger_path = dir.join(format!("budget_{}.ledger", std::process::id()));
    std::fs::remove_file(&ledger_path).ok();

    let register_body = register_toy(1.0);

    let server = boot(&ledger_path);
    let addr = server.local_addr();

    // Liveness and an empty registry.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        json::get(&health.body, "status").and_then(json::as_str),
        Some("ok")
    );
    assert_eq!(field_u64(&health.body, "datasets"), 0);

    // Register the dataset with a total budget of ε = 1.
    let created = post(addr, "/datasets", &register_body);
    assert_eq!(created.status, 201, "{:?}", created.body);
    let listed = get(addr, "/datasets");
    assert_eq!(listed.status, 200);
    match json::get(&listed.body, "datasets") {
        Some(Value::Array(items)) => assert_eq!(items.len(), 1),
        other => panic!("expected dataset array, got {other:?}"),
    }

    // Two synthesize jobs at ε = 0.4 each: both succeed, ledger decreases.
    let first = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.4,"seed":11,"return_graph":true}"#,
    );
    assert_eq!(first.status, 202, "{:?}", first.body);
    assert!(!field_bool(&first.body, "cache_hit"));
    let first_job = wait_for_job(addr, field_u64(&first.body, "job_id"));
    let first_result = json::get(&first_job, "result").expect("result");
    let stats = json::get(first_result, "stats").expect("stats");
    assert!(field_u64(stats, "edges") > 0);
    let first_graph = json::get(first_result, "graph")
        .and_then(json::as_str)
        .expect("graph text")
        .to_string();

    let second = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.4,"seed":22}"#,
    );
    assert_eq!(second.status, 202, "{:?}", second.body);
    wait_for_job(addr, field_u64(&second.body, "job_id"));

    let budget = get(addr, "/budget/toy");
    assert_eq!(budget.status, 200);
    assert!((field_f64(&budget.body, "total") - 1.0).abs() < 1e-12);
    assert!((field_f64(&budget.body, "spent") - 0.8).abs() < 1e-12);
    assert!((field_f64(&budget.body, "remaining") - 0.2).abs() < 1e-12);

    // A third request over the remaining budget is refused with 402 without
    // creating a job.
    let refused = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.4,"seed":33}"#,
    );
    assert_eq!(refused.status, 402, "{:?}", refused.body);
    assert_eq!(
        json::get(&refused.body, "error").and_then(json::as_str),
        Some("budget_exhausted")
    );
    // The refused request did not move the ledger.
    assert!((field_f64(&get(addr, "/budget/toy").body, "spent") - 0.8).abs() < 1e-12);

    // A repeat of the first request is a cache hit: allowed despite only 0.2
    // remaining, spends nothing (post-processing invariance), and reproduces
    // the exact same synthetic graph.
    let repeat = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.4,"seed":11,"return_graph":true}"#,
    );
    assert_eq!(repeat.status, 202, "{:?}", repeat.body);
    assert!(field_bool(&repeat.body, "cache_hit"));
    assert_eq!(field_f64(&repeat.body, "epsilon_spent"), 0.0);
    let repeat_job = wait_for_job(addr, field_u64(&repeat.body, "job_id"));
    let repeat_graph = json::get(&repeat_job, "result")
        .and_then(|r| json::get(r, "graph"))
        .and_then(json::as_str)
        .expect("graph text");
    assert_eq!(repeat_graph, first_graph);
    assert!((field_f64(&get(addr, "/budget/toy").body, "spent") - 0.8).abs() < 1e-12);

    // Restart the server on the same ledger journal.
    server.stop();
    let server = boot(&ledger_path);
    let addr = server.local_addr();

    // The registry is in-memory, so the dataset is re-registered — but the
    // replayed ledger still knows 0.8 of the 1.0 is gone.
    let recreated = post(addr, "/datasets", &register_body);
    assert_eq!(recreated.status, 201, "{:?}", recreated.body);
    let budget = get(addr, "/budget/toy");
    assert!((field_f64(&budget.body, "spent") - 0.8).abs() < 1e-12);

    // Still refused: restarts must not refill budgets.
    let refused = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.4,"seed":44}"#,
    );
    assert_eq!(refused.status, 402, "{:?}", refused.body);

    // But the remaining 0.2 is still spendable.
    let small = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.2,"seed":55}"#,
    );
    assert_eq!(small.status, 202, "{:?}", small.body);
    wait_for_job(addr, field_u64(&small.body, "job_id"));
    assert!(field_f64(&get(addr, "/budget/toy").body, "remaining") < 1e-9);

    server.stop();
    std::fs::remove_file(&ledger_path).ok();
}

#[test]
fn metrics_expose_request_counts_cache_outcomes_and_ledger_gauges() {
    let store_dir = std::env::temp_dir().join(format!(
        "agmdp_service_http_metrics_store_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&store_dir).ok();
    let server = boot_with(2, Some(store_dir.clone()));
    let addr = server.local_addr();

    assert_eq!(post(addr, "/datasets", &register_toy(2.0)).status, 201);

    // A cold job, then an identical repeat: the repeat is served straight
    // from the on-disk release store — no job runs, the fit cache is never
    // even consulted.
    let body = r#"{"dataset":"toy","epsilon":0.5,"seed":7}"#;
    let first = post(addr, "/synthesize", body);
    assert_eq!(first.status, 202, "{:?}", first.body);
    assert!(!field_bool(&first.body, "cache_hit"));
    wait_for_job(addr, field_u64(&first.body, "job_id"));
    let second = post(addr, "/synthesize", body);
    assert_eq!(second.status, 202, "{:?}", second.body);
    assert!(field_bool(&second.body, "cache_hit"));
    assert!(field_bool(&second.body, "store_hit"));
    wait_for_job(addr, field_u64(&second.body, "job_id"));

    // Same fit parameters but a different refinement count: a *store* miss
    // (refinement is part of the release key) that becomes a *fit-cache* hit
    // when the job runs (refinement is post-processing, outside the fit key).
    let refined = post(
        addr,
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.5,"seed":7,"iterations":5}"#,
    );
    assert_eq!(refined.status, 202, "{:?}", refined.body);
    assert!(json::get(&refined.body, "store_hit").is_none());
    wait_for_job(addr, field_u64(&refined.body, "job_id"));

    let budget = get(addr, "/budget/toy");
    let spent = field_f64(&budget.body, "spent");
    let remaining = field_f64(&budget.body, "remaining");

    let (status, text) = request_text(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    // Request counts by endpoint, method, and status...
    assert!(
        text.contains(
            "agmdp_requests_total{endpoint=\"/synthesize\",method=\"POST\",status=\"202\"} 3"
        ),
        "{text}"
    );
    assert!(
        text.contains(
            "agmdp_requests_total{endpoint=\"/datasets\",method=\"POST\",status=\"201\"} 1"
        ),
        "{text}"
    );
    // ...exactly one cold fit and one fit-cache hit; only the two jobs that
    // actually ran count as finished — the store hit never became a job...
    assert!(text.contains("agmdp_fit_cache_misses_total 1"), "{text}");
    assert!(text.contains("agmdp_fit_cache_hits_total 1"), "{text}");
    assert!(
        text.contains("agmdp_jobs_finished_total{outcome=\"completed\"} 2"),
        "{text}"
    );
    // ...one release-store hit (the byte-identical replay), two misses (the
    // cold request and the different refinement count), and occupancy gauges
    // walked from the store directory at scrape time...
    assert!(text.contains("agmdp_release_store_hits_total 1"), "{text}");
    assert!(
        text.contains("agmdp_release_store_misses_total 2"),
        "{text}"
    );
    let stored_bytes = parse_metric(&text, "agmdp_release_store_bytes_total");
    assert!(stored_bytes > 0.0, "{text}");
    assert_eq!(parse_metric(&text, "agmdp_release_store_releases"), 2.0);
    assert!(
        parse_metric(&text, "agmdp_release_store_size_bytes") >= stored_bytes,
        "{text}"
    );
    // ...the fit stage timed exactly once (the hit skipped learning)...
    assert!(
        text.contains("agmdp_stage_duration_seconds_count{stage=\"fit\"} 1"),
        "{text}"
    );
    // ...and ledger gauges agreeing with GET /budget/toy.
    assert!(
        text.contains("agmdp_epsilon_total{dataset=\"toy\"} 2"),
        "{text}"
    );
    assert!(
        text.contains(&format!("agmdp_epsilon_spent{{dataset=\"toy\"}} {spent}")),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "agmdp_epsilon_remaining{{dataset=\"toy\"}} {remaining}"
        )),
        "{text}"
    );

    server.stop();
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn malformed_requests_are_rejected_cleanly() {
    let server = boot_with(2, None);
    let addr = server.local_addr();

    assert_eq!(get(addr, "/no-such-route").status, 404);
    assert_eq!(post(addr, "/synthesize", "{not json").status, 400);
    assert_eq!(
        post(addr, "/synthesize", r#"{"dataset":"ghost","epsilon":1.0}"#).status,
        404
    );
    assert_eq!(get(addr, "/budget/ghost").status, 404);

    // A raw non-HTTP blob gets a 400, not a hang or a crash.
    let raw = exchange(addr, b"\x00\x01\x02 garbage\r\n\r\n");
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 4"), "{raw:?}");

    server.stop();
}

// ---------------------------------------------------------------------------
// Keep-alive and byte-identity across thread counts.
// ---------------------------------------------------------------------------

/// The probe script for byte-identity checks: deterministic endpoints only
/// (`/metrics` is excluded — its counters depend on scrape order).
const PROBES: &[(&str, &str, &str)] = &[
    ("GET", "/healthz", ""),
    ("GET", "/no-such-route", ""),
    ("POST", "/synthesize", "{not json"),
    ("DELETE", "/healthz", ""),
    ("GET", "/budget/ghost", ""),
];

/// Runs the probe script as a single pipelined keep-alive connection and
/// returns the concatenated response bytes (read to EOF after the final
/// `Connection: close`).
fn keepalive_script(addr: SocketAddr) -> Vec<u8> {
    let mut stream = connect(addr);
    let mut script = Vec::new();
    for (i, (method, path, body)) in PROBES.iter().enumerate() {
        let last = i + 1 == PROBES.len();
        let connection = if last { "close" } else { "keep-alive" };
        script.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        script.extend_from_slice(body.as_bytes());
    }
    stream.write_all(&script).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read responses");
    raw
}

#[test]
fn keepalive_pipeline_is_byte_identical_across_thread_counts() {
    let one = boot_with(1, None);
    let many = boot_with(4, None);
    let from_one = keepalive_script(one.local_addr());
    let from_many = keepalive_script(many.local_addr());
    assert!(!from_one.is_empty());
    // All five responses came back over the single connection, in order.
    let text = String::from_utf8_lossy(&from_one);
    assert_eq!(text.matches("HTTP/1.1 ").count(), PROBES.len(), "{text}");
    assert_eq!(text.matches("Connection: keep-alive").count(), 4, "{text}");
    assert_eq!(text.matches("Connection: close").count(), 1, "{text}");
    assert_eq!(
        from_one,
        from_many,
        "thread-count-dependent bytes:\n1: {:?}\n4: {:?}",
        String::from_utf8_lossy(&from_one),
        String::from_utf8_lossy(&from_many),
    );
    one.stop();
    many.stop();
}

/// A truncation `k` below 2 is refused with a 400 before admission: the
/// `Lap(2k/ε)` calibration does not hold at k = 1, and k = 0 cannot fit, so
/// neither may draw ε from the ledger.
#[test]
fn truncation_k_below_two_is_refused_before_any_epsilon_is_drawn() {
    let server = boot_with(2, None);
    let addr = server.local_addr();
    assert_eq!(post(addr, "/datasets", &register_toy(1.0)).status, 201);
    let budget = get(addr, "/budget/toy");
    assert_eq!(budget.status, 200);

    for body in [
        r#"{"dataset":"toy","epsilon":0.5,"k":1}"#,
        r#"{"dataset":"toy","epsilon":0.5,"k":0}"#,
        r#"{"dataset":"toy","epsilon":0.5,"method":"truncation","k":1}"#,
    ] {
        let reply = post(addr, "/synthesize", body);
        assert_eq!(reply.status, 400, "{body}: {:?}", reply.body);
    }
    let after = get(addr, "/budget/toy");
    assert_eq!(after.status, 200);
    assert_eq!(after.body, budget.body);
    assert_eq!(field_f64(&after.body, "spent"), 0.0);

    server.stop();
}

/// `agmdp serve` still accepts `--transport event` (scripts pass it) and
/// prints the listen line they parse; the removed blocking transport is a
/// startup error, not a silent fallback.
#[test]
fn serve_accepts_only_the_event_transport() {
    let blocking = Command::new(env!("CARGO_BIN_EXE_agmdp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--transport", "blocking"])
        .stdin(Stdio::null())
        .output()
        .expect("run agmdp serve");
    assert!(!blocking.status.success());
    let stderr = String::from_utf8_lossy(&blocking.stderr);
    assert!(
        stderr.contains("blocking transport was removed"),
        "{stderr}"
    );

    let mut event = Command::new(env!("CARGO_BIN_EXE_agmdp"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--transport",
            "event",
            "--quiet",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn agmdp serve");
    let mut line = String::new();
    BufReader::new(event.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read listen line");
    // `listening on http://<addr> `, the address ended by a space.
    let addr: Option<SocketAddr> = line
        .split("listening on http://")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|a| a.parse().ok());
    let healthz = addr.map(|addr| get(addr, "/healthz").status);
    event.kill().ok();
    event.wait().ok();
    assert_eq!(healthz, Some(200), "listen line {line:?}");
}

// ---------------------------------------------------------------------------
// The response-byte transcript of every route.
// ---------------------------------------------------------------------------

/// The pinned transcript: one `=== <request>` line per exchange, followed by
/// the raw response bytes (status line, headers and body).
const TRANSCRIPT_GOLDEN: &str = include_str!("golden/service_transcript.txt");

/// Records a fixed `Connection: close` script against one server.
struct Transcript {
    addr: SocketAddr,
    text: Vec<u8>,
}

impl Transcript {
    fn record(&mut self, label: &str, raw: &[u8]) -> Vec<u8> {
        let reply = exchange(self.addr, raw);
        self.text
            .extend_from_slice(format!("=== {label}\n").as_bytes());
        self.text.extend_from_slice(&reply);
        self.text.push(b'\n');
        reply
    }

    /// One request with a body; the label is the request line plus the body
    /// when it is short text.
    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let label = match std::str::from_utf8(body) {
            Ok(text) if text.len() <= 160 => format!("{method} {path} {text}"),
            _ => format!("{method} {path} <{} bytes>", body.len()),
        };
        self.send_as(label.trim_end(), method, path, body)
    }

    fn send_as(&mut self, label: &str, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        self.record(label, &raw)
    }

    /// Sends a `/synthesize` body, polls its job unrecorded until it
    /// finishes, and records the final poll.
    fn synthesize(&mut self, body: &str) {
        let reply = self.send("POST", "/synthesize", body.as_bytes());
        let reply = String::from_utf8(reply).unwrap();
        let accepted = reply.split_once("\r\n\r\n").map(|(_, b)| b).unwrap();
        let job_id = field_u64(&json::parse(accepted).unwrap(), "job_id");
        wait_for_job(self.addr, job_id);
        self.send("GET", &format!("/jobs/{job_id}"), b"");
    }
}

/// Pins the response bytes of every route: registration (inline, from a
/// path, repeated, conflicting), listing, cold, fit-cache-hit, store-hit and
/// FCL-smooth jobs, each 400 of both body parsers in field order, 402, 404
/// (`/evaluate` is no route), 405, budget, health, and the framing errors
/// 400, 413, 431 and 505. `/metrics` (timings) and all job polls but the
/// last are left out.
/// The re-pin command is in this file's header.
#[test]
fn every_route_matches_the_pinned_transcript() {
    let dir = std::env::temp_dir().join(format!("agmdp_service_transcript_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let toy = agmdp::datasets::toy_social_graph();
    let agb_path = dir.join("toy.agb");
    io::write_binary_file(&toy, &agb_path).unwrap();
    let text_path = dir.join("toy.graph");
    std::fs::write(&text_path, io::to_text(&toy)).unwrap();
    let server = boot_with(2, Some(dir.join("store")));
    let mut t = Transcript {
        addr: server.local_addr(),
        text: Vec::new(),
    };
    let register = |name: &str, budget: f64, source: (&str, String)| {
        serde_json::to_string(&Value::Object(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("budget".to_string(), Value::Float(budget)),
            (source.0.to_string(), Value::Str(source.1)),
        ]))
        .unwrap()
    };
    let inline = || ("graph", io::to_text(&toy));
    let path = |p: &std::path::Path| ("path", p.display().to_string());

    // Health and registration.
    t.send("GET", "/healthz", b"");
    t.send("GET", "/datasets", b"");
    let toy_body = register("toy", 3.0, inline());
    t.send("POST", "/datasets", toy_body.as_bytes());
    t.send("POST", "/datasets", toy_body.as_bytes());
    t.send(
        "POST",
        "/datasets",
        register("toy", 5.0, inline()).as_bytes(),
    );
    t.send(
        "POST",
        "/datasets",
        br#"{"name":"toy","budget":3,"graph":"nodes 3 0\nedge 0 1\n"}"#,
    );
    // The temporary paths are left out of the labels.
    t.send_as(
        "POST /datasets toy_agb from a path to an .agb file",
        "POST",
        "/datasets",
        register("toy_agb", 2.0, path(&agb_path)).as_bytes(),
    );
    t.send_as(
        "POST /datasets toy_text from a path to a text file",
        "POST",
        "/datasets",
        register("toy_text", 2.0, path(&text_path)).as_bytes(),
    );
    for body in [
        &b"\xff\xfe"[..],
        b"{",
        b"[1]",
        br#"{"name":"x","budget":1,"graf":""}"#,
        br#"{"budget":1,"graph":""}"#,
        br#"{"name":7,"budget":1,"graph":""}"#,
        br#"{"name":"x","graph":""}"#,
        br#"{"name":"x","budget":"1","graph":""}"#,
        br#"{"name":"x","budget":1}"#,
        br#"{"name":"x","budget":1,"graph":"","path":"a"}"#,
        br#"{"name":"x","budget":1,"graph":7}"#,
        br#"{"name":"x","budget":1,"path":"no/such/file.graph"}"#,
        br#"{"name":"x","budget":1,"graph":"nodes garbage"}"#,
        br#"{"name":"x","budget":1,"graph":"nodes 0 0\n"}"#,
        br#"{"name":"x","budget":-1,"graph":"nodes 3 0\nedge 0 1\n"}"#,
        br#"{"name":"bad name","budget":1,"graph":"nodes 3 0\nedge 0 1\n"}"#,
    ] {
        t.send("POST", "/datasets", body);
    }
    t.send("GET", "/datasets", b"");

    // Jobs: cold, fit-cache hit, store hit, a returned graph, FCL with the
    // smooth-sensitivity method, sample-and-aggregate on a mapped dataset.
    t.synthesize(r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#);
    t.synthesize(r#"{"dataset":"toy","epsilon":0.5,"seed":1,"iterations":2}"#);
    t.synthesize(r#"{"dataset":"toy","epsilon":0.5,"seed":1}"#);
    t.synthesize(r#"{"dataset":"toy","epsilon":0.5,"seed":2,"return_graph":true,"threads":2}"#);
    t.synthesize(
        r#"{"dataset":"toy","epsilon":0.5,"model":"fcl","method":"smooth","delta":0.000001,"seed":3}"#,
    );
    t.synthesize(
        r#"{"dataset":"toy_agb","epsilon":1,"method":"sample-aggregate","k":4,"seed":4,"model":"tricycle","iterations":1,"return_graph":false}"#,
    );

    // Every 400 of the /synthesize parser, in field order, then bodies with
    // two bad fields: the earlier field in that order is the one reported.
    for body in [
        &b"\xff"[..],
        b"not json",
        b"[1,2]",
        br#"{"dataset":"toy","epsilon":0.5,"epsilonn":1}"#,
        br#"{"epsilon":0.5}"#,
        br#"{"dataset":1,"epsilon":0.5}"#,
        br#"{"dataset":"toy"}"#,
        br#"{"dataset":"toy","epsilon":"0.5"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"model":1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"model":"tcl"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"k":-3}"#,
        br#"{"dataset":"toy","epsilon":0.5,"k":2.5}"#,
        br#"{"dataset":"toy","epsilon":0.5,"delta":"small"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"method":3}"#,
        br#"{"dataset":"toy","epsilon":0.5,"method":"exact"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"k":1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"seed":-1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"iterations":"3"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"return_graph":1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"threads":"all"}"#,
        br#"{"dataset":1,"epsilon":"x","model":2}"#,
        br#"{"dataset":"toy","epsilon":0.5,"model":"x","k":"x"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"seed":"x","k":"x"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"delta":"x","k":1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"method":"x","delta":"x"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"seed":"x","method":"x"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"iterations":"x","seed":"x"}"#,
        br#"{"dataset":"toy","epsilon":0.5,"threads":"x","return_graph":"x","iterations":-1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"threads":"x","return_graph":"x"}"#,
        br#"{"dataset":"toy","epsilon":-1}"#,
        br#"{"dataset":"toy","epsilon":0.5,"threads":0}"#,
        br#"{"dataset":"toy","epsilon":0.5,"iterations":0}"#,
        br#"{"dataset":"ghost","epsilon":0.5}"#,
        br#"{"dataset":"toy","epsilon":2.5,"seed":5}"#,
    ] {
        t.send("POST", "/synthesize", body);
    }

    // Read routes, their errors, and wrong methods.
    t.send("GET", "/budget/toy", b"");
    t.send("GET", "/budget/toy_agb", b"");
    t.send("GET", "/budget/ghost", b"");
    t.send("GET", "/evaluate", b"");
    t.send("GET", "/healthz", b"");
    t.send("GET", "/jobs/abc", b"");
    t.send("GET", "/jobs/999", b"");
    t.send("GET", "/no-such-route", b"");
    t.send("GET", "/__debug/sleep/1", b"");
    for (method, path) in [
        ("DELETE", "/datasets"),
        ("POST", "/healthz"),
        ("PUT", "/synthesize"),
        ("POST", "/evaluate"),
        ("POST", "/metrics"),
        ("POST", "/jobs/1"),
        ("DELETE", "/budget/toy"),
    ] {
        t.send(method, path, b"");
    }

    // Framing errors: the reactor answers these itself and closes.
    let big_head = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(17 * 1024)
    );
    for (label, raw) in [
        ("framing: garbage", &b"\x00\x01\x02 /x HTTP/1.1\r\n\r\n"[..]),
        ("framing: no target", b"GET\r\n\r\n"),
        ("framing: no version", b"GET /healthz\r\n\r\n"),
        ("framing: relative target", b"GET healthz HTTP/1.1\r\n\r\n"),
        (
            "framing: header without colon",
            b"GET /healthz HTTP/1.1\r\nHost\r\n\r\n",
        ),
        ("framing: non-UTF-8 head", b"GET /\xff HTTP/1.1\r\n\r\n"),
        (
            "framing: bad Content-Length",
            b"POST /synthesize HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ),
        (
            "framing: conflicting Content-Length",
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi",
        ),
        (
            "framing: chunked",
            b"POST /synthesize HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        ),
        (
            "framing: body over the cap",
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 67108865\r\n\r\n",
        ),
        ("framing: head over the cap", big_head.as_bytes()),
        ("framing: HTTP/2.0", b"GET /healthz HTTP/2.0\r\n\r\n"),
    ] {
        t.record(label, raw);
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();

    let got = t.text;
    if got != TRANSCRIPT_GOLDEN.as_bytes() {
        let seen = concat!(env!("CARGO_TARGET_TMPDIR"), "/service_transcript.txt");
        std::fs::write(seen, &got).unwrap();
        let at = got
            .iter()
            .zip(TRANSCRIPT_GOLDEN.as_bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(TRANSCRIPT_GOLDEN.len()));
        let from = at.saturating_sub(200);
        panic!(
            "response bytes diverged from tests/golden/service_transcript.txt at byte {at} \
             (transcript written to {seen}; see this test's docs to re-pin):\n\
             got:  {:?}\nwant: {:?}",
            String::from_utf8_lossy(&got[from..(at + 200).min(got.len())]),
            &TRANSCRIPT_GOLDEN
                [from.min(TRANSCRIPT_GOLDEN.len())..(at + 200).min(TRANSCRIPT_GOLDEN.len())],
        );
    }
}
