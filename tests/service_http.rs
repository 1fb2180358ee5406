//! End-to-end test of the `agmdp-service` HTTP server over real sockets:
//! boot on an ephemeral port, register a dataset, run two synthesize jobs,
//! watch the ledger decrease, get refused once the budget is exhausted, and
//! verify the ledger state survives a server restart. The `agmdp serve`
//! command line that scripts depend on is pinned here too.
//!
//! The server's reactor needs epoll, so the suite runs on Linux only.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::Duration;

use agmdp::graph::io;
use agmdp::service::json;
use agmdp::service::{ServerHandle, ServiceConfig};
use serde::Value;

// ---------------------------------------------------------------------------
// A tiny raw-TCP HTTP client (the repo vendors no HTTP client either).
// ---------------------------------------------------------------------------

struct Reply {
    status: u16,
    body: Value,
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body_text = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    let body =
        json::parse(body_text).unwrap_or_else(|e| panic!("non-JSON body ({e}): {body_text:?}"));
    Reply { status, body }
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    request(addr, "GET", path, None)
}

/// Fetches a path and returns the status plus the raw (unparsed) body —
/// for the non-JSON Prometheus exposition at `GET /metrics`.
fn get_text(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
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

#[test]
fn budget_ledger_enforces_and_survives_restart_over_http() {
    let dir = std::env::temp_dir().join("agmdp_service_http_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ledger_path = dir.join(format!("budget_{}.ledger", std::process::id()));
    std::fs::remove_file(&ledger_path).ok();

    let graph_text = io::to_text(&agmdp::datasets::toy_social_graph());
    let register_body = serde_json::to_string(&Value::Object(vec![
        ("name".to_string(), Value::Str("toy".to_string())),
        ("budget".to_string(), Value::Float(1.0)),
        ("graph".to_string(), Value::Str(graph_text.clone())),
    ]))
    .unwrap();

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
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        release_store: Some(store_dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    let graph_text = io::to_text(&agmdp::datasets::toy_social_graph());
    let register_body = serde_json::to_string(&Value::Object(vec![
        ("name".to_string(), Value::Str("toy".to_string())),
        ("budget".to_string(), Value::Float(2.0)),
        ("graph".to_string(), Value::Str(graph_text)),
    ]))
    .unwrap();
    assert_eq!(post(addr, "/datasets", &register_body).status, 201);

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

    let (status, text) = get_text(addr, "/metrics");
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
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    assert_eq!(get(addr, "/no-such-route").status, 404);
    assert_eq!(post(addr, "/synthesize", "{not json").status, 400);
    assert_eq!(
        post(addr, "/synthesize", r#"{"dataset":"ghost","epsilon":1.0}"#).status,
        404
    );
    assert_eq!(get(addr, "/budget/ghost").status, 404);

    // A raw non-HTTP blob gets a 400, not a hang or a crash.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 4"), "{raw:?}");

    server.stop();
}

// ---------------------------------------------------------------------------
// Keep-alive and byte-identity across thread counts.
// ---------------------------------------------------------------------------

fn boot_with(threads: usize) -> ServerHandle {
    agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ledger_path: None,
        quiet: true,
        ..ServiceConfig::default()
    })
    .expect("server start")
}

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
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
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
    let one = boot_with(1);
    let many = boot_with(4);
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
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();
    let register_body = serde_json::to_string(&Value::Object(vec![
        ("name".to_string(), Value::Str("toy".to_string())),
        ("budget".to_string(), Value::Float(1.0)),
        (
            "graph".to_string(),
            Value::Str(io::to_text(&agmdp::datasets::toy_social_graph())),
        ),
    ]))
    .unwrap();
    assert_eq!(post(addr, "/datasets", &register_body).status, 201);
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
