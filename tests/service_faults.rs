//! Fault-injection battery: drives the event-driven front end into each
//! load-shedding and timeout path deterministically and asserts the
//! corresponding `/metrics` counters tick exactly once per event.
//!
//! The scenarios use the `--debug-endpoints` fault hooks (`/__debug/sleep`
//! to pin a worker, `/__debug/payload` to jam a send buffer) so the tests
//! control *when* the server is saturated instead of racing it.
#![cfg(target_os = "linux")]

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use agmdp::service::ServiceConfig;
use common::{connect, read_one_response};

fn send_get(stream: &mut TcpStream, path: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
}

/// Scrapes `/metrics` over a fresh connection.
fn scrape_metrics(addr: SocketAddr) -> String {
    let mut stream = connect(addr);
    send_get(&mut stream, "/metrics", true);
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    body
}

/// Polls `/metrics` until `needle` appears (the reactor records timeouts on
/// its sweep tick, slightly after the wall-clock deadline).
fn wait_for_metric(addr: SocketAddr, needle: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = scrape_metrics(addr);
        if text.contains(needle) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "metric {needle:?} never appeared; last scrape:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn full_job_queue_sheds_with_503_and_retry_after_exactly_once() {
    // One worker, one queue slot: the third concurrent request MUST shed.
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 1,
        ledger_path: None,
        quiet: true,
        debug_endpoints: true,
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    // Occupy the single worker…
    let mut pinned = connect(addr);
    send_get(&mut pinned, "/__debug/sleep/1500", false);
    std::thread::sleep(Duration::from_millis(150));
    // …and the single queue slot.
    let mut queued = connect(addr);
    send_get(&mut queued, "/__debug/sleep/50", false);
    std::thread::sleep(Duration::from_millis(150));

    // A third request is shed deterministically: 503 + Retry-After, and the
    // connection stays open (shedding is per-request, not per-connection).
    let mut shed = connect(addr);
    send_get(&mut shed, "/healthz", false);
    let (status, head, body) = read_one_response(&mut shed);
    assert_eq!(status, 503, "{head}{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body.contains("overloaded"), "{body}");

    // The saturating requests complete normally once the worker frees up.
    let (status, _, _) = read_one_response(&mut pinned);
    assert_eq!(status, 200);
    let (status, _, _) = read_one_response(&mut queued);
    assert_eq!(status, 200);

    // The shed connection is still usable, and the counter ticked exactly
    // once for the one shed event.
    send_get(&mut shed, "/metrics", true);
    let (status, _, metrics) = read_one_response(&mut shed);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("agmdp_http_sheds_total{reason=\"queue_full\"} 1"),
        "{metrics}"
    );
    assert!(!metrics.contains("reason=\"rate_limit\""), "{metrics}");

    server.stop();
}

#[test]
fn slow_read_client_times_out_without_stalling_others() {
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        read_timeout: Duration::from_millis(400),
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    // The slowloris connection: a partial request line, then silence. The
    // read deadline is absolute from the first byte — it must not reset on
    // each trickled byte.
    let mut slow = connect(addr);
    slow.write_all(b"GET /hea").unwrap();

    // While the attacker stalls, other clients are fully served.
    for _ in 0..3 {
        let mut fast = connect(addr);
        send_get(&mut fast, "/healthz", true);
        let (status, _, _) = read_one_response(&mut fast);
        assert_eq!(status, 200);
    }

    // The stalled connection gets 408 and a close once the deadline passes.
    let (status, head, _) = read_one_response(&mut slow);
    assert_eq!(status, 408, "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    slow.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    let metrics = wait_for_metric(addr, "agmdp_conn_timeouts_total{kind=\"read\"} 1");
    assert!(!metrics.contains("kind=\"read\"} 2"), "{metrics}");

    server.stop();
}

#[test]
fn idle_keepalive_connection_is_reaped_after_idle_timeout() {
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        idle_timeout: Duration::from_millis(300),
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    // One complete round trip, then silence between requests: the idle
    // clock (not the read clock) reaps the connection.
    let mut stream = connect(addr);
    send_get(&mut stream, "/healthz", false);
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);

    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap(); // EOF, no 408 body
    assert!(rest.is_empty(), "{rest:?}");

    let metrics = wait_for_metric(addr, "agmdp_conn_timeouts_total{kind=\"idle\"} 1");
    assert!(!metrics.contains("kind=\"read\""), "{metrics}");

    server.stop();
}

#[test]
fn write_stalled_client_is_dropped_on_write_timeout() {
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        debug_endpoints: true,
        write_timeout: Duration::from_millis(400),
        // Shrink the server-side send buffer so an unread 8 MB response
        // jams quickly instead of vanishing into kernel buffers.
        send_buffer_bytes: Some(4096),
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    // Ask for 8 MB and never read it. The reactor's write deadline must
    // drop us rather than buffer forever.
    let mut stalled = connect(addr);
    send_get(&mut stalled, "/__debug/payload/8388608", false);

    let metrics = wait_for_metric(addr, "agmdp_conn_timeouts_total{kind=\"write\"} 1");
    assert!(!metrics.contains("kind=\"write\"} 2"), "{metrics}");

    // Other clients were never blocked by the stalled writer.
    let mut fast = connect(addr);
    send_get(&mut fast, "/healthz", true);
    let (status, _, _) = read_one_response(&mut fast);
    assert_eq!(status, 200);

    drop(stalled);
    server.stop();
}

#[test]
fn per_dataset_rate_limit_sheds_429_with_retry_after() {
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        rate_limit: Some(0.001), // one token, then ~forever to refill
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    let graph_text = agmdp::graph::io::to_text(&agmdp::datasets::toy_social_graph());
    let register = serde_json::to_string(&serde::Value::Object(vec![
        ("name".to_string(), serde::Value::Str("toy".to_string())),
        ("budget".to_string(), serde::Value::Float(5.0)),
        ("graph".to_string(), serde::Value::Str(graph_text)),
    ]))
    .unwrap();
    let mut stream = connect(addr);
    stream
        .write_all(
            format!(
                "POST /datasets HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{register}",
                register.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 201, "{body}");

    // First synthesize takes the bucket's one token…
    let job = r#"{"dataset":"toy","epsilon":0.1,"seed":1}"#;
    let post = format!(
        "POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{job}",
        job.len()
    );
    stream.write_all(post.as_bytes()).unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 202, "{body}");

    // …and the immediate repeat is rate-limited before touching the ledger.
    let job2 = r#"{"dataset":"toy","epsilon":0.1,"seed":2}"#;
    let post2 = format!(
        "POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{job2}",
        job2.len()
    );
    stream.write_all(post2.as_bytes()).unwrap();
    let (status, head, body) = read_one_response(&mut stream);
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After: "), "{head}");
    assert!(body.contains("rate_limited"), "{body}");

    let metrics = wait_for_metric(addr, "agmdp_http_sheds_total{reason=\"rate_limit\"} 1");
    assert!(metrics.contains("agmdp_requests_total"), "{metrics}");

    server.stop();
}
