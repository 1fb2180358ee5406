//! Attacks on `agmdp serve` from the analyst's side. Each test plays a
//! client that tries to learn an un-noised function of a registered graph
//! from what the server sends it. Theorem 2 covers the synthetic graph and
//! anything computed from it alone; a reply that carries more voids the
//! guarantee for every release, so every attack here must fail.
//!
//! The server's reactor needs epoll, so the suite runs on Linux only.
#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use agmdp::graph::triangles::count_triangles;
use agmdp::graph::{io, GraphView};
use agmdp::service::{json, ServiceConfig};
use serde::Value;

mod common;
use common::request_text;

/// The parsed body of one reply, whatever its status.
fn fetch(addr: SocketAddr, method: &str, path: &str, body: &str) -> Value {
    let (_, text) = request_text(addr, method, path, body);
    json::parse(&text).unwrap_or_else(|e| panic!("non-JSON reply to {path} ({e}): {text:?}"))
}

/// Every number in `value` with the key it sits under, except inside a
/// `stats` object: the release's own stats are the reference an inversion
/// divides by, not a candidate.
fn numbers<'a>(value: &'a Value, out: &mut Vec<(&'a str, f64)>) {
    match value {
        Value::Object(entries) => {
            for (key, entry) in entries {
                match json::as_f64(entry) {
                    Some(x) => out.push((key, x)),
                    None if key != "stats" => numbers(entry, out),
                    None => {}
                }
            }
        }
        Value::Array(items) => items.iter().for_each(|item| numbers(item, out)),
        _ => {}
    }
}

/// Utility inversion. A relative error `r = |s − o| / o` sent beside the
/// release's own statistic `s` gives back the original's `o = s / (1 ± r)`,
/// and an `edges` field outside the release's stats may be the original's
/// edge count itself. Neither may recover the toy graph's m or n_Δ.
#[test]
fn utility_inversion_recovers_neither_the_edge_nor_the_triangle_count() {
    let toy = agmdp::datasets::toy_social_graph();
    let secrets = [
        ("m", toy.num_edges() as f64),
        ("n_Δ", count_triangles(&toy) as f64),
    ];
    let server = agmdp::service::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        quiet: true,
        ..ServiceConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();
    let register = serde_json::to_string(&Value::Object(vec![
        ("name".to_string(), Value::Str("toy".to_string())),
        ("budget".to_string(), Value::Float(1.0)),
        ("graph".to_string(), Value::Str(io::to_text(&toy))),
    ]))
    .unwrap();
    assert_eq!(request_text(addr, "POST", "/datasets", &register).0, 201);
    let accepted = fetch(
        addr,
        "POST",
        "/synthesize",
        r#"{"dataset":"toy","epsilon":0.5,"seed":1,"return_graph":true}"#,
    );
    let id = json::get(&accepted, "job_id")
        .and_then(json::as_u64)
        .expect("job id");
    let deadline = Instant::now() + Duration::from_secs(60);
    let job = loop {
        let job = fetch(addr, "GET", &format!("/jobs/{id}"), "");
        if json::get(&job, "status").and_then(json::as_str) == Some("completed") {
            break job;
        }
        assert!(Instant::now() < deadline, "job {id} did not complete");
        std::thread::sleep(Duration::from_millis(20));
    };
    let result = json::get(&job, "result").expect("result");
    let release = json::get(result, "graph")
        .and_then(json::as_str)
        .and_then(|text| io::from_text(text).ok())
        .expect("the released graph");
    let stats = json::get(result, "stats").expect("the release's stats");
    let stat = |key| json::get(stats, key).and_then(json::as_u64);
    // The stats are the release's own: a client can recompute them.
    assert_eq!(stat("edges"), Some(release.num_edges() as u64));
    assert_eq!(stat("triangles"), Some(count_triangles(&release)));
    let mut released = Vec::new();
    numbers(stats, &mut released);

    let mut leaks = Vec::new();
    for path in [
        format!("/jobs/{id}"),
        "/datasets".to_string(),
        "/evaluate".to_string(),
        "/budget/toy".to_string(),
    ] {
        let reply = fetch(addr, "GET", &path, "");
        let mut found = Vec::new();
        numbers(&reply, &mut found);
        for (key, x) in found {
            let mut candidates = Vec::new();
            if key == "edges" {
                candidates.push(x);
            }
            if key.ends_with("_re") {
                for &(_, s) in &released {
                    candidates.extend([s / (1.0 + x), s / (1.0 - x)]);
                }
            }
            for candidate in candidates {
                for (secret, value) in secrets {
                    if candidate.round() == value {
                        leaks.push(format!("{path} `{key}` gives {secret} = {candidate}"));
                    }
                }
            }
        }
    }
    server.stop();
    assert!(
        leaks.is_empty(),
        "the replies leak the toy graph: {leaks:#?}"
    );
}
