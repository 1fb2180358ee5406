//! Protocol-torture battery for the event-driven service front end.
//!
//! Every test here speaks raw TCP at the reactor: pipelined requests,
//! byte-at-a-time trickle, oversized heads and bodies, garbage before the
//! request line, half-closed sockets, and connection reuse after error
//! responses. The suite pins the connection state machine in
//! `crates/service/src/conn.rs` — the behaviours asserted here are the
//! contract the load-shedding and keep-alive logic is built on.
//!
//! The reactor needs epoll, so the suite runs on Linux only.
#![cfg(target_os = "linux")]

mod common;

use std::io::{Read, Write};
use std::net::Shutdown;

use agmdp::service::json;
use agmdp::service::{ServerHandle, ServiceConfig};
use common::{connect, read_one_response};

fn boot(config: ServiceConfig) -> ServerHandle {
    agmdp::service::start(&config).expect("server start")
}

fn small_head_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        max_head_bytes: 1024,
        max_body_bytes: 64 * 1024,
        ..ServiceConfig::default()
    }
}

fn default_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ledger_path: None,
        quiet: true,
        ..ServiceConfig::default()
    }
}

#[test]
fn pipelined_requests_answered_in_order_on_one_connection() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());

    // Three requests in one write: the state machine must answer them
    // strictly in order, one in flight at a time.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /no-such HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();

    let (first, head, _) = read_one_response(&mut stream);
    assert_eq!(first, 200, "{head}");
    let (second, head, _) = read_one_response(&mut stream);
    assert_eq!(second, 404, "{head}");
    let (third, head, _) = read_one_response(&mut stream);
    assert_eq!(third, 200, "{head}");
    assert!(head.contains("Connection: close"), "{head}");

    // The final `Connection: close` is honored: EOF, no fourth response.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after close: {rest:?}");
    server.stop();
}

#[test]
fn request_split_into_single_byte_writes_still_parses() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());

    let request = b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{not json";
    for chunk in request.chunks(1) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
    }
    // Malformed JSON (not malformed HTTP): a clean 400 from the handler.
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_request"), "{body}");
    server.stop();
}

#[test]
fn oversized_head_is_rejected_431_before_request_completes() {
    let server = boot(small_head_config());
    let mut stream = connect(server.local_addr());

    // Never even finish the head: the cap (1 KiB) must trip mid-stream
    // rather than buffer without bound.
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Filler: {}\r\n", "a".repeat(512));
    stream.write_all(filler.as_bytes()).unwrap();
    stream.write_all(filler.as_bytes()).unwrap();

    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 431, "{body}");
    // Parse errors are not recoverable: the server closes.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.stop();
}

#[test]
fn oversized_body_is_rejected_413_from_headers_alone() {
    let server = boot(small_head_config());
    let mut stream = connect(server.local_addr());

    // Declare a body far over the 64 KiB cap but send none of it: the 413
    // must come from the Content-Length header, before any body allocation.
    stream
        .write_all(b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 10000000\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 413, "{body}");
    server.stop();
}

#[test]
fn garbage_before_request_line_is_400() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());
    stream
        .write_all(b"\x16\x03\x01\x02garbage here\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    server.stop();
}

#[test]
fn transfer_encoding_is_rejected_not_misframed() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());
    stream
        .write_all(
            b"POST /synthesize HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    server.stop();
}

#[test]
fn half_closed_socket_still_receives_its_response() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());

    // Full request, then shut down our write half before reading anything.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    // The server must treat FIN after a complete request as half-close:
    // answer it, then close. The reply's `Connection` header depends on
    // timing: the reactor does not read a socket while its request is in
    // flight, so a FIN that lands after dispatch is seen only after a
    // keep-alive reply went out. (The conn.rs unit test
    // `half_close_still_serves_buffered_requests` pins `Connection: close`
    // for a FIN seen before dispatch.) What holds at any timing: one 200,
    // then EOF.
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw:?}");
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "{raw:?}");
    server.stop();
}

#[test]
fn connection_survives_application_errors_and_is_reusable() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());

    // 404, 405, and a handler-level 400 are application errors: the HTTP
    // framing stayed valid, so keep-alive must survive all of them.
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 404);

    stream
        .write_all(b"DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 405);

    stream
        .write_all(b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
        .unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 400);

    // …and the connection still serves a healthy request afterwards.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn http10_closes_by_default_and_keeps_alive_on_request() {
    let server = boot(default_config());

    // Default HTTP/1.0: one response, then EOF.
    let mut stream = connect(server.local_addr());
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw:?}");
    assert!(raw.contains("Connection: close"), "{raw:?}");

    // Explicit 1.0 keep-alive opt-in: the connection survives.
    let mut stream = connect(server.local_addr());
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn unsupported_http_version_gets_505() {
    let server = boot(default_config());
    // The body echoes the version token, so it must stay valid JSON
    // whatever the token holds: a quote, a backslash or a control byte.
    for token in ["HTTP/2.0", "HTTP/2\"x", "HTTP/2\\", "HTTP/2\u{1}"] {
        let mut stream = connect(server.local_addr());
        stream
            .write_all(format!("GET /healthz {token}\r\n\r\n").as_bytes())
            .unwrap();
        let (status, _, body) = read_one_response(&mut stream);
        assert_eq!(status, 505, "{body}");
        let parsed = json::parse(&body)
            .unwrap_or_else(|e| panic!("{token:?}: body is not JSON ({e}): {body:?}"));
        assert_eq!(
            json::get(&parsed, "error").and_then(json::as_str),
            Some("bad_request"),
            "{body:?}"
        );
        assert_eq!(
            json::get(&parsed, "message").and_then(json::as_str),
            Some(format!("unsupported {token}").as_str()),
            "{body:?}"
        );
    }
    server.stop();
}

#[test]
fn expect_100_continue_gets_interim_then_final_response() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());
    stream
        .write_all(
            b"POST /synthesize HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: 2\r\nConnection: close\r\n\r\n",
        )
        .unwrap();

    // Interim response arrives before we send the body…
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).expect("read interim");
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");

    // …then the body completes the request and the real response follows.
    stream.write_all(b"{}").unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 400); // `{}` is valid JSON but an invalid request
    server.stop();
}
