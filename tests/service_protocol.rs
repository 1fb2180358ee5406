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

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use agmdp::service::{ServerHandle, ServiceConfig};

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

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Reads exactly one HTTP/1.1 response (head + Content-Length body) from the
/// stream, leaving any pipelined follower bytes unread. Returns
/// `(status, full_response_text)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Read to end of head.
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head byte");
        assert!(n > 0, "EOF inside response head: {buf:?}");
        buf.push(byte[0]);
        assert!(buf.len() < 64 * 1024, "unterminated head");
    }
    let head = String::from_utf8_lossy(&buf).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Content-Length in {head:?}"));
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {head:?}"));
    (status, head + &String::from_utf8_lossy(&body))
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

    let (first, text) = read_one_response(&mut stream);
    assert_eq!(first, 200, "{text}");
    let (second, text) = read_one_response(&mut stream);
    assert_eq!(second, 404, "{text}");
    let (third, text) = read_one_response(&mut stream);
    assert_eq!(third, 200, "{text}");
    assert!(text.contains("Connection: close"), "{text}");

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
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("invalid_request"), "{text}");
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

    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 431, "{text}");
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
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 413, "{text}");
    server.stop();
}

#[test]
fn garbage_before_request_line_is_400() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());
    stream
        .write_all(b"\x16\x03\x01\x02garbage here\r\n\r\n")
        .unwrap();
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{text}");
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
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{text}");
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
    let (status, _) = read_one_response(&mut stream);
    assert_eq!(status, 404);

    stream
        .write_all(b"DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _) = read_one_response(&mut stream);
    assert_eq!(status, 405);

    stream
        .write_all(b"POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
        .unwrap();
    let (status, _) = read_one_response(&mut stream);
    assert_eq!(status, 400);

    // …and the connection still serves a healthy request afterwards.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{text}");
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
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("Connection: keep-alive"), "{text}");
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let (status, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn unsupported_http_version_gets_505() {
    let server = boot(default_config());
    let mut stream = connect(server.local_addr());
    stream.write_all(b"GET /healthz HTTP/2.0\r\n\r\n").unwrap();
    let (status, text) = read_one_response(&mut stream);
    assert_eq!(status, 505, "{text}");
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
    let (status, _) = read_one_response(&mut stream);
    assert_eq!(status, 400); // `{}` is valid JSON but an invalid request
    server.stop();
}
