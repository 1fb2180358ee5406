//! The raw-HTTP client the service batteries share: it speaks TCP at the
//! reactor and parses nothing beyond a response's framing. Each test crate
//! that includes this module uses its own subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connects to `addr` with a 30 s read timeout, so a server that never
/// answers fails the test instead of hanging it.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Sends `raw` on a fresh connection and reads the reply to EOF. A reset
/// after a framing error (the server closes with unread bytes) ends the
/// reply like an EOF.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = connect(addr);
    stream.write_all(raw).unwrap();
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("read reply to {:?}: {e}", String::from_utf8_lossy(raw)),
        }
    }
    reply
}

/// One `Connection: close` request: the reply's status code and body text.
/// The reply must be exactly one response framed by its Content-Length and
/// then EOF; a reset, a short body or a byte past the body fails the test.
pub fn request_text(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = connect(addr);
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let (status, _, body) = read_one_response(&mut stream);
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .unwrap_or_else(|e| panic!("read to EOF after {method} {path}: {e}"));
    assert!(
        rest.is_empty(),
        "bytes after the {method} {path} response: {rest:?}"
    );
    (status, body)
}

/// Reads exactly one HTTP/1.1 response (head + Content-Length body) from the
/// stream, leaving any pipelined follower bytes unread. Returns
/// `(status, head, body)`.
pub fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
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
    (status, head, String::from_utf8_lossy(&body).to_string())
}
