//! The raw-HTTP client the service batteries share: it speaks TCP at the
//! reactor and parses nothing beyond a response's framing.

use std::io::Read;
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
