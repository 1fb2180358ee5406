//! A minimal keep-alive HTTP/1.1 client over `std::net::TcpStream`, enough
//! to drive `agmdp serve`: `Content-Length` framing only, one request in
//! flight per connection, reconnect after the server withdraws keep-alive
//! or the connection fails.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A client connection that reconnects on demand.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// Sends one request and reads its response. Any I/O error drops the
    /// connection, so the next request starts on a fresh one.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let result = self.exchange(method, path, body);
        if !matches!(result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(reply, _)| reply)
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(Reply, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.connects += 1;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;

        let invalid =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut length = 0usize;
        let mut keep_alive = true;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(invalid("eof inside response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((header, ""));
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
        let mut bytes = vec![0u8; length];
        reader.read_exact(&mut bytes)?;
        let body = String::from_utf8(bytes).map_err(|_| invalid("body is not UTF-8"))?;
        Ok((Reply { status, body }, keep_alive))
    }
}
