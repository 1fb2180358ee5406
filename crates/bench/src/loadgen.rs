//! Closed-loop HTTP load generator for the `agmdp-service` front end.
//!
//! One OS thread per simulated connection, each running a closed loop: send
//! a request, read the full response, classify it, repeat until the
//! deadline. No vendored HTTP client exists in the workspace, so this
//! speaks raw HTTP/1.1 over `std::net::TcpStream` — which also means it
//! exercises exactly the keep-alive and framing behaviour the event-driven
//! server implements, rather than whatever a library would negotiate.
//!
//! Classification separates *deliberate sheds* (429/503 carrying
//! `Retry-After`, the server protecting itself by design) from `other_5xx`
//! (real failures). The CI `http-load` smoke job fails on any of the
//! latter.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the client uses connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// One persistent connection per client thread, reused across requests
    /// (HTTP/1.1 default). Reconnects transparently if the server closes.
    KeepAlive,
    /// A fresh connection per request with `Connection: close` — the
    /// baseline keep-alive is measured against.
    PerRequest,
}

impl ConnMode {
    /// Stable label used in benchmark output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ConnMode::KeepAlive => "keep_alive",
            ConnMode::PerRequest => "per_request",
        }
    }
}

/// What each request asks the server to do.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `GET /healthz` — pure transport cost, no synthesis work.
    Healthz,
    /// `POST /synthesize` with a fixed body that was warmed beforehand, so
    /// every request is an ε-free cache hit (admission + job spawn, no DP
    /// fit).
    SynthesizeCacheHit {
        /// The exact JSON body to post (dataset/epsilon/seed triple).
        body: String,
    },
}

impl Workload {
    /// Stable label used in benchmark output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Healthz => "healthz",
            Workload::SynthesizeCacheHit { .. } => "synthesize_cache_hit",
        }
    }

    /// Renders the request bytes once; the client loop replays them.
    #[must_use]
    fn request_bytes(&self, mode: ConnMode) -> Vec<u8> {
        let connection = match mode {
            ConnMode::KeepAlive => "keep-alive",
            ConnMode::PerRequest => "close",
        };
        match self {
            Workload::Healthz => format!(
                "GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\n\r\n"
            )
            .into_bytes(),
            Workload::SynthesizeCacheHit { body } => format!(
                "POST /synthesize HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        }
    }
}

/// Aggregated response counts from one load run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadCounts {
    /// Requests sent (== responses attempted; closed loop).
    pub requests: u64,
    /// 2xx responses — the useful throughput.
    pub ok_2xx: u64,
    /// 4xx responses other than rate-limit sheds.
    pub client_4xx: u64,
    /// Deliberate load sheds: 429, or 503 with `Retry-After`.
    pub sheds: u64,
    /// 5xx responses that are *not* deliberate sheds — always a bug.
    pub other_5xx: u64,
    /// Connect/read/write failures (includes connections the server reset).
    pub io_errors: u64,
}

impl LoadCounts {
    fn absorb(&mut self, other: &LoadCounts) {
        self.requests += other.requests;
        self.ok_2xx += other.ok_2xx;
        self.client_4xx += other.client_4xx;
        self.sheds += other.sheds;
        self.other_5xx += other.other_5xx;
        self.io_errors += other.io_errors;
    }
}

/// The outcome of one load cell.
#[derive(Debug, Clone, Copy)]
pub struct LoadResult {
    /// Aggregated response counts across every connection.
    pub counts: LoadCounts,
    /// Wall-clock duration actually measured.
    pub elapsed: Duration,
    /// Useful (2xx) responses per second.
    pub rps: f64,
}

/// One cell of the load grid.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server to aim at.
    pub addr: SocketAddr,
    /// Number of concurrent closed-loop connections.
    pub connections: usize,
    /// How long to run.
    pub duration: Duration,
    /// Connection reuse mode.
    pub mode: ConnMode,
    /// Request issued by every connection.
    pub workload: Workload,
}

/// Runs one load cell: `connections` closed-loop client threads for
/// `duration`, returning aggregated counts and the useful-response rate.
#[must_use]
pub fn run_load(spec: &LoadSpec) -> LoadResult {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..spec.connections.max(1))
        .map(|_| {
            let spec = spec.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(&spec, &stop))
        })
        .collect();

    std::thread::sleep(spec.duration);
    stop.store(true, Ordering::Relaxed);

    let mut counts = LoadCounts::default();
    for worker in workers {
        if let Ok(part) = worker.join() {
            counts.absorb(&part);
        }
    }
    let elapsed = started.elapsed();
    let rps = if elapsed.as_secs_f64() > 0.0 {
        counts.ok_2xx as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    LoadResult {
        counts,
        elapsed,
        rps,
    }
}

/// One connection's closed loop. Returns its private counts at the stop
/// flag; a request already in flight when the flag flips is finished first,
/// so the server is never left with half-written requests.
fn client_loop(spec: &LoadSpec, stop: &AtomicBool) -> LoadCounts {
    let request = spec.workload.request_bytes(spec.mode);
    let mut counts = LoadCounts::default();
    let mut conn: Option<TcpStream> = None;
    while !stop.load(Ordering::Relaxed) {
        let mut stream = match conn.take() {
            Some(s) => s,
            None => match TcpStream::connect(spec.addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                    s
                }
                Err(_) => {
                    counts.io_errors += 1;
                    continue;
                }
            },
        };
        counts.requests += 1;
        if stream.write_all(&request).is_err() {
            counts.io_errors += 1;
            continue; // stale keep-alive connection; reconnect next round
        }
        match read_response(&mut stream) {
            Ok(reply) => {
                match reply.status {
                    200..=299 => counts.ok_2xx += 1,
                    429 => counts.sheds += 1,
                    503 if reply.has_retry_after => counts.sheds += 1,
                    400..=499 => counts.client_4xx += 1,
                    _ => counts.other_5xx += 1,
                }
                if spec.mode == ConnMode::KeepAlive && !reply.closed {
                    conn = Some(stream); // reuse
                }
            }
            Err(_) => counts.io_errors += 1,
        }
    }
    counts
}

struct RawReply {
    status: u16,
    has_retry_after: bool,
    closed: bool,
}

/// Reads one `Content-Length`-framed response off the stream.
fn read_response(stream: &mut TcpStream) -> std::io::Result<RawReply> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside response head",
            ));
        }
        head.push(byte[0]);
        if head.len() > 64 * 1024 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "unterminated response head",
            ));
        }
    }
    let head_text = String::from_utf8_lossy(&head);
    let status: u16 = head_text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let content_length: usize = head_text
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(RawReply {
        status,
        has_retry_after: head_text.contains("\r\nRetry-After: "),
        closed: head_text.contains("\r\nConnection: close"),
    })
}
