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

/// The options of the `httpload` bench binary.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOptions {
    /// Aim at a running server instead of booting one in-process.
    pub addr: Option<SocketAddr>,
    /// Measured seconds per grid cell.
    pub seconds: f64,
    /// The connection counts of the grid.
    pub connections: Vec<usize>,
    /// Worker threads of the in-process server.
    pub threads: usize,
    /// Exit nonzero on any 5xx that is not a deliberate shed.
    pub strict: bool,
    /// Where to write the JSON report (stdout when absent).
    pub out: Option<String>,
}

/// The usage line `httpload` prints with `--help` or a bad flag.
const LOAD_USAGE: &str = "usage: httpload [--addr HOST:PORT] [--seconds F] [--connections 1,4,16] [--threads N] [--strict] [--out FILE]";

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            addr: None,
            seconds: 2.0,
            connections: vec![1, 4, 16],
            threads: 4,
            strict: false,
            out: None,
        }
    }
}

impl LoadOptions {
    /// Parses the process arguments. A malformed value prints the error and
    /// the usage line and exits with status 2.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{LOAD_USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses `httpload`'s arguments. A value that does not parse, or a
    /// count or duration that is not positive, is an error naming the flag
    /// and the value, and so is an unknown argument. `--bench`, which `cargo
    /// bench` passes, is accepted and ignored; `--help` prints the usage line
    /// and exits 0.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let invalid = |value: &str| format!("invalid value for {arg}: '{value}'");
            match arg.as_str() {
                "--addr" => out.addr = Some(flag_value(&arg, args.next())?),
                "--seconds" => {
                    out.seconds = flag_value(&arg, args.next())?;
                    if !(out.seconds.is_finite() && out.seconds > 0.0) {
                        return Err(invalid(&out.seconds.to_string()));
                    }
                }
                "--connections" => {
                    let value: String = flag_value(&arg, args.next())?;
                    out.connections = value
                        .split(',')
                        .map(|c| c.trim().parse().ok().filter(|&n: &usize| n > 0))
                        .collect::<Option<_>>()
                        .ok_or_else(|| invalid(&value))?;
                }
                "--threads" => {
                    out.threads = flag_value(&arg, args.next())?;
                    if out.threads == 0 {
                        return Err(invalid("0"));
                    }
                }
                "--strict" => out.strict = true,
                "--out" => out.out = Some(flag_value(&arg, args.next())?),
                "--bench" => {}
                "--help" | "-h" => {
                    eprintln!("{LOAD_USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }
}

/// Parses the value that follows `flag`; the error names both, so a
/// malformed value is refused instead of falling back to a default.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: '{value}'"))
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<LoadOptions, String> {
        LoadOptions::parse_from(args.split(' ').map(str::to_string))
    }

    #[test]
    fn load_options_parse_the_grid_and_accept_cargo_bench() {
        let options = parse("--seconds 2 --connections 64 --strict --out r.json --bench").unwrap();
        assert_eq!(options.connections, vec![64]);
        assert_eq!(options.seconds, 2.0);
        assert!(options.strict);
        assert_eq!(options.out.as_deref(), Some("r.json"));
        assert_eq!(parse("--bench").unwrap(), LoadOptions::default());
    }

    #[test]
    fn malformed_load_options_name_the_flag_and_the_value() {
        for args in [
            "--connections 6x4",
            "--connections 1,,4",
            "--connections 0",
            "--seconds two",
            "--seconds -1",
            "--threads 0",
            "--addr localhost",
        ] {
            let (flag, value) = args.split_once(' ').unwrap();
            let message = format!("invalid value for {flag}: '{value}'");
            assert_eq!(parse(args).unwrap_err(), message);
        }
        assert_eq!(parse("--seconds").unwrap_err(), "--seconds needs a value");
        // A misspelt flag must not run the default grid in its place.
        assert_eq!(
            parse("--connection 64").unwrap_err(),
            "unknown argument: --connection"
        );
    }
}
