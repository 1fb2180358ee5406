//! Per-connection state machine for the event-driven front end.
//!
//! Each accepted socket gets a [`Conn`] that owns its receive and transmit
//! buffers and tracks where the connection is in its request/response
//! lifecycle. The reactor drives it with readiness events; the connection
//! never blocks and never panics (it is request-path code under the
//! panic-freedom lint policy).
//!
//! Lifecycle invariants:
//! - At most one request is *in flight* (dispatched to a worker) per
//!   connection at a time. Pipelined followers wait in `inbuf` — responses
//!   are therefore always delivered in request order, as HTTP/1.1 requires.
//! - While a request is in flight the reactor stops reading from the
//!   socket, bounding per-connection memory to one head + one body + the
//!   kernel receive buffer.
//! - A half-closed peer (EOF on read) still receives responses for every
//!   complete request already buffered; the connection closes once the
//!   transmit buffer drains.

use crate::http::{
    encode_response, parse_request, HttpError, HttpLimits, ParseOutcome, Request, Response,
    CONTINUE_INTERIM,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Which deadline a connection exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// The peer took too long to deliver a complete request (slowloris).
    /// The connection gets a `408` and is closed.
    Read,
    /// The peer took too long to drain a response we are writing. The
    /// connection is closed without further ceremony.
    Write,
    /// An idle keep-alive connection outlived the idle window. Closed
    /// silently — this is normal pool rotation, not an error.
    Idle,
}

/// Timeout configuration for one connection, all absolute (non-resetting)
/// once armed — a client trickling one byte per second cannot push a
/// deadline out indefinitely.
#[derive(Debug, Clone, Copy)]
pub struct ConnTimeouts {
    /// From the first byte of a request until it parses completely.
    pub read: std::time::Duration,
    /// From the moment the transmit buffer became non-empty until it drains.
    pub write: std::time::Duration,
    /// Maximum time a keep-alive connection may sit with no request bytes.
    pub idle: std::time::Duration,
}

/// What a connection wants from the reactor after an I/O step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnInterest {
    /// Register read interest (we are willing to accept more bytes).
    pub readable: bool,
    /// Register write interest (the transmit buffer is non-empty).
    pub writable: bool,
}

/// Outcome of advancing a connection's read side.
#[derive(Debug)]
pub enum ReadStep {
    /// Nothing actionable: need more bytes, or reading is paused.
    Idle,
    /// A complete request is ready for dispatch. The connection has marked
    /// itself in-flight; the reactor must route it to a worker (or shed).
    Dispatch(Request),
    /// The request could not be framed: the reactor should enqueue
    /// `error_response(e)` and close after flushing.
    Malformed(HttpError),
    /// The socket is finished (EOF with nothing pending, or a hard error).
    Closed,
}

/// Per-connection state machine. Owns the socket and both buffers.
pub struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes (pipelined requests queue up here).
    inbuf: Vec<u8>,
    /// Encoded-but-unsent response bytes.
    outbuf: Vec<u8>,
    /// How much of `outbuf` has been written so far.
    out_written: usize,
    /// A request has been dispatched and its response is not yet enqueued.
    in_flight: bool,
    /// Keep-alive decision for the in-flight request (from its headers).
    in_flight_keep_alive: bool,
    /// `100 Continue` already sent for the currently-parsing request.
    sent_continue: bool,
    /// Peer half-closed its write side (we saw EOF).
    peer_closed_read: bool,
    /// Close the connection once `outbuf` drains.
    close_after_flush: bool,
    /// Requests served on this connection (keep-alive reuse accounting).
    served: u64,
    /// Absolute deadline for the current read (armed at first request byte).
    read_deadline: Option<Instant>,
    /// Absolute deadline for draining `outbuf` (armed when it fills).
    write_deadline: Option<Instant>,
    /// Deadline for an idle keep-alive connection.
    idle_deadline: Option<Instant>,
    timeouts: ConnTimeouts,
    limits: HttpLimits,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking socket.
    pub fn new(
        stream: TcpStream,
        timeouts: ConnTimeouts,
        limits: HttpLimits,
        now: Instant,
    ) -> Self {
        Self {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_written: 0,
            in_flight: false,
            in_flight_keep_alive: true,
            sent_continue: false,
            peer_closed_read: false,
            close_after_flush: false,
            served: 0,
            read_deadline: None,
            write_deadline: None,
            idle_deadline: Some(now + timeouts.idle),
            timeouts,
            limits,
        }
    }

    /// The underlying socket (for poller registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Requests served on this connection so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// True while a dispatched request awaits its response.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Advances the read side: drains the socket into `inbuf` (unless a
    /// request is in flight), then tries to parse. Returns at most one
    /// dispatchable request per call — the reactor loops on readiness.
    pub fn on_readable(&mut self, now: Instant) -> ReadStep {
        if self.close_after_flush {
            return ReadStep::Idle;
        }
        // Backpressure: while a request is in flight we neither read nor
        // parse. Pipelined bytes stay in the kernel buffer / inbuf.
        if self.in_flight {
            return ReadStep::Idle;
        }
        if !self.peer_closed_read {
            let mut chunk = [0u8; 8 * 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.peer_closed_read = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf
                            .extend_from_slice(chunk.get(..n).unwrap_or_default());
                        // Cap how much we drain per tick so one firehose
                        // connection cannot monopolise the reactor. A short
                        // read is NOT treated as drained: reading on to
                        // WouldBlock/EOF is what lets us see a FIN that
                        // arrived right behind the request bytes (half-close)
                        // before dispatching.
                        if self.inbuf.len()
                            >= self.limits.max_head_bytes + self.limits.max_body_bytes
                        {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return ReadStep::Closed,
                }
            }
        }
        self.try_parse(now)
    }

    /// Attempts to frame one request from `inbuf`. Split out from
    /// [`Conn::on_readable`] so the reactor can re-poll the buffer right
    /// after a response completes (pipelined followers need no new bytes).
    pub fn try_parse(&mut self, now: Instant) -> ReadStep {
        if self.in_flight || self.close_after_flush {
            return ReadStep::Idle;
        }
        if self.inbuf.is_empty() {
            if self.peer_closed_read {
                // Clean EOF between requests: close once outbuf drains.
                return if self.outbuf.len() > self.out_written {
                    self.close_after_flush = true;
                    ReadStep::Idle
                } else {
                    ReadStep::Closed
                };
            }
            return ReadStep::Idle;
        }
        // Bytes are pending: the idle clock stops, the read clock starts.
        self.idle_deadline = None;
        if self.read_deadline.is_none() {
            self.read_deadline = Some(now + self.timeouts.read);
        }
        match parse_request(&self.inbuf, &self.limits) {
            ParseOutcome::Complete {
                request,
                consumed,
                keep_alive,
            } => {
                self.inbuf.drain(..consumed.min(self.inbuf.len()));
                self.read_deadline = None;
                self.sent_continue = false;
                self.in_flight = true;
                self.in_flight_keep_alive = keep_alive && !self.peer_closed_read;
                ReadStep::Dispatch(request)
            }
            ParseOutcome::Incomplete { send_continue } => {
                if self.peer_closed_read {
                    // A partial request can never complete now.
                    return ReadStep::Closed;
                }
                if send_continue && !self.sent_continue {
                    self.sent_continue = true;
                    self.outbuf.extend_from_slice(CONTINUE_INTERIM);
                    self.arm_write_deadline(now);
                }
                ReadStep::Idle
            }
            ParseOutcome::Invalid(e) => ReadStep::Malformed(e),
        }
    }

    /// Enqueues the response for the in-flight request. `keep_alive_allowed`
    /// lets the reactor force closure (e.g. per-connection request budget
    /// exhausted) independent of what the client asked for.
    pub fn complete(&mut self, response: &Response, keep_alive_allowed: bool, now: Instant) {
        // A half-closed peer (FIN already received) can never send another
        // request: advertising keep-alive would park a dead connection until
        // the idle reaper finds it.
        let keep = self.in_flight_keep_alive
            && keep_alive_allowed
            && !self.close_after_flush
            && !self.peer_closed_read;
        self.outbuf
            .extend_from_slice(&encode_response(response, keep));
        self.arm_write_deadline(now);
        self.in_flight = false;
        self.served = self.served.saturating_add(1);
        if !keep {
            self.close_after_flush = true;
        } else if self.inbuf.is_empty() && !self.peer_closed_read {
            self.idle_deadline = Some(now + self.timeouts.idle);
        }
    }

    /// Enqueues an error response and closes after flushing. Used for
    /// malformed requests, where resynchronising on the byte stream is
    /// impossible.
    pub fn fail(&mut self, response: &Response, now: Instant) {
        self.outbuf
            .extend_from_slice(&encode_response(response, false));
        self.arm_write_deadline(now);
        self.in_flight = false;
        self.close_after_flush = true;
    }

    fn arm_write_deadline(&mut self, now: Instant) {
        if self.outbuf.len() > self.out_written && self.write_deadline.is_none() {
            self.write_deadline = Some(now + self.timeouts.write);
        }
    }

    /// Flushes as much of `outbuf` as the socket accepts. Returns `false`
    /// when the connection is finished and should be dropped.
    pub fn on_writable(&mut self) -> bool {
        while self.out_written < self.outbuf.len() {
            let pending = self.outbuf.get(self.out_written..).unwrap_or_default();
            if pending.is_empty() {
                break;
            }
            match self.stream.write(pending) {
                Ok(0) => return false,
                Ok(n) => self.out_written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        // Fully flushed: reset the buffer and the write clock.
        self.outbuf.clear();
        self.out_written = 0;
        self.write_deadline = None;
        !self.close_after_flush
    }

    /// The readiness interest this connection currently needs.
    pub fn interest(&self) -> ConnInterest {
        ConnInterest {
            // Keep read interest while idle even with in_flight backpressure
            // paused parsing — we still want EOF/RST notification promptly.
            readable: !self.close_after_flush,
            writable: self.out_written < self.outbuf.len(),
        }
    }

    /// Checks all armed deadlines against `now`. At most one timeout fires
    /// per connection lifetime (the connection closes on any of them).
    pub fn check_deadline(&mut self, now: Instant) -> Option<TimeoutKind> {
        if let Some(d) = self.write_deadline {
            if now >= d {
                return Some(TimeoutKind::Write);
            }
        }
        if let Some(d) = self.read_deadline {
            if now >= d {
                return Some(TimeoutKind::Read);
            }
        }
        if let Some(d) = self.idle_deadline {
            if now >= d && !self.in_flight && self.outbuf.len() == self.out_written {
                return Some(TimeoutKind::Idle);
            }
        }
        None
    }

    /// The earliest armed deadline, for computing the poll timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        [self.read_deadline, self.write_deadline, self.idle_deadline]
            .into_iter()
            .flatten()
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn timeouts() -> ConnTimeouts {
        ConnTimeouts {
            read: Duration::from_secs(10),
            write: Duration::from_secs(10),
            idle: Duration::from_secs(30),
        }
    }

    fn conn(server: TcpStream) -> Conn {
        Conn::new(server, timeouts(), HttpLimits::default(), Instant::now())
    }

    #[test]
    fn dispatches_a_complete_request_and_pauses_while_in_flight() {
        use std::io::Write as _;
        let (mut client, server) = pair();
        let mut c = conn(server);
        client
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /next HTTP/1.1\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let ReadStep::Dispatch(req) = c.on_readable(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(req.path, "/healthz");
        assert!(c.in_flight());
        // Pipelined follower must NOT dispatch while in flight.
        assert!(matches!(c.on_readable(now), ReadStep::Idle));
        c.complete(&Response::json(200, "{}".into()), true, now);
        assert!(!c.in_flight());
        // After completion the buffered follower dispatches with no new bytes.
        let ReadStep::Dispatch(req) = c.try_parse(now) else {
            panic!("expected pipelined dispatch");
        };
        assert_eq!(req.path, "/next");
    }

    #[test]
    fn read_deadline_arms_on_partial_request_only() {
        use std::io::Write as _;
        let (mut client, server) = pair();
        let mut c = conn(server);
        let now = Instant::now();
        assert!(c.next_deadline().is_some(), "idle deadline armed at accept");
        client.write_all(b"GET /heal").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(c.on_readable(Instant::now()), ReadStep::Idle));
        // Partial bytes: the read clock replaced the idle clock.
        let deadline = c.next_deadline().expect("read deadline armed");
        assert!(deadline <= Instant::now() + timeouts().read);
        assert!(c.check_deadline(now).is_none());
        assert_eq!(
            c.check_deadline(now + Duration::from_secs(11)),
            Some(TimeoutKind::Read)
        );
    }

    #[test]
    fn half_close_still_serves_buffered_requests() {
        use std::io::Read as _;
        use std::io::Write as _;
        let (mut client, server) = pair();
        let mut c = conn(server);
        client.write_all(b"GET /only HTTP/1.1\r\n\r\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let ReadStep::Dispatch(req) = c.on_readable(now) else {
            panic!("expected dispatch despite half-close");
        };
        assert_eq!(req.path, "/only");
        c.complete(&Response::json(200, "{\"ok\":1}".into()), true, now);
        assert!(!c.on_writable(), "flushed and close_after_flush → drop");
        // The reactor drops the conn once on_writable() says so; dropping
        // closes the socket and lets the client read to EOF.
        drop(c);
        let mut out = String::new();
        client.read_to_string(&mut out).unwrap();
        assert!(out.contains("{\"ok\":1}"));
        // keep-alive is suppressed for a half-closed peer.
        assert!(out.contains("Connection: close"));
    }

    #[test]
    fn malformed_bytes_produce_an_error_then_close() {
        use std::io::Write as _;
        let (mut client, server) = pair();
        let mut c = conn(server);
        client.write_all(b"\x01\x02garbage\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let ReadStep::Malformed(e) = c.on_readable(now) else {
            panic!("expected malformed");
        };
        assert_eq!(e.status, 400);
        c.fail(&Response::json(e.status, "{}".into()), now);
        assert!(!c.on_writable(), "close_after_flush drops the conn");
    }

    #[test]
    fn idle_timeout_fires_only_when_truly_idle() {
        let (_client, server) = pair();
        let mut c = conn(server);
        let now = Instant::now();
        assert!(c.check_deadline(now).is_none());
        assert_eq!(
            c.check_deadline(now + Duration::from_secs(31)),
            Some(TimeoutKind::Idle)
        );
    }
}
