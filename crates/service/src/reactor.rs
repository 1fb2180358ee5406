//! The event-driven readiness loop behind the service's HTTP front end.
//!
//! One reactor thread owns the listener, the [`crate::sys::Poller`], and
//! every connection's [`Conn`] state machine. Request handling itself stays
//! on the worker pool: the reactor frames requests and pushes [`HttpJob`]s
//! into a *bounded* queue; workers push finished [`Response`]s into a
//! completion queue and wake the reactor through a self-pipe.
//!
//! Shed policy (each path ticks `agmdp_http_sheds_total{reason=…}` once):
//!
//! | Condition                  | Reason       | Client sees |
//! |----------------------------|--------------|-------------|
//! | open conns ≥ `max_conns`   | `max_conns`  | canned `503` + close |
//! | job queue full             | `queue_full` | `503` + `Retry-After`, conn stays open |
//! | token bucket empty         | `rate_limit` | `429` + `Retry-After` (in `server.rs`) |
//! | job slots exhausted        | `job_slots`  | `503` + `Retry-After` (in `server.rs`) |
//!
//! Timeout policy (each ticks `agmdp_conn_timeouts_total{kind=…}` once):
//! a stalled *read* gets `408` then close, a stalled *write* is closed
//! outright, an *idle* keep-alive connection is closed silently.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnTimeouts, ReadStep, TimeoutKind};
use crate::http::{encode_response, HttpLimits, Request, Response};
use crate::sys::{Interest, Poller, PollerEvent};
use crate::telemetry::{FrontendStats, Telemetry};

/// Poller token of the TCP listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the wake pipe's read end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection. Tokens are monotonically
/// increasing and never reused, so a late completion for a dead connection
/// can never be misdelivered to a new one.
const FIRST_CONN_TOKEN: u64 = 2;
/// Requests served per connection before keep-alive is withdrawn.
const KEEPALIVE_MAX_REQUESTS: u64 = 10_000;

/// A framed request en route to the worker pool.
pub struct HttpJob {
    /// Connection token the response must come back to.
    pub token: u64,
    /// The parsed request.
    pub request: Request,
}

/// Completion queue: workers push `(token, response)`, the reactor drains.
pub type Completions = Arc<Mutex<VecDeque<(u64, Response)>>>;

/// Wakes the reactor from another thread by writing one byte into the
/// self-pipe. Cheap, clonable, and safe to use after the reactor exits
/// (writes simply fail).
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudges the reactor out of `poller.wait`.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Reactor tuning, derived from `ServiceConfig` in `server.rs`.
pub struct ReactorConfig {
    /// Open-connection cap; excess accepts are shed with a canned `503`.
    pub max_conns: usize,
    /// Per-connection deadlines.
    pub timeouts: ConnTimeouts,
    /// Parser size caps.
    pub limits: HttpLimits,
    /// Kernel send-buffer override for accepted sockets (fault-injection
    /// tests shrink it to make write-stalls deterministic).
    pub send_buffer_bytes: Option<usize>,
}

struct ConnEntry {
    conn: Conn,
    registered: Interest,
}

/// The reactor: owns the listener, poller, and every connection.
pub struct Reactor {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    waker: Waker,
    conns: BTreeMap<u64, ConnEntry>,
    next_token: u64,
    config: ReactorConfig,
    jobs: SyncSender<HttpJob>,
    completions: Completions,
    shutdown: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
    stats: Arc<FrontendStats>,
}

impl Reactor {
    /// Builds a reactor around an already-bound listener. Returns the
    /// reactor plus the waker workers use to signal completions.
    pub fn new(
        listener: TcpListener,
        config: ReactorConfig,
        jobs: SyncSender<HttpJob>,
        completions: Completions,
        shutdown: Arc<AtomicBool>,
        telemetry: Arc<Telemetry>,
        stats: Arc<FrontendStats>,
    ) -> std::io::Result<(Self, Waker)> {
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let waker = Waker {
            tx: Arc::new(wake_tx),
        };
        Ok((
            Self {
                poller,
                listener,
                wake_rx,
                waker: waker.clone(),
                conns: BTreeMap::new(),
                next_token: FIRST_CONN_TOKEN,
                config,
                jobs,
                completions,
                shutdown,
                telemetry,
                stats,
            },
            waker,
        ))
    }

    /// Runs the readiness loop until shutdown. Consumes the reactor; the
    /// job sender drops on return, which drains and stops the worker pool.
    pub fn run(mut self) {
        let mut events: Vec<PollerEvent> = Vec::with_capacity(256);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let timeout = self.poll_timeout(Instant::now());
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // An unrecoverable poller error: shed everything and exit
                // rather than spin.
                return;
            }
            let now = Instant::now();
            // Take the events out of the reusable buffer so `self` methods
            // can borrow mutably while we iterate, then hand it back (wait()
            // clears it) so its capacity is reused across ticks.
            let drained = std::mem::take(&mut events);
            for ev in &drained {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKER => self.drain_wake_pipe(),
                    token => self.conn_ready(token, ev, now),
                }
            }
            events = drained;
            // Completions are drained every tick (not only on waker events):
            // a worker's wake byte can coalesce with other readiness.
            self.drain_completions(now);
            self.sweep_deadlines(now);
            self.reconcile_interest();
        }
    }

    /// The poll timeout: the nearest connection deadline, clamped to keep
    /// shutdown latency bounded even with no connections.
    fn poll_timeout(&self, now: Instant) -> Duration {
        let cap = Duration::from_millis(500);
        self.conns
            .values()
            .filter_map(|e| e.conn.next_deadline())
            .min()
            .map_or(cap, |d| d.saturating_duration_since(now).min(cap))
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.config.max_conns {
                        // Best-effort canned refusal; the socket is fresh so
                        // the bytes almost always fit the send buffer.
                        self.telemetry.record_shed("max_conns");
                        let refusal =
                            Response::error(503, "overloaded", "connection limit reached")
                                .with_retry_after(2);
                        let _ = (&stream).write(&encode_response(&refusal, false));
                        continue; // stream drops (closes) here
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.config.send_buffer_bytes {
                        let _ = crate::sys::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    let token = self.next_token;
                    self.next_token = self.next_token.wrapping_add(1);
                    let fd = stream.as_raw_fd();
                    let conn = Conn::new(stream, self.config.timeouts, self.config.limits, now);
                    if self.poller.register(fd, token, Interest::READ).is_err() {
                        continue; // conn drops (closes) here
                    }
                    self.stats.conn_opened();
                    self.conns.insert(
                        token,
                        ConnEntry {
                            conn,
                            registered: Interest::READ,
                        },
                    );
                    // Bytes may already be waiting (fast client): serve them
                    // this tick instead of paying one more poll round-trip.
                    self.advance_conn(token, true, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: pipe drained
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &PollerEvent, now: Instant) {
        if !self.conns.contains_key(&token) {
            return; // raced with removal this tick
        }
        if ev.writable {
            let alive = self
                .conns
                .get_mut(&token)
                .is_none_or(|entry| entry.conn.on_writable());
            if !alive {
                self.drop_conn(token);
                return;
            }
        }
        if ev.readable || ev.hangup {
            self.advance_conn(token, true, now);
        }
    }

    /// Drives one connection's read/parse/dispatch cycle as far as it can
    /// go without blocking. `read_socket` selects between draining the
    /// socket first (readiness event) and re-parsing buffered bytes only
    /// (post-completion pipelining).
    fn advance_conn(&mut self, token: u64, read_socket: bool, now: Instant) {
        let mut first = read_socket;
        loop {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            let step = if first {
                first = false;
                entry.conn.on_readable(now)
            } else {
                entry.conn.try_parse(now)
            };
            match step {
                ReadStep::Idle => break,
                ReadStep::Closed => {
                    self.drop_conn(token);
                    return;
                }
                ReadStep::Malformed(e) => {
                    let refusal = Response::error(e.status, "bad_request", &e.message);
                    entry.conn.fail(&refusal, now);
                    break;
                }
                ReadStep::Dispatch(request) => {
                    self.stats.job_queued();
                    match self.jobs.try_send(HttpJob { token, request }) {
                        Ok(()) => break, // in-flight: parsing pauses until completion
                        Err(TrySendError::Full(_job)) => {
                            self.stats.job_dequeued();
                            self.telemetry.record_shed("queue_full");
                            let shed =
                                Response::error(503, "overloaded", "job queue full; retry shortly")
                                    .with_retry_after(1);
                            self.finish_conn_request(token, &shed, now);
                            // Loop: pipelined followers (if any) get their
                            // own shed/dispatch decision.
                        }
                        Err(TrySendError::Disconnected(_job)) => {
                            self.stats.job_dequeued();
                            if let Some(entry) = self.conns.get_mut(&token) {
                                entry.conn.fail(
                                    &Response::error(503, "shutting_down", "server stopping"),
                                    now,
                                );
                            }
                            break;
                        }
                    }
                }
            }
        }
        self.flush_conn(token);
    }

    /// Enqueues `response` for the connection's in-flight request, applying
    /// the keep-alive request budget.
    fn finish_conn_request(&mut self, token: u64, response: &Response, now: Instant) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        let allow_keep_alive = entry.conn.served() + 1 < KEEPALIVE_MAX_REQUESTS;
        entry.conn.complete(response, allow_keep_alive, now);
        if entry.conn.served() > 1 {
            self.telemetry.record_keepalive_reuse();
        }
    }

    /// Opportunistic flush; drops the connection if the write side says it
    /// is finished.
    fn flush_conn(&mut self, token: u64) {
        let finished = self
            .conns
            .get_mut(&token)
            .is_some_and(|entry| !entry.conn.on_writable());
        if finished {
            self.drop_conn(token);
        }
    }

    fn drain_completions(&mut self, now: Instant) {
        loop {
            let next = {
                let Ok(mut queue) = self.completions.lock() else {
                    return;
                };
                queue.pop_front()
            };
            let Some((token, response)) = next else {
                return;
            };
            self.stats.job_dequeued();
            if !self.conns.contains_key(&token) {
                continue; // connection died while its request was in flight
            }
            self.finish_conn_request(token, &response, now);
            // The response may unblock a pipelined follower already sitting
            // in the connection's buffer.
            self.advance_conn(token, false, now);
        }
    }

    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<(u64, TimeoutKind)> = self
            .conns
            .iter_mut()
            .filter_map(|(token, entry)| entry.conn.check_deadline(now).map(|k| (*token, k)))
            .collect();
        for (token, kind) in expired {
            match kind {
                TimeoutKind::Read => {
                    self.telemetry.record_conn_timeout("read");
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.conn.fail(
                            &Response::error(408, "timeout", "request not received in time"),
                            now,
                        );
                    }
                    self.flush_conn(token);
                }
                TimeoutKind::Write => {
                    self.telemetry.record_conn_timeout("write");
                    self.drop_conn(token);
                }
                TimeoutKind::Idle => {
                    self.telemetry.record_conn_timeout("idle");
                    self.drop_conn(token);
                }
            }
        }
    }

    /// Brings the poller's interest set in line with what each connection
    /// currently wants. Level-triggered, so a stale-but-superset interest is
    /// only a spurious wakeup, never a lost event — but we still reconcile
    /// exactly to keep the loop quiet.
    fn reconcile_interest(&mut self) {
        let mut to_drop = Vec::new();
        for (token, entry) in &mut self.conns {
            let want = entry.conn.interest();
            if want == entry.registered {
                continue;
            }
            let fd = entry.conn.stream().as_raw_fd();
            if self.poller.reregister(fd, *token, want).is_err() {
                to_drop.push(*token);
                continue;
            }
            entry.registered = want;
        }
        for token in to_drop {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.poller.deregister(entry.conn.stream().as_raw_fd());
            self.stats.conn_closed();
        }
    }

    /// The waker paired with this reactor (used by `ServerHandle::stop`).
    #[must_use]
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }
}
