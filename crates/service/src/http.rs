//! Minimal HTTP/1.1 framing: the incremental request parser and response
//! encoder behind the event-driven reactor's connection state machine
//! ([`crate::conn`]).
//!
//! The container has no crates.io access, so the service hand-rolls the
//! small slice of HTTP it needs — exactly as the `vendor/` crates are
//! offline subsets of their upstreams. Supported: `Content-Length` bodies
//! (no chunked encoding), ASCII request targets, HTTP/1.1 keep-alive and
//! pipelining, `Expect: 100-continue`. The parser is *incremental*: it is
//! re-run against a connection's receive buffer as bytes arrive (a request
//! split across N one-byte writes parses exactly like one delivered whole)
//! and enforces its head/body caps **before** any body allocation happens.

/// Size caps applied while parsing a request.
///
/// Oversized heads are refused with `431`, oversized declared bodies with
/// `413` — in both cases *before* a body buffer is allocated, so a hostile
/// `Content-Length` can never drive an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Upper bound on the request head (request line + headers).
    pub max_head_bytes: usize,
    /// Upper bound on a request body (graph uploads are line-oriented text).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), upper-cased as received.
    pub method: String,
    /// Request target path, e.g. `/budget/lastfm` (query strings are kept
    /// verbatim; the service's routes do not use them).
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// An outgoing HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value (JSON everywhere except the Prometheus
    /// text exposition at `GET /metrics`).
    pub content_type: &'static str,
    /// Optional `Retry-After` header (seconds), set on load-shedding
    /// responses (`429`, `503`) so well-behaved clients back off.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A Prometheus text-exposition response with the given status.
    #[must_use]
    pub fn metrics_text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            retry_after: None,
        }
    }

    /// A plain-text response (the `/__debug/payload` fault-injection
    /// endpoint; everything user-facing is JSON).
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After: secs` header (load-shedding responses).
    #[must_use]
    pub fn with_retry_after(mut self, secs: u32) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// Error produced while reading a request; maps onto a status code.
#[derive(Debug)]
pub struct HttpError {
    /// The status code the peer should receive (400, 413, 431, 505, …).
    pub status: u16,
    /// Human-readable description, echoed in the error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// The canonical reason phrase for the status codes the service emits.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        402 => "Payment Required",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Result of running the incremental parser over a receive buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffer does not yet hold one complete request. `send_continue`
    /// is set once the head is fully parsed, the client sent
    /// `Expect: 100-continue`, and body bytes are still outstanding — the
    /// connection should emit an interim `100 Continue` (at most once).
    Incomplete {
        /// Whether an interim `100 Continue` should be written now.
        send_continue: bool,
    },
    /// One complete request; `consumed` bytes must be drained from the
    /// front of the buffer (pipelined followers stay behind).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
        /// Whether HTTP semantics allow reusing the connection
        /// (HTTP/1.1 without `Connection: close`, or HTTP/1.0 with an
        /// explicit `keep-alive`).
        keep_alive: bool,
    },
    /// The bytes cannot be framed as a request. The connection should send
    /// `error` and close — after a framing failure there is no way to find
    /// the start of a next request.
    Invalid(HttpError),
}

/// Finds the end of the request head: the byte index just past the first
/// empty line. Tolerates bare-LF line endings alongside CRLF.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    for (i, b) in buf.iter().enumerate() {
        if *b != b'\n' {
            continue;
        }
        let line = buf.get(line_start..i).unwrap_or_default();
        if line.is_empty() || line == b"\r" {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

/// Parsed header fields the framing layer cares about.
#[derive(Debug, Default)]
struct HeadFields {
    content_length: usize,
    connection_close: bool,
    connection_keep_alive: bool,
    expect_continue: bool,
}

fn parse_head_fields(lines: std::str::Lines<'_>) -> Result<HeadFields, HttpError> {
    let mut fields = HeadFields::default();
    let mut saw_content_length = false;
    for raw in lines {
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "malformed header line"));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
            if saw_content_length && parsed != fields.content_length {
                return Err(HttpError::new(400, "conflicting Content-Length headers"));
            }
            saw_content_length = true;
            fields.content_length = parsed;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::new(400, "chunked bodies are not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    fields.connection_close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    fields.connection_keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            fields.expect_continue = true;
        }
    }
    Ok(fields)
}

/// Runs the incremental parser against the front of `buf`.
///
/// Stateless by design: callers re-invoke it as bytes arrive. All limit
/// checks fire from header information alone, before any body allocation.
#[must_use]
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> ParseOutcome {
    let Some(head_end) = find_head_end(buf) else {
        // No terminating empty line yet. A head that has already outgrown
        // the cap will never become valid — shed it now (slow-write clients
        // cannot buffer unbounded header bytes).
        if buf.len() > limits.max_head_bytes {
            return ParseOutcome::Invalid(HttpError::new(431, "request head too large"));
        }
        return ParseOutcome::Incomplete {
            send_continue: false,
        };
    };
    if head_end > limits.max_head_bytes {
        return ParseOutcome::Invalid(HttpError::new(431, "request head too large"));
    }
    let head_bytes = buf.get(..head_end).unwrap_or_default();
    let Ok(head) = std::str::from_utf8(head_bytes) else {
        return ParseOutcome::Invalid(HttpError::new(400, "non-UTF-8 header"));
    };

    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let Some(method) = parts.next() else {
        return ParseOutcome::Invalid(HttpError::new(400, "empty request line"));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return ParseOutcome::Invalid(HttpError::new(400, "malformed method token"));
    }
    let Some(path) = parts.next() else {
        return ParseOutcome::Invalid(HttpError::new(400, "missing request target"));
    };
    let Some(version) = parts.next() else {
        return ParseOutcome::Invalid(HttpError::new(400, "missing HTTP version"));
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ParseOutcome::Invalid(HttpError::new(505, format!("unsupported {version}")));
    }
    if !path.starts_with('/') {
        return ParseOutcome::Invalid(HttpError::new(400, "request target must be absolute path"));
    }

    let fields = match parse_head_fields(lines) {
        Ok(fields) => fields,
        Err(e) => return ParseOutcome::Invalid(e),
    };
    // The body cap fires on the *declared* length, before the body buffer
    // (or even the body bytes) exist.
    if fields.content_length > limits.max_body_bytes {
        return ParseOutcome::Invalid(HttpError::new(413, "request body too large"));
    }
    let needed = head_end.saturating_add(fields.content_length);
    if buf.len() < needed {
        return ParseOutcome::Incomplete {
            send_continue: fields.expect_continue,
        };
    }
    let body = buf.get(head_end..needed).unwrap_or_default().to_vec();
    let keep_alive = if version == "HTTP/1.1" {
        !fields.connection_close
    } else {
        fields.connection_keep_alive && !fields.connection_close
    };
    ParseOutcome::Complete {
        request: Request {
            method: method.to_ascii_uppercase(),
            path: path.to_string(),
            body,
        },
        consumed: needed,
        keep_alive,
    }
}

/// The interim response emitted for `Expect: 100-continue` requests.
pub const CONTINUE_INTERIM: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Serialises a response head + body to wire bytes. `keep_alive` selects the
/// `Connection` header; header order is fixed so responses are byte-stable
/// across worker counts.
#[must_use]
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one complete request; an incomplete buffer is a test failure.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        match parse_request(raw.as_bytes(), &HttpLimits::default()) {
            ParseOutcome::Complete { request, .. } => Ok(request),
            ParseOutcome::Invalid(e) => Err(e),
            other => panic!("expected a complete or invalid request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length() {
        let req = parse("POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"\"}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"\"}");
    }

    #[test]
    fn tolerates_bare_lf_and_lowercase_headers() {
        let req = parse("post /x HTTP/1.1\ncontent-length: 2\n\nok").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(parse("\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x HTTP/2\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(parse("GET x HTTP/1.1\r\n\r\n").unwrap_err().status, 400);
        // Garbage before the request line: not a method token.
        assert_eq!(
            parse("\x00\x01\x02 /x HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Oversized declared body: refused from the header alone (413).
        assert_eq!(
            parse(&format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                HttpLimits::default().max_body_bytes + 1
            ))
            .unwrap_err()
            .status,
            413
        );
        // Conflicting Content-Length headers.
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn body_cap_is_configurable_and_fires_before_any_body_arrives() {
        let limits = HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 100,
        };
        // Head only — no body byte was ever sent, yet the declared length
        // alone triggers the 413.
        let out = parse_request(b"POST /x HTTP/1.1\r\nContent-Length: 101\r\n\r\n", &limits);
        match out {
            ParseOutcome::Invalid(e) => assert_eq!(e.status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
        // At the cap is still fine.
        let body = "y".repeat(100);
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n{body}");
        match parse_request(raw.as_bytes(), &limits) {
            ParseOutcome::Complete { request, .. } => assert_eq!(request.body.len(), 100),
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn oversized_heads_get_431() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        };
        // Complete but oversized head.
        let raw = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "p".repeat(100));
        match parse_request(raw.as_bytes(), &limits) {
            ParseOutcome::Invalid(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
        // Unterminated head that has already outgrown the cap.
        let raw = format!("GET /x HTTP/1.1\r\nX-Pad: {}", "p".repeat(100));
        match parse_request(raw.as_bytes(), &limits) {
            ParseOutcome::Invalid(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_is_byte_at_a_time_safe() {
        let raw = b"POST /synthesize HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let limits = HttpLimits::default();
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], &limits) {
                ParseOutcome::Incomplete { .. } => {}
                other => panic!("prefix {cut} should be incomplete, got {other:?}"),
            }
        }
        match parse_request(raw, &limits) {
            ParseOutcome::Complete {
                request,
                consumed,
                keep_alive,
            } => {
                assert_eq!(request.body, b"ok");
                assert_eq!(consumed, raw.len());
                assert!(keep_alive);
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_consume_only_their_own_bytes() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let limits = HttpLimits::default();
        let ParseOutcome::Complete {
            request, consumed, ..
        } = parse_request(raw, &limits)
        else {
            panic!("first request should parse");
        };
        assert_eq!(request.path, "/a");
        let ParseOutcome::Complete { request, .. } = parse_request(&raw[consumed..], &limits)
        else {
            panic!("second request should parse");
        };
        assert_eq!(request.path, "/b");
    }

    #[test]
    fn keep_alive_semantics_by_version_and_connection_header() {
        let limits = HttpLimits::default();
        let ka = |raw: &[u8]| match parse_request(raw, &limits) {
            ParseOutcome::Complete { keep_alive, .. } => keep_alive,
            other => panic!("expected complete, got {other:?}"),
        };
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!ka(
            b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
    }

    #[test]
    fn expect_continue_is_reported_once_head_is_parsed() {
        let limits = HttpLimits::default();
        let head = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\n";
        match parse_request(head, &limits) {
            ParseOutcome::Incomplete { send_continue } => assert!(send_continue),
            other => panic!("expected incomplete, got {other:?}"),
        }
        // Mid-head: no interim response yet.
        match parse_request(&head[..10], &limits) {
            ParseOutcome::Incomplete { send_continue } => assert!(!send_continue),
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn response_wire_format_is_well_formed() {
        let out = encode_response(&Response::json(200, "{\"ok\":true}".into()), false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn keep_alive_and_retry_after_headers_are_encoded() {
        let shed = Response::json(503, "{}".into()).with_retry_after(2);
        let text = String::from_utf8(encode_response(&shed, true)).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        let closed =
            String::from_utf8(encode_response(&Response::json(200, "x".into()), false)).unwrap();
        assert!(closed.contains("Connection: close\r\n"));
        assert!(!closed.contains("Retry-After"));
    }

    #[test]
    fn metrics_responses_use_the_text_exposition_content_type() {
        let body = "agmdp_requests_total 1\n".to_string();
        let text =
            String::from_utf8(encode_response(&Response::metrics_text(200, body), false)).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.ends_with("agmdp_requests_total 1\n"));
    }
}
