//! The HTTP/1.1 front end (ROADMAP item 1).
//!
//! Built on `std::net` only — the workspace vendors no async runtime — and
//! layered exactly like the `tokio_php` exemplar:
//!
//! ```text
//!   acceptor thread ── connection threads (parse, keep-alive)
//!        │                   │
//!        │             middleware chain  (rate limit → access log →
//!        │                   │            error pages → identity encoding)
//!        │             admission control (predicted-wait shedding, 503)
//!        │                   │
//!        │             bounded sync_channel queue
//!        │                   │
//!        └───────────► N PHP workers, each a private [`Server`]
//!                           (sandbox → faults → breakers → memo → replay)
//! ```
//!
//! The HTTP layer is a *transport* over the same [`Server::serve_indexed`]
//! seam the deterministic pool drives: a worker thread owns a private
//! [`PhpMachine`] wrapped in a `Server`, pulls each request's due faults
//! from one shared global [`FaultPlan`], and serves corpus scripts through
//! the full sandbox/fault/breaker/memo pipeline. With
//! `reset_between_requests` every response is machine-history-independent,
//! so the bytes served over a socket are byte-identical to driving the
//! `Server` directly on the same request indices — the end-to-end test's
//! invariant, and the reason HTTP never becomes a second execution path.
//!
//! Internal endpoints: `GET /health` (liveness) and `GET /metrics`
//! (Prometheus text format, schema in [`crate::metrics_text`]). Application
//! traffic is `GET /run/<corpus-script>`.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, ShedCause};
use crate::breaker::{BreakerConfig, BreakerState};
use crate::fault::FaultPlan;
use crate::hist::Histogram;
use crate::memo::{MemoCache, MemoCacheStats};
use crate::metrics_text::{render_prometheus, MetricsSnapshot};
use crate::middleware::{
    AccessLog, ErrorPages, IdentityEncoding, Middleware as _, MiddlewareChain, MiddlewareRequest,
    RateLimit,
};
use crate::sandbox::SandboxConfig;
use crate::server::{ServeStats, Server};
use php_interp::MemoTier;
use php_runtime::StaticSavings;
use phpaccel_core::{AccelId, Engine, PhpMachine};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Hard limits the parser enforces before allocating or trusting anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum request-line length in bytes (414 beyond it).
    pub max_request_line: usize,
    /// Maximum single header line length in bytes (431 beyond it).
    pub max_header_line: usize,
    /// Maximum number of header lines (431 beyond it).
    pub max_headers: usize,
    /// Maximum declared body size in bytes (413 beyond it).
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 8192,
            max_header_line: 8192,
            max_headers: 100,
            max_body: 1 << 20,
        }
    }
}

/// Why a request failed to parse. [`HttpParseError::status`] maps each
/// variant to the response the connection sends before closing; `Eof` and
/// `Io` get no response (the peer is gone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// Clean end of stream before any request byte — a closed keep-alive.
    Eof,
    /// Transport error mid-request.
    Io(ErrorKind),
    /// Request line exceeded [`HttpLimits::max_request_line`].
    RequestLineTooLong,
    /// Request line was not `METHOD TARGET HTTP/x.y`.
    MalformedRequestLine,
    /// HTTP version other than 1.0 / 1.1.
    UnsupportedVersion,
    /// A header line had no colon or an empty name.
    MalformedHeader,
    /// A header line exceeded [`HttpLimits::max_header_line`].
    HeaderTooLong,
    /// More than [`HttpLimits::max_headers`] header lines.
    TooManyHeaders,
    /// `Content-Length` was not a decimal integer.
    InvalidContentLength,
    /// Declared body exceeded [`HttpLimits::max_body`].
    BodyTooLarge,
    /// A `Transfer-Encoding` other than `identity` (chunked is not
    /// implemented; the server never advertises it).
    UnsupportedTransferEncoding,
    /// The stream ended mid-request (truncated headers or body).
    UnexpectedEof,
}

impl HttpParseError {
    /// The status code to answer with, or `None` when the peer is gone and
    /// no response can be delivered.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpParseError::Eof | HttpParseError::Io(_) => None,
            HttpParseError::RequestLineTooLong => Some(414),
            HttpParseError::MalformedRequestLine
            | HttpParseError::MalformedHeader
            | HttpParseError::InvalidContentLength
            | HttpParseError::UnexpectedEof => Some(400),
            HttpParseError::UnsupportedVersion => Some(505),
            HttpParseError::HeaderTooLong | HttpParseError::TooManyHeaders => Some(431),
            HttpParseError::BodyTooLarge => Some(413),
            HttpParseError::UnsupportedTransferEncoding => Some(501),
        }
    }
}

/// HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// HTTP/1.0 (keep-alive is opt-in).
    H10,
    /// HTTP/1.1 (keep-alive is the default).
    H11,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as received (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path + query, undecoded).
    pub target: String,
    /// Percent-decoded path component.
    pub path: String,
    /// Decoded query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Protocol version.
    pub version: HttpVersion,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes (excluding the
/// terminator). Distinguishes clean EOF, truncation, and oversize.
fn read_line_bounded<R: BufRead>(
    r: &mut R,
    max: usize,
    oversize: HttpParseError,
) -> Result<Vec<u8>, HttpParseError> {
    let mut buf = Vec::new();
    let mut limited = r.by_ref().take(max as u64 + 2);
    match limited.read_until(b'\n', &mut buf) {
        Ok(_) => {}
        Err(e) => return Err(HttpParseError::Io(e.kind())),
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > max {
            return Err(oversize);
        }
        Ok(buf)
    } else if buf.len() > max {
        Err(oversize)
    } else if buf.is_empty() {
        Err(HttpParseError::Eof)
    } else {
        Err(HttpParseError::UnexpectedEof)
    }
}

/// Decodes `%XX` escapes (and, in query mode, `+` as space). Invalid or
/// truncated escapes pass through literally; the result is lossy UTF-8 —
/// decoding never fails and never panics.
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into a decoded path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(kv, true), String::new()),
        })
        .collect();
    (percent_decode(path, false), pairs)
}

/// Parses one HTTP/1.x request from `r` under `limits`. Never panics on any
/// input (see the `http_parser_prop` proptest); every malformed or
/// oversized input maps to an [`HttpParseError`] the connection can answer
/// and close on.
pub fn parse_request<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
) -> Result<HttpRequest, HttpParseError> {
    let line = read_line_bounded(
        r,
        limits.max_request_line,
        HttpParseError::RequestLineTooLong,
    )?;
    let line = String::from_utf8_lossy(&line).into_owned();
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpParseError::MalformedRequestLine),
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpParseError::MalformedRequestLine);
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpParseError::MalformedRequestLine);
    }
    let version = match version {
        "HTTP/1.1" => HttpVersion::H11,
        "HTTP/1.0" => HttpVersion::H10,
        _ => return Err(HttpParseError::UnsupportedVersion),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let raw = match read_line_bounded(r, limits.max_header_line, HttpParseError::HeaderTooLong)
        {
            Ok(raw) => raw,
            // Truncation inside the header block is never a clean EOF.
            Err(HttpParseError::Eof) => return Err(HttpParseError::UnexpectedEof),
            Err(e) => return Err(e),
        };
        if raw.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpParseError::TooManyHeaders);
        }
        let raw = String::from_utf8_lossy(&raw).into_owned();
        let Some((name, value)) = raw.split_once(':') else {
            return Err(HttpParseError::MalformedHeader);
        };
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpParseError::MalformedHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if let Some(te) = find("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpParseError::UnsupportedTransferEncoding);
        }
    }
    let content_length = match find("content-length") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| HttpParseError::InvalidContentLength)?,
        None => 0,
    };
    if content_length > limits.max_body as u64 {
        return Err(HttpParseError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length as usize];
    if content_length > 0 {
        r.read_exact(&mut body).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => HttpParseError::UnexpectedEof,
            kind => HttpParseError::Io(kind),
        })?;
    }

    let keep_alive = match (version, find("connection")) {
        (_, Some(c)) if c.eq_ignore_ascii_case("close") => false,
        (HttpVersion::H10, Some(c)) if c.eq_ignore_ascii_case("keep-alive") => true,
        (HttpVersion::H10, _) => false,
        (HttpVersion::H11, _) => true,
    };
    let (path, query) = split_target(target);
    Ok(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        path,
        query,
        version,
        headers,
        body,
        keep_alive,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The canonical reason phrase for a status code.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// One response under construction (middleware mutates it in place).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers in order, names lowercased. `content-length` and
    /// `connection` are emitted by [`HttpResponse::write_to`] and must not
    /// be set here.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse::new(status)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// A `text/html` response.
    pub fn html(status: u16, body: Vec<u8>) -> Self {
        HttpResponse::new(status)
            .with_header("content-type", "text/html; charset=utf-8")
            .with_body(body)
    }

    /// Appends a header (name lowercased).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// Replaces the body.
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets or replaces a header in place.
    pub fn set_header(&mut self, name: &str, value: &str) {
        let name = name.to_ascii_lowercase();
        match self.headers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value.to_string(),
            None => self.headers.push((name, value.to_string())),
        }
    }

    /// Serializes the response, adding `content-length` and `connection`.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "content-length: {}\r\n", self.body.len())?;
        write!(
            w,
            "connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Front-end configuration. The request pipeline behind the queue reuses
/// the same knobs as [`crate::pool::PoolConfig`], so a loopback run is
/// directly comparable to a pool run.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// PHP worker threads (≥ 1).
    pub workers: usize,
    /// Bounded request-queue capacity (≥ 1); arrivals beyond it get 503.
    pub queue_capacity: usize,
    /// Execution engine on every worker machine.
    pub engine: Engine,
    /// Breaker configuration for every worker's four breakers.
    pub breaker_cfg: BreakerConfig,
    /// Per-request sandbox limits.
    pub sandbox: SandboxConfig,
    /// Global fault plan; workers pull each request's due faults from it.
    pub plan: FaultPlan,
    /// Replay each successful request on a per-worker all-software
    /// reference and count byte mismatches.
    pub reference: bool,
    /// Restore machines to a pristine request boundary after every request.
    /// Required for byte-identity with a directly-driven [`Server`]: HTTP
    /// assigns requests to workers dynamically, so responses must not
    /// depend on machine history.
    pub reset_between_requests: bool,
    /// Arena/epoch allocation on worker machines.
    pub arena: bool,
    /// Shared cross-request memo tier.
    pub memo: Option<Arc<MemoCache>>,
    /// Parser limits.
    pub limits: HttpLimits,
    /// Deadline-aware admission control; `None` admits everything the
    /// queue can hold.
    pub admission: Option<AdmissionConfig>,
    /// Token-bucket rate limiting `(capacity, refill_per_sec)`; `None`
    /// disables the stage.
    pub rate_limit: Option<(u64, f64)>,
    /// Maximum concurrent connections; beyond it new connections get an
    /// immediate 503 and close.
    pub max_connections: usize,
    /// Maximum requests served per keep-alive connection.
    pub max_keep_alive_requests: usize,
}

impl HttpConfig {
    /// A loopback configuration with `workers` workers, reference replay
    /// and reset-between-requests on, and no faults, admission, or rate
    /// limiting.
    pub fn loopback(workers: usize) -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_capacity: workers.max(1) * 100,
            engine: Engine::TreeWalk,
            breaker_cfg: BreakerConfig::default(),
            sandbox: SandboxConfig::unlimited(),
            plan: FaultPlan::default(),
            reference: true,
            reset_between_requests: true,
            arena: false,
            memo: None,
            limits: HttpLimits::default(),
            admission: None,
            rate_limit: None,
            max_connections: 256,
            max_keep_alive_requests: 10_000,
        }
    }
}

/// Point-in-time front-door counters (everything that happens before a
/// request reaches a worker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because `max_connections` was reached.
    pub connections_refused: u64,
    /// Requests parsed successfully.
    pub http_requests: u64,
    /// Requests that failed to parse (answered 4xx/5xx and closed).
    pub parse_errors: u64,
    /// `/run/<name>` lookups that missed the corpus.
    pub not_found: u64,
    /// Non-GET requests refused with 405.
    pub method_not_allowed: u64,
    /// Requests refused with 429 by the rate limiter.
    pub rate_limited: u64,
    /// Arrivals shed by admission control (predicted deadline miss).
    pub shed_over_budget: u64,
    /// Arrivals shed because the bounded queue was full.
    pub shed_queue_full: u64,
    /// `/health` requests served.
    pub health_requests: u64,
    /// `/metrics` requests served.
    pub metrics_requests: u64,
    /// Access-log lines dropped from the front of the bounded log.
    pub access_log_dropped: u64,
}

impl FrontSnapshot {
    /// Total arrivals refused with 503 before reaching a worker.
    pub fn shed_total(&self) -> u64 {
        self.shed_over_budget + self.shed_queue_full
    }
}

#[derive(Debug, Default)]
struct FrontCounters {
    connections: AtomicU64,
    connections_refused: AtomicU64,
    http_requests: AtomicU64,
    parse_errors: AtomicU64,
    not_found: AtomicU64,
    method_not_allowed: AtomicU64,
    shed_over_budget: AtomicU64,
    shed_queue_full: AtomicU64,
    health_requests: AtomicU64,
    metrics_requests: AtomicU64,
}

/// One worker's published state, refreshed after every request it serves.
#[derive(Debug, Clone, Default)]
struct WorkerSnapshot {
    stats: ServeStats,
    savings: StaticSavings,
    injected: [u64; 4],
    detected: [u64; 4],
    trips: [u64; 4],
    recoveries: [u64; 4],
    /// Breaker state per domain: 0 closed, 1 half-open, 2 open.
    breaker_states: [u8; 4],
    total_uops: u64,
    live_blocks: usize,
}

/// One queued request.
struct Job {
    req: u64,
    script: Arc<workloads::php_corpus::PreparedScript>,
    depth_at_arrival: u64,
    reply: std::sync::mpsc::Sender<WorkerReply>,
}

struct WorkerReply {
    status: u16,
    body: Vec<u8>,
}

/// Shared state between the acceptor, connection threads, and workers.
struct FrontState {
    corpus: Arc<workloads::php_corpus::CorpusCache>,
    jobs: SyncSender<Job>,
    queue_depth: AtomicUsize,
    next_request: AtomicU64,
    admission: Option<Mutex<AdmissionController>>,
    plan: Mutex<FaultPlan>,
    snapshots: Vec<Mutex<WorkerSnapshot>>,
    front: FrontCounters,
    shed_depth: Mutex<Histogram>,
    chain: MiddlewareChain,
    access_log: Arc<AccessLog>,
    rate_limit: Option<Arc<RateLimit>>,
    memo: Option<Arc<MemoCache>>,
    shutdown: AtomicBool,
    conn_count: AtomicUsize,
    limits: HttpLimits,
    max_connections: usize,
    max_keep_alive_requests: usize,
}

impl FrontState {
    fn front_snapshot(&self) -> FrontSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FrontSnapshot {
            connections: load(&self.front.connections),
            connections_refused: load(&self.front.connections_refused),
            http_requests: load(&self.front.http_requests),
            parse_errors: load(&self.front.parse_errors),
            not_found: load(&self.front.not_found),
            method_not_allowed: load(&self.front.method_not_allowed),
            rate_limited: self.rate_limit.as_ref().map_or(0, |r| r.limited()),
            shed_over_budget: load(&self.front.shed_over_budget),
            shed_queue_full: load(&self.front.shed_queue_full),
            health_requests: load(&self.front.health_requests),
            metrics_requests: load(&self.front.metrics_requests),
            access_log_dropped: self.access_log.dropped(),
        }
    }

    /// Merges the workers' published state and the front door's shed
    /// accounting into one metrics snapshot. Front sheds are folded into
    /// the merged [`ServeStats`] (`requests`/`shed`/arrival-depth
    /// histogram) so [`ServeStats::outcomes_partition_requests`] covers
    /// every arrival, exactly as in the overload layer.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let front = self.front_snapshot();
        let mut stats = ServeStats::default();
        let mut savings = StaticSavings::default();
        let mut injected = [0u64; 4];
        let mut detected = [0u64; 4];
        let mut trips = [0u64; 4];
        let mut recoveries = [0u64; 4];
        let mut breaker_states = Vec::with_capacity(self.snapshots.len());
        let mut worker_uops = Vec::with_capacity(self.snapshots.len());
        let mut live_blocks = 0usize;
        for slot in &self.snapshots {
            let snap = slot.lock().unwrap_or_else(|e| e.into_inner()).clone();
            stats.merge(&snap.stats);
            savings.accumulate(&snap.savings);
            for i in 0..4 {
                injected[i] += snap.injected[i];
                detected[i] += snap.detected[i];
                trips[i] += snap.trips[i];
                recoveries[i] += snap.recoveries[i];
            }
            breaker_states.push(snap.breaker_states);
            worker_uops.push(snap.total_uops);
            live_blocks += snap.live_blocks;
        }
        let sheds = front.shed_total();
        stats.requests += sheds;
        stats.shed += sheds;
        stats
            .queue_depth
            .merge(&self.shed_depth.lock().unwrap_or_else(|e| e.into_inner()));
        MetricsSnapshot {
            workers: self.snapshots.len(),
            stats,
            savings,
            injected,
            detected,
            trips,
            recoveries,
            breaker_states,
            worker_uops,
            live_blocks,
            memo: self.memo.as_ref().map(|m| m.stats()),
            front,
        }
    }
}

/// End-of-run report returned by [`HttpHandle::shutdown`]. The serving-side
/// fields mirror [`crate::pool::PoolReport`] so loopback runs reconcile
/// against pool runs; `stats` includes front-door sheds (see
/// [`FrontState::metrics_snapshot`]).
#[derive(Debug)]
pub struct HttpReport {
    /// Merged serving statistics (workers + front-door sheds).
    pub stats: ServeStats,
    /// Summed static-analysis savings across workers.
    pub savings: StaticSavings,
    /// Summed injected-fault counters per domain.
    pub injected: [u64; 4],
    /// Summed detected-fault counters per domain.
    pub detected: [u64; 4],
    /// Summed breaker trips per domain.
    pub trips: [u64; 4],
    /// Summed breaker recoveries per domain.
    pub recoveries: [u64; 4],
    /// Final breaker state per worker per domain: 0 closed, 1 half-open,
    /// 2 open.
    pub breaker_states: Vec<[u8; 4]>,
    /// Total metered µops per worker.
    pub worker_uops: Vec<u64>,
    /// Live allocator blocks across worker machines after the run.
    pub live_blocks: usize,
    /// End-of-run memo-cache snapshot, when a tier was configured.
    pub memo: Option<MemoCacheStats>,
    /// Front-door counters.
    pub front: FrontSnapshot,
    /// The access log's retained (most recent) lines in completion order;
    /// `front.access_log_dropped` counts the older lines it dropped.
    pub access_log: Vec<String>,
}

/// A running front end. Dropping the handle without calling
/// [`HttpHandle::shutdown`] leaves the threads running for the process
/// lifetime (the `serve_http` binary relies on that).
pub struct HttpServer {
    state: Arc<FrontState>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<VecDeque<JoinHandle<()>>>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Binds, spawns the acceptor and `cfg.workers` worker threads, and
    /// returns a handle. `corpus` provides the `/run/<name>` scripts.
    pub fn start(
        cfg: HttpConfig,
        corpus: Arc<workloads::php_corpus::CorpusCache>,
    ) -> std::io::Result<HttpServer> {
        assert!(cfg.workers > 0, "the front end needs at least one worker");
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;

        let (jobs_tx, jobs_rx) = sync_channel::<Job>(cfg.queue_capacity.max(1));
        let access_log = Arc::new(AccessLog::new());
        let rate_limit = cfg
            .rate_limit
            .map(|(cap, refill)| Arc::new(RateLimit::new(cap, refill)));
        let mut chain = MiddlewareChain::new();
        if let Some(rl) = &rate_limit {
            chain = chain.with(Arc::clone(rl));
        }
        chain = chain
            .with(Arc::clone(&access_log))
            .with(ErrorPages)
            .with(IdentityEncoding);

        let state = Arc::new(FrontState {
            corpus,
            jobs: jobs_tx,
            queue_depth: AtomicUsize::new(0),
            next_request: AtomicU64::new(0),
            admission: cfg
                .admission
                .map(|a| Mutex::new(AdmissionController::new(a))),
            plan: Mutex::new(cfg.plan.clone()),
            snapshots: (0..cfg.workers)
                .map(|_| Mutex::new(WorkerSnapshot::default()))
                .collect(),
            front: FrontCounters::default(),
            shed_depth: Mutex::new(Histogram::new()),
            chain,
            access_log,
            rate_limit,
            memo: cfg.memo.clone(),
            shutdown: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            limits: cfg.limits,
            max_connections: cfg.max_connections.max(1),
            max_keep_alive_requests: cfg.max_keep_alive_requests.max(1),
        });

        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers)
            .map(|w| {
                let state = Arc::clone(&state);
                let jobs_rx = Arc::clone(&jobs_rx);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("php-worker-{w}"))
                    .spawn(move || worker_loop(w, &cfg, &state, &jobs_rx))
                    .expect("spawn worker thread")
            })
            .collect();

        let conn_handles = Arc::new(Mutex::new(VecDeque::new()));
        let acceptor = {
            let state = Arc::clone(&state);
            let conn_handles = Arc::clone(&conn_handles);
            std::thread::Builder::new()
                .name("http-acceptor".into())
                .spawn(move || acceptor_loop(listener, state, conn_handles))
                .expect("spawn acceptor thread")
        };

        Ok(HttpServer {
            state,
            addr,
            acceptor,
            workers,
            conn_handles,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot (what `/metrics` renders).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.state.metrics_snapshot()
    }

    /// Stops accepting, drains the queue, joins every thread, and returns
    /// the final report.
    pub fn shutdown(self) -> HttpReport {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        // Connection threads finish first (workers must stay alive to
        // answer their queued jobs) …
        loop {
            let handle = self
                .conn_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // … then the workers drain the (now quiescent) queue and exit on
        // the shutdown flag.
        for h in self.workers {
            let _ = h.join();
        }
        let snap = self.state.metrics_snapshot();
        HttpReport {
            stats: snap.stats,
            savings: snap.savings,
            injected: snap.injected,
            detected: snap.detected,
            trips: snap.trips,
            recoveries: snap.recoveries,
            breaker_states: snap.breaker_states,
            worker_uops: snap.worker_uops,
            live_blocks: snap.live_blocks,
            memo: snap.memo,
            front: snap.front,
            access_log: self.state.access_log.lines(),
        }
    }
}

/// Accepts connections until the shutdown flag is set, spawning one thread
/// per connection (bounded by `max_connections`).
fn acceptor_loop(
    listener: TcpListener,
    state: Arc<FrontState>,
    conn_handles: Arc<Mutex<VecDeque<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        // Responses larger than the write buffer leave in several writes;
        // with Nagle on, each later write waits for the peer's (delayed)
        // ACK of the earlier one, ~40 ms on loopback.
        let _ = stream.set_nodelay(true);
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if state.conn_count.load(Ordering::SeqCst) >= state.max_connections {
            state
                .front
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            let mut w = BufWriter::new(&stream);
            let _ = HttpResponse::new(503)
                .with_header("retry-after", "1")
                .write_to(&mut w, false);
            continue;
        }
        state.front.connections.fetch_add(1, Ordering::Relaxed);
        state.conn_count.fetch_add(1, Ordering::SeqCst);
        let conn_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("http-conn".into())
            .spawn(move || {
                connection_loop(stream, &conn_state);
                conn_state.conn_count.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn connection thread");
        conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(handle);
    }
}

/// Serves one connection: parse → middleware chain → route, with keep-alive.
fn connection_loop(stream: TcpStream, state: &FrontState) {
    // Idle keep-alive connections must not pin shutdown forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    for _ in 0..state.max_keep_alive_requests {
        let req = match parse_request(&mut reader, &state.limits) {
            Ok(req) => req,
            Err(e) => {
                if let Some(status) = e.status() {
                    state.front.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let mut resp = HttpResponse::new(status);
                    ErrorPages.after(
                        &MiddlewareRequest {
                            method: "-",
                            target: "-",
                        },
                        &mut resp,
                    );
                    let _ = resp.write_to(&mut writer, false);
                }
                return;
            }
        };
        state.front.http_requests.fetch_add(1, Ordering::Relaxed);
        let mreq = MiddlewareRequest {
            method: &req.method,
            target: &req.target,
        };
        let resp = state.chain.handle(&mreq, || route(state, &req));
        let keep_alive = req.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        if resp.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Routes one parsed request to an endpoint.
fn route(state: &FrontState, req: &HttpRequest) -> HttpResponse {
    if req.method != "GET" {
        state
            .front
            .method_not_allowed
            .fetch_add(1, Ordering::Relaxed);
        return HttpResponse::new(405).with_header("allow", "GET");
    }
    match req.path.as_str() {
        "/health" => {
            state.front.health_requests.fetch_add(1, Ordering::Relaxed);
            HttpResponse::text(200, "ok\n")
        }
        "/metrics" => {
            state.front.metrics_requests.fetch_add(1, Ordering::Relaxed);
            let body = render_prometheus(&state.metrics_snapshot());
            HttpResponse::new(200)
                .with_header("content-type", "text/plain; version=0.0.4; charset=utf-8")
                .with_body(body.into_bytes())
        }
        path => match path.strip_prefix("/run/") {
            Some(name) => dispatch_run(state, name),
            None => {
                state.front.not_found.fetch_add(1, Ordering::Relaxed);
                HttpResponse::new(404)
            }
        },
    }
}

/// Admits (or sheds) one `/run/<name>` request and waits for its worker.
fn dispatch_run(state: &FrontState, name: &str) -> HttpResponse {
    let Some(script) = state
        .corpus
        .scripts()
        .iter()
        .find(|s| s.entry().name == name)
        .cloned()
    else {
        state.front.not_found.fetch_add(1, Ordering::Relaxed);
        return HttpResponse::new(404);
    };

    // The arrival consumes a global request index whether or not it is
    // admitted — exactly the overload layer's numbering, so fault plans
    // keyed on request indices stay meaningful (a due fault lands on the
    // next admitted request).
    let req = state.next_request.fetch_add(1, Ordering::SeqCst);
    let depth = state.queue_depth.load(Ordering::SeqCst);
    if let Some(ctl) = &state.admission {
        let mut ctl = ctl.lock().unwrap_or_else(|e| e.into_inner());
        let predicted = (depth as u64).saturating_mul(ctl.service_envelope_uops());
        if let AdmissionDecision::Shed(cause) = ctl.decide(predicted, depth) {
            drop(ctl);
            return shed(state, cause, depth);
        }
    }

    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    state.queue_depth.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        req,
        script,
        depth_at_arrival: depth as u64,
        reply: reply_tx,
    };
    match state.jobs.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
            state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            return shed(state, ShedCause::QueueFull, depth);
        }
    }
    match reply_rx.recv() {
        Ok(reply) => {
            if reply.status == 200 {
                HttpResponse::html(200, reply.body)
            } else {
                HttpResponse::new(reply.status)
            }
        }
        // The worker died mid-request; its panic was already classified.
        Err(_) => HttpResponse::new(500),
    }
}

/// Records one front-door shed and builds its 503.
fn shed(state: &FrontState, cause: ShedCause, depth: usize) -> HttpResponse {
    let counter = match cause {
        ShedCause::OverBudget => &state.front.shed_over_budget,
        ShedCause::QueueFull => &state.front.shed_queue_full,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    state
        .shed_depth
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record(depth as u64);
    HttpResponse::new(503).with_header("retry-after", "1")
}

/// One worker thread: a private [`Server`] draining the shared job queue
/// through the full sandbox/fault/breaker/memo pipeline.
fn worker_loop(worker: usize, cfg: &HttpConfig, state: &FrontState, jobs: &Mutex<Receiver<Job>>) {
    let mut machine = PhpMachine::specialized();
    machine.set_engine(cfg.engine);
    if cfg.arena {
        machine.ctx().set_arena_enabled(true);
    }
    let mut server = Server::new(machine, cfg.breaker_cfg, cfg.sandbox);
    if cfg.reference {
        server = server.with_reference(PhpMachine::baseline());
    }
    let memo: Option<Arc<dyn MemoTier>> = cfg
        .memo
        .as_ref()
        .map(|m| Arc::clone(m) as Arc<dyn MemoTier>);

    loop {
        let job = {
            let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv_timeout(Duration::from_millis(25))
        };
        let job = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);

        // Pull the request's due faults from the shared global plan into
        // this worker's private server. Pulling happens at service time —
        // never at admission — so a shed arrival cannot strand a fault.
        let due = state
            .plan
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take_due(job.req);
        server.schedule_faults(due);

        let script = Arc::clone(&job.script);
        let memo = memo.clone();
        let before_uops = server.machine().ctx().profiler().total_uops();
        let record = server.serve_indexed(job.req, &mut |m, _req| {
            script.run_memo(m, true, memo.clone())
        });
        let service_uops = server
            .machine()
            .ctx()
            .profiler()
            .total_uops()
            .saturating_sub(before_uops);
        // Queue wait has no simulated-µop value on the wall-clock HTTP
        // path, so only arrival depth and service latency are recorded
        // (`queue_wait` stays empty; the overload simulator owns it).
        server.record_admitted_timing(job.depth_at_arrival, 0, service_uops);
        if let Some(ctl) = &state.admission {
            ctl.lock()
                .unwrap_or_else(|e| e.into_inner())
                .observe_service(service_uops);
        }
        if cfg.reset_between_requests {
            server.recover_between_requests();
        }

        let _ = job.reply.send(WorkerReply {
            status: record.outcome.status_code(),
            body: record.response,
        });
        publish_snapshot(worker, &server, state);
    }
    publish_snapshot(worker, &server, state);
}

/// Publishes one worker's current counters into its snapshot slot.
fn publish_snapshot(worker: usize, server: &Server, state: &FrontState) {
    let machine = server.machine();
    let savings = machine.ctx().profiler().static_savings();
    let mut stats = server.stats().clone();
    stats.memo_hits = savings.memo_hits;
    stats.memo_misses = savings.memo_misses;
    stats.memo_stores = savings.memo_stores;
    stats.memo_invalidations = savings.memo_invalidations;
    let mut trips = [0u64; 4];
    let mut recoveries = [0u64; 4];
    let mut breaker_states = [0u8; 4];
    for id in AccelId::ALL {
        let b = server.breaker(id);
        trips[id.index()] = b.trips;
        recoveries[id.index()] = b.recoveries;
        breaker_states[id.index()] = match b.state() {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open { .. } => 2,
        };
    }
    let snap = WorkerSnapshot {
        stats,
        savings,
        injected: machine.injected_fault_counts(),
        detected: machine.detected_fault_counts(),
        trips,
        recoveries,
        breaker_states,
        total_uops: machine.ctx().profiler().total_uops(),
        live_blocks: machine.ctx().with_allocator(|a| a.live_block_count()),
    };
    *state.snapshots[worker]
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = snap;
}

/// Convenience for tests and tooling: resolves `addr` and issues one
/// blocking GET, returning `(status, body)`.
pub fn blocking_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write!(writer, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n")?;
    writer.flush()?;
    read_response(&mut reader)
}

/// Reads one HTTP response (status line, headers, `content-length` body).
pub fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |msg: &str| std::io::Error::new(ErrorKind::InvalidData, msg.to_string());
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<HttpRequest, HttpParseError> {
        parse_request(&mut Cursor::new(bytes.to_vec()), &HttpLimits::default())
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse(b"GET /run/tag-cloud?x=1&y=a+b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/run/tag-cloud");
        assert_eq!(
            req.query,
            vec![("x".into(), "1".into()), ("y".into(), "a b".into())]
        );
        assert_eq!(req.version, HttpVersion::H11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive, "1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_body_and_percent_escapes() {
        let req = parse(b"POST /p%20q HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.path, "/p q");
        assert_eq!(req.body, b"abcd");
        // Invalid escapes pass through rather than erroring.
        let req = parse(b"GET /%zz%2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/%zz%2");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive, "1.0 defaults to close");
        let old_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn malformed_inputs_map_to_4xx_5xx() {
        let cases: &[(&[u8], HttpParseError)] = &[
            (b"", HttpParseError::Eof),
            (b"GARBAGE\r\n\r\n", HttpParseError::MalformedRequestLine),
            (b"GET /\r\n\r\n", HttpParseError::MalformedRequestLine),
            (
                b"GET / HTTP/2.0\r\n\r\n",
                HttpParseError::UnsupportedVersion,
            ),
            (
                b"G@T / HTTP/1.1\r\n\r\n",
                HttpParseError::MalformedRequestLine,
            ),
            (
                b"GET noslash HTTP/1.1\r\n\r\n",
                HttpParseError::MalformedRequestLine,
            ),
            (
                b"GET / HTTP/1.1\r\nbroken\r\n\r\n",
                HttpParseError::MalformedHeader,
            ),
            (
                b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
                HttpParseError::MalformedHeader,
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
                HttpParseError::InvalidContentLength,
            ),
            (
                b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                HttpParseError::UnsupportedTransferEncoding,
            ),
            (b"GET / HTTP/1.1\r\nHost: x", HttpParseError::UnexpectedEof),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                HttpParseError::UnexpectedEof,
            ),
        ];
        for (bytes, want) in cases {
            let got = parse(bytes).unwrap_err();
            assert_eq!(&got, want, "input {:?}", String::from_utf8_lossy(bytes));
            if !matches!(want, HttpParseError::Eof) {
                assert!(got.status().is_some(), "{want:?} must be answerable");
            }
        }
    }

    #[test]
    fn limits_are_enforced() {
        let limits = HttpLimits {
            max_request_line: 32,
            max_header_line: 32,
            max_headers: 2,
            max_body: 8,
        };
        let parse = |bytes: &[u8]| parse_request(&mut Cursor::new(bytes.to_vec()), &limits);
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert_eq!(
            parse(long_line.as_bytes()).unwrap_err(),
            HttpParseError::RequestLineTooLong
        );
        let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(64));
        assert_eq!(
            parse(long_header.as_bytes()).unwrap_err(),
            HttpParseError::HeaderTooLong
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n").unwrap_err(),
            HttpParseError::TooManyHeaders
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789").unwrap_err(),
            HttpParseError::BodyTooLarge
        );
    }

    #[test]
    fn response_serialization_has_length_and_connection() {
        let resp = HttpResponse::text(200, "hello");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 5\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));

        let mut closed = Vec::new();
        resp.write_to(&mut closed, false).unwrap();
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("connection: close"));
    }

    #[test]
    fn read_response_round_trips_write_to() {
        let resp = HttpResponse::html(404, b"<h1>gone</h1>".to_vec());
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let (status, body) = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, b"<h1>gone</h1>");
    }
}
