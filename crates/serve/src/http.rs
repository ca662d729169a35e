//! HTTP/1.1 front end for the gateway (§7: "Optimus API and
//! communication between clients and the gateway are implemented in REST
//! API format … a Flask HTTP server that accepts client requests").
//!
//! Dependency-free: a hand-rolled HTTP server over
//! `std::net::TcpListener`. A few accept shards hand persistent
//! keep-alive connections to a poller thread; connections with readable
//! bytes (or a finished inference) are dispatched to a fixed pool of HTTP
//! workers that parse pipelined requests incrementally from a reusable
//! per-connection buffer ([`crate::parser`]). Workers *never block on
//! inference*: `POST /infer` goes through [`Gateway::submit`] and the
//! connection is parked on the pending reply, so `GET /healthz` and
//! `GET /metrics` stay responsive even when every worker queue is
//! saturated (admission control answers `429` immediately, and an ops
//! lane serves health endpoints past the connection budget — through
//! the same parser and the same [`HttpConfig`] limits).
//!
//! Endpoints:
//!
//! - `GET /models` — JSON array of registered model names.
//! - `POST /infer` — body `{"model": "<name>", "shape": [..], "data": [..]}`
//!   (`data` optional; zeros are used when omitted). Responds
//!   `{"model", "start", "wait_seconds", "startup_seconds",
//!   "compute_seconds", "node", "transform_steps", "batch_size",
//!   "output_shape", "output": [..first 16 values..]}`. Malformed
//!   payloads get a `400` with a JSON error body — never a dropped
//!   connection; a full admission queue gets a `429`.
//! - `GET /metrics` — Prometheus text exposition of the gateway's
//!   registry (request counters by start kind, phase histograms,
//!   plan-cache counters, queue-depth/batch-size gauges).
//! - `GET /stats` — the same registry as one JSON object (histograms as
//!   `{count, sum, mean, p50, p95, p99}`).
//! - `GET /store` — weight-store residency: `{"enabled", "total",
//!   "nodes": [{"node", "stats"}..]}` with per-tier resident bytes, chunk
//!   hit/miss counts and the dedup ratio (`{"enabled": false}` when the
//!   gateway runs without a store).
//! - `GET /healthz` — liveness probe for load balancers:
//!   `{"status":"ok","fleet_nodes":N,"nodes":[true,..]}` with the live
//!   fleet size and per-node health (crashed nodes read `false` until
//!   they recover; drained nodes stay `false`).
//!
//! Sockets carry read/write timeouts ([`HttpConfig`]) so a stalled or
//! silent client cannot pin resources forever: a connection that goes
//! quiet mid-request gets a `408 Request Timeout`; an idle keep-alive
//! connection past [`HttpConfig::keep_alive_idle`] is closed silently.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use optimus_model::tensor::Tensor;

use crate::api::{InferenceResponse, ServeError};
use crate::gateway::{Gateway, InferenceResult, PendingInference};
use crate::parser::{parse_request, ParseOutcome, ParserLimits};

/// Configuration of the HTTP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// Read timeout per connection: the stall deadline. A connection
    /// mid-request with no new bytes for this long gets a `408`. `None`
    /// waits forever.
    pub read_timeout: Option<Duration>,
    /// Write timeout per connection (response flush).
    pub write_timeout: Option<Duration>,
    /// Accept-loop shards feeding the worker pool.
    pub accept_shards: usize,
    /// Fixed HTTP worker pool size (parsing + response writing; never
    /// blocks on inference).
    pub http_workers: usize,
    /// Connection budget of the worker pool; connections beyond it
    /// are handed to the ops lane (health endpoints still answer,
    /// `/infer` gets an immediate `503`).
    pub max_connections: usize,
    /// Largest allowed request head; beyond it the request is `431`.
    pub max_header_bytes: usize,
    /// Largest allowed `Content-Length`; beyond it the request is `413`
    /// (decided from the header alone).
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection (between requests) is
    /// retained before being closed silently.
    pub keep_alive_idle: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            accept_shards: 2,
            http_workers: 8,
            max_connections: 1024,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
            keep_alive_idle: Duration::from_secs(30),
        }
    }
}

/// A running HTTP front end.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Serve `gateway` on `127.0.0.1:port` (`port` 0 picks a free port)
    /// with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns the bind error message when the port is unavailable.
    pub fn serve(gateway: Arc<Gateway>, port: u16) -> Result<HttpServer, String> {
        HttpServer::serve_with(gateway, port, HttpConfig::default())
    }

    /// [`HttpServer::serve`] with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns the bind error message when the port is unavailable.
    pub fn serve_with(
        gateway: Arc<Gateway>,
        port: u16,
        config: HttpConfig,
    ) -> Result<HttpServer, String> {
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let handles =
            spawn_pooled(listener, gateway, config, stop.clone()).map_err(|e| e.to_string())?;
        Ok(HttpServer {
            addr,
            stop,
            handles,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the serving threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One response: status line suffix, content type, body.
struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: &'static str, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: &'static str, message: &str) -> Response {
        Response::json(status, serde_json::json!({ "error": message }).to_string())
    }

    fn code(&self) -> &str {
        self.status.split_whitespace().next().unwrap_or("")
    }
}

/// Whether an I/O error is a would-block / socket-timeout condition
/// (`SO_RCVTIMEO` surfaces as `WouldBlock` on Unix, `TimedOut` on
/// Windows; nonblocking sockets report `WouldBlock`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// Front end: accept shards → poller → ready queue → worker pool.
// ---------------------------------------------------------------------

/// Pipelined requests a worker serves from one connection before
/// yielding it back to the queue so other connections interleave.
const REQUEST_BUDGET: usize = 32;

/// One persistent client connection. Travels between the poller (while
/// waiting for bytes or an inference reply) and HTTP workers (while
/// parsing and responding); the buffer is reused across requests.
struct Conn {
    stream: TcpStream,
    /// Unparsed received bytes (grows across fragmented reads, drained
    /// per parsed request).
    buf: Vec<u8>,
    /// Last instant bytes arrived (stall/idle accounting).
    last_activity: Instant,
    /// In-flight inference this connection is parked on.
    pending: Option<PendingInference>,
    /// Finished inference outcome awaiting response serialization.
    ready_result: Option<InferenceResult>,
    /// Keep-alive flag of the request that produced `pending`.
    keep_alive_after_reply: bool,
    /// Poller verdict: the client stalled mid-request (`408` + close).
    stalled: bool,
    /// Requests completed on this connection (distinguishes a silent
    /// new client, which deserves a `408`, from an idle keep-alive
    /// connection, which is closed silently).
    served: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            last_activity: Instant::now(),
            pending: None,
            ready_result: None,
            keep_alive_after_reply: true,
            stalled: false,
            served: 0,
        }
    }
}

/// MPMC hand-off from the poller to the HTTP workers. The crossbeam
/// shim's `Receiver` is single-consumer, so the multi-consumer ready
/// queue is a mutex-protected deque with a condvar.
struct ReadyQueue {
    inner: std::sync::Mutex<VecDeque<Conn>>,
    cv: std::sync::Condvar,
}

impl ReadyQueue {
    fn new() -> ReadyQueue {
        ReadyQueue {
            inner: std::sync::Mutex::new(VecDeque::new()),
            cv: std::sync::Condvar::new(),
        }
    }

    fn push(&self, conn: Conn) {
        self.inner
            .lock()
            .expect("ready queue poisoned")
            .push_back(conn);
        self.cv.notify_one();
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<Conn> {
        let guard = self.inner.lock().expect("ready queue poisoned");
        let (mut guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |q| q.is_empty())
            .expect("ready queue poisoned");
        guard.pop_front()
    }
}

/// State shared by every front-end thread.
#[derive(Clone)]
struct Shared {
    gateway: Arc<Gateway>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
    /// Connections handed (back) to the poller.
    park_tx: Sender<Conn>,
    ready: Arc<ReadyQueue>,
    /// Live pooled connections (admission against `max_connections`).
    conns: Arc<AtomicUsize>,
}

impl Shared {
    /// The configured byte budgets, as the parser takes them.
    fn limits(&self) -> ParserLimits {
        ParserLimits {
            max_header_bytes: self.config.max_header_bytes,
            max_body_bytes: self.config.max_body_bytes,
        }
    }
}

fn close_conn(conn: Conn, conns: &AtomicUsize) {
    drop(conn);
    conns.fetch_sub(1, Ordering::Relaxed);
}

fn spawn_pooled(
    listener: TcpListener,
    gateway: Arc<Gateway>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    let (park_tx, park_rx) = unbounded::<Conn>();
    let (ops_tx, ops_rx) = unbounded::<TcpStream>();
    let shared = Shared {
        gateway,
        config,
        stop,
        park_tx,
        ready: Arc::new(ReadyQueue::new()),
        conns: Arc::new(AtomicUsize::new(0)),
    };
    let mut handles = Vec::new();
    for _ in 0..config.accept_shards.max(1) {
        let shard = listener.try_clone()?;
        let s = shared.clone();
        let ops = ops_tx.clone();
        handles.push(std::thread::spawn(move || {
            run_accept_shard(shard, &s, &ops)
        }));
    }
    drop(ops_tx);
    {
        let s = shared.clone();
        handles.push(std::thread::spawn(move || run_poller(&s, &park_rx)));
    }
    for _ in 0..config.http_workers.max(1) {
        let s = shared.clone();
        handles.push(std::thread::spawn(move || run_http_worker(&s)));
    }
    {
        let s = shared.clone();
        handles.push(std::thread::spawn(move || run_ops_lane(&s, &ops_rx)));
    }
    Ok(handles)
}

fn run_accept_shard(listener: TcpListener, shared: &Shared, ops_tx: &Sender<TcpStream>) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(shared.config.read_timeout);
                let _ = stream.set_write_timeout(shared.config.write_timeout);
                if shared.conns.load(Ordering::Relaxed) >= shared.config.max_connections {
                    // Past the connection budget, operators must still be
                    // able to observe the gateway: the ops lane answers
                    // health endpoints and 503s inference.
                    let _ = ops_tx.send(stream);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nonblocking(true);
                if let Err(e) = shared.park_tx.send(Conn::new(stream)) {
                    close_conn(e.0, &shared.conns);
                }
            }
            Err(ref e) if is_timeout(e) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

enum PollAction {
    Keep,
    Dispatch,
    Close,
}

fn poll_conn(conn: &mut Conn, shared: &Shared, now: Instant) -> PollAction {
    if let Some(p) = conn.pending.as_mut() {
        // Parked on an inference; the worker queue replies through the
        // gateway. Readable pipelined bytes stay in the socket buffer
        // until the reply is written (responses keep request order).
        if let Some(result) = shared.gateway.poll(p) {
            conn.pending = None;
            conn.ready_result = Some(result);
            return PollAction::Dispatch;
        }
        return PollAction::Keep;
    }
    let mut probe = [0u8; 1];
    match conn.stream.peek(&mut probe) {
        Ok(0) => PollAction::Close,
        Ok(_) => PollAction::Dispatch,
        Err(ref e) if is_timeout(e) => {
            let quiet = now.saturating_duration_since(conn.last_activity);
            if !conn.buf.is_empty() || conn.served == 0 {
                // Mid-request (or never sent anything): the read timeout
                // is the stall deadline, answered with a 408.
                match shared.config.read_timeout {
                    Some(limit) if quiet > limit => {
                        conn.stalled = true;
                        PollAction::Dispatch
                    }
                    _ => PollAction::Keep,
                }
            } else if quiet > shared.config.keep_alive_idle {
                PollAction::Close
            } else {
                PollAction::Keep
            }
        }
        Err(_) => PollAction::Close,
    }
}

fn run_poller(shared: &Shared, park_rx: &Receiver<Conn>) {
    let mut parked: Vec<Conn> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        while let Some(conn) = park_rx.try_recv() {
            parked.push(conn);
        }
        let now = Instant::now();
        let mut i = 0;
        while i < parked.len() {
            match poll_conn(&mut parked[i], shared, now) {
                PollAction::Keep => i += 1,
                PollAction::Dispatch => shared.ready.push(parked.swap_remove(i)),
                PollAction::Close => close_conn(parked.swap_remove(i), &shared.conns),
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    for conn in parked.drain(..) {
        close_conn(conn, &shared.conns);
    }
}

fn run_http_worker(shared: &Shared) {
    while !shared.stop.load(Ordering::Relaxed) {
        let Some(mut conn) = shared.ready.pop_timeout(Duration::from_millis(25)) else {
            continue;
        };
        match serve_conn(&mut conn, shared) {
            Disposition::Park => {
                if let Err(e) = shared.park_tx.send(conn) {
                    close_conn(e.0, &shared.conns);
                }
            }
            Disposition::Requeue => shared.ready.push(conn),
            Disposition::Close => close_conn(conn, &shared.conns),
        }
    }
}

enum Disposition {
    /// Hand back to the poller (waiting for bytes or an inference).
    Park,
    /// More parsed-but-unserved bytes remain; requeue for fairness.
    Requeue,
    /// Connection is finished (error, EOF, or `Connection: close`).
    Close,
}

enum ReadState {
    Progress,
    WouldBlock,
    Closed,
}

fn read_some(conn: &mut Conn) -> ReadState {
    let mut tmp = [0u8; 4096];
    match conn.stream.read(&mut tmp) {
        Ok(0) => ReadState::Closed,
        Ok(n) => {
            conn.buf.extend_from_slice(&tmp[..n]);
            conn.last_activity = Instant::now();
            ReadState::Progress
        }
        Err(ref e) if is_timeout(e) => ReadState::WouldBlock,
        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => ReadState::Progress,
        Err(_) => ReadState::Closed,
    }
}

/// Serialize `resp` with the right `Connection` header and write it.
/// The socket is flipped to blocking for the write so the configured
/// write timeout applies, then back to nonblocking for parking.
fn write_response(
    conn: &mut Conn,
    resp: &Response,
    keep_alive: bool,
    shared: &Shared,
) -> std::io::Result<()> {
    shared
        .gateway
        .metrics()
        .counter("optimus_http_requests_total", &[("code", resp.code())])
        .inc();
    let payload = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        resp.status,
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        resp.body
    );
    conn.stream.set_nonblocking(false)?;
    let result = conn.stream.write_all(payload.as_bytes());
    let _ = conn.stream.set_nonblocking(true);
    result
}

/// Drive one checked-out connection: flush a finished inference reply,
/// then parse and serve pipelined requests until the socket runs dry,
/// an inference parks it, or the request budget yields it.
fn serve_conn(conn: &mut Conn, shared: &Shared) -> Disposition {
    if conn.stalled {
        let resp = Response::error("408 Request Timeout", "timed out mid-request");
        let _ = write_response(conn, &resp, false, shared);
        return Disposition::Close;
    }
    if let Some(result) = conn.ready_result.take() {
        let keep = conn.keep_alive_after_reply;
        let resp = render_infer_result(result);
        conn.served += 1;
        if write_response(conn, &resp, keep, shared).is_err() || !keep {
            return Disposition::Close;
        }
    }
    let limits = shared.limits();
    let mut budget = REQUEST_BUDGET;
    loop {
        match parse_request(&conn.buf, &limits) {
            ParseOutcome::Incomplete => match read_some(conn) {
                ReadState::Progress => continue,
                ReadState::WouldBlock => return Disposition::Park,
                ReadState::Closed => {
                    // EOF mid-request (e.g. body shorter than the declared
                    // content-length) still gets a JSON 400, not a silent
                    // drop; EOF between requests is a normal close.
                    if !conn.buf.is_empty() {
                        let resp = Response::error(
                            "400 Bad Request",
                            "connection closed before the request completed",
                        );
                        let _ = write_response(conn, &resp, false, shared);
                    }
                    return Disposition::Close;
                }
            },
            ParseOutcome::Error { status, message } => {
                // Framing is broken; answer and drop the connection.
                let _ = write_response(conn, &Response::error(status, message), false, shared);
                return Disposition::Close;
            }
            ParseOutcome::Request { request, consumed } => {
                conn.buf.drain(..consumed);
                if request.method == "POST" && request.path == "/infer" {
                    match submit_infer(&shared.gateway, &request.body) {
                        Ok(pending) => {
                            conn.pending = Some(pending);
                            conn.keep_alive_after_reply = request.keep_alive;
                            return Disposition::Park;
                        }
                        Err(resp) => {
                            conn.served += 1;
                            if write_response(conn, &resp, request.keep_alive, shared).is_err()
                                || !request.keep_alive
                            {
                                return Disposition::Close;
                            }
                        }
                    }
                } else {
                    let resp = route_get(&shared.gateway, &request.method, &request.path);
                    conn.served += 1;
                    if write_response(conn, &resp, request.keep_alive, shared).is_err()
                        || !request.keep_alive
                    {
                        return Disposition::Close;
                    }
                }
                budget -= 1;
                if budget == 0 {
                    return if conn.buf.is_empty() {
                        Disposition::Park
                    } else {
                        Disposition::Requeue
                    };
                }
            }
        }
    }
}

/// Overflow lane: connections past the pooled budget still get health
/// endpoints (one blocking `Connection: close` exchange each), so an
/// overloaded gateway remains observable; `/infer` is refused with 503.
fn run_ops_lane(shared: &Shared, ops_rx: &Receiver<TcpStream>) {
    loop {
        match ops_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(stream) => serve_ops_connection(stream, shared),
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// One exchange on a socket that stayed blocking: the read timeout set
/// at accept surfaces from `read_some` as `WouldBlock`.
fn serve_ops_connection(stream: TcpStream, shared: &Shared) {
    let mut conn = Conn::new(stream);
    let limits = shared.limits();
    let response = loop {
        match parse_request(&conn.buf, &limits) {
            ParseOutcome::Request { request, .. } => {
                break if request.method == "POST" && request.path == "/infer" {
                    Response::error(
                        "503 Service Unavailable",
                        "connection budget exhausted; inference admission is closed",
                    )
                } else {
                    route_get(&shared.gateway, &request.method, &request.path)
                };
            }
            ParseOutcome::Error { status, message } => break Response::error(status, message),
            ParseOutcome::Incomplete => match read_some(&mut conn) {
                ReadState::Progress => {}
                ReadState::WouldBlock => {
                    break Response::error("408 Request Timeout", "timed out mid-request")
                }
                ReadState::Closed => {
                    break Response::error(
                        "400 Bad Request",
                        "connection closed before the request completed",
                    )
                }
            },
        }
    };
    let _ = write_response(&mut conn, &response, false, shared);
}

// ---------------------------------------------------------------------
// Request routing.
// ---------------------------------------------------------------------

fn serve_error_status(e: &ServeError) -> &'static str {
    match e {
        ServeError::Unavailable(_) | ServeError::Shutdown => "503 Service Unavailable",
        ServeError::Overloaded(_) => "429 Too Many Requests",
        _ => "422 Unprocessable Entity",
    }
}

/// Serve the read-only endpoints (and 404 anything else).
fn route_get(gateway: &Gateway, method: &str, path: &str) -> Response {
    match (method, path) {
        ("GET", "/models") => {
            let names = gateway.models();
            Response::json(
                "200 OK",
                serde_json::to_string(&names).expect("string array serializes"),
            )
        }
        ("GET", "/metrics") => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4",
            body: gateway.metrics().render_prometheus(),
        },
        ("GET", "/stats") => {
            Response::json("200 OK", gateway.metrics().snapshot_json().to_string())
        }
        ("GET", "/store") => Response::json("200 OK", store_response(gateway)),
        ("GET", "/healthz") => {
            let nodes = gateway.healthy_nodes();
            let fleet = gateway.fleet_size();
            Response::json(
                "200 OK",
                serde_json::json!({ "status": "ok", "fleet_nodes": fleet, "nodes": nodes })
                    .to_string(),
            )
        }
        _ => Response::error(
            "404 Not Found",
            "unknown endpoint (GET /models, /metrics, /stats, /store, /healthz; POST /infer)",
        ),
    }
}

/// Body of `GET /store`: fleet total plus per-node weight-store stats.
fn store_response(gateway: &Gateway) -> String {
    let Some(total) = gateway.store_stats() else {
        return "{\"enabled\":false}".to_string();
    };
    let nodes: Vec<String> = gateway
        .store_stats_by_node()
        .iter()
        .map(|(node, stats)| {
            format!(
                "{{\"node\":{node},\"stats\":{}}}",
                serde_json::to_string(stats).expect("store stats serialize")
            )
        })
        .collect();
    format!(
        "{{\"enabled\":true,\"total\":{},\"nodes\":[{}]}}",
        serde_json::to_string(&total).expect("store stats serialize"),
        nodes.join(",")
    )
}

/// Decode an `/infer` body into its model name and input tensor.
fn parse_infer_body(body: &[u8]) -> Result<(String, Tensor), (&'static str, String)> {
    let parsed: serde_json::Value = serde_json::from_slice(body)
        .map_err(|e| ("400 Bad Request", format!("malformed JSON: {e}")))?;
    let model = parsed["model"]
        .as_str()
        .ok_or(("400 Bad Request", "missing 'model'".to_string()))?;
    let shape: Vec<usize> = parsed["shape"]
        .as_array()
        .ok_or(("400 Bad Request", "missing 'shape'".to_string()))?
        .iter()
        .map(|v| v.as_u64().unwrap_or(0) as usize)
        .collect();
    let numel: usize = shape.iter().product();
    if numel == 0 || numel > 4_000_000 {
        return Err(("400 Bad Request", format!("bad tensor shape {shape:?}")));
    }
    let data: Vec<f32> = match parsed.get("data").and_then(|d| d.as_array()) {
        Some(values) => {
            if values.len() != numel {
                return Err((
                    "400 Bad Request",
                    format!("data length {} != shape numel {numel}", values.len()),
                ));
            }
            values
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0) as f32)
                .collect()
        }
        None => vec![0.0; numel],
    };
    Ok((model.to_string(), Tensor::new(shape, data)))
}

/// Parse and enqueue an `/infer` request without waiting for the reply.
fn submit_infer(gateway: &Gateway, body: &[u8]) -> Result<PendingInference, Response> {
    let (model, input) = match parse_infer_body(body) {
        Ok(parsed) => parsed,
        Err((status, msg)) => return Err(Response::error(status, &msg)),
    };
    gateway
        .submit(&model, input)
        .map_err(|e| Response::error(serve_error_status(&e), &e.to_string()))
}

fn render_infer_ok(resp: &InferenceResponse) -> String {
    let preview: Vec<f32> = resp.output.data().iter().copied().take(16).collect();
    serde_json::json!({
        "model": resp.model,
        "start": resp.start.as_label(),
        "wait_seconds": resp.wait_seconds,
        "startup_seconds": resp.startup_seconds,
        "compute_seconds": resp.compute_seconds,
        "node": resp.node,
        "transform_steps": resp.transform_steps,
        "batch_size": resp.batch_size,
        "output_shape": resp.output.shape().dims(),
        "output": preview,
    })
    .to_string()
}

fn render_infer_result(result: InferenceResult) -> Response {
    match result {
        Ok(resp) => Response::json("200 OK", render_infer_ok(&resp)),
        Err(e) => Response::error(serve_error_status(&e), &e.to_string()),
    }
}
