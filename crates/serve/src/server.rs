//! The serving core: a nonblocking epoll event loop that owns every
//! connection, feeding a bounded pool of worker threads that run the
//! CPU-bound request pipeline.
//!
//! One loop thread multiplexes the listener and every connection
//! through [`crate::poll::Poller`] (level-triggered, `std`-only raw
//! syscalls). Each connection is a small state machine —
//! reading-headers/body → executing → writing → keep-alive idle — so
//! an *idle* keep-alive connection costs one fd and a few hundred
//! bytes, never a thread: one process holds tens of thousands of them
//! while the worker pool bounds concurrent evaluations.
//!
//! Capacity is still explicit at both ends. Worker count caps
//! concurrent evaluations; the job queue caps parsed-but-unserved
//! requests. When the queue is full the *loop* answers `503 Service
//! Unavailable` with `Retry-After` inline — load the server cannot
//! absorb is shed immediately instead of queueing unboundedly. This
//! mirrors how the Gables model treats a saturated resource: past the
//! roofline's knee, extra offered load changes who waits, never the
//! attainable throughput.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] sets a flag and
//! wakes the loop with a loopback self-connect; the loop closes idle
//! connections, lets in-flight requests finish (bounded grace), then
//! posts one `Stop` poison per worker and joins them.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gables_model::obs;
use gables_model::prof::AllocScope;

use crate::flight::{FlightRecord, FlightRecorder};
use crate::http::{closed_early, parse_request_bytes, HttpError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::poll::{Interest, Poller};

/// Spans retained per request before the collector starts dropping.
const SPAN_CAPACITY: usize = 512;

/// epoll token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// epoll token of the worker-completion waker pipe.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Per-connection input buffer cap: one maximal request (head + body)
/// plus room for a pipelined successor's head. Beyond this the loop
/// stops reading (backpressure via TCP) until the buffer drains.
const IN_BUF_CAP: usize = crate::http::MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES + 4096;

/// Bytes of straggler input swallowed after a response that closes the
/// connection, so the close cannot RST the response off the wire.
const DRAIN_BUDGET: usize = 64 * 1024;

/// How long the post-response drain waits for the client's EOF.
const DRAIN_GRACE: Duration = Duration::from_millis(100);

/// How long shutdown waits for in-flight connections before giving up.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Accept backlog (the kernel clamps it to `net.core.somaxconn`). std's
/// 128 overflows under a connect herd, costing each overflow a ~1 s SYN
/// retransmit.
const LISTEN_BACKLOG: i32 = 4096;

/// Largest write-buffer capacity a connection keeps between responses.
/// Buffers that grew past this (one oversized response) are released
/// after the flush instead of staying resident per connection.
const OUT_BUF_RECYCLE_CAP: usize = 256 * 1024;

/// A request handler: pure function of the parsed request.
pub type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// Routes requests to handlers by exact `(method, path)` match.
#[derive(Default)]
pub struct Router {
    routes: Vec<(String, String, Handler)>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routes: Vec<String> = self
            .routes
            .iter()
            .map(|(m, p, _)| format!("{m} {p}"))
            .collect();
        f.debug_struct("Router").field("routes", &routes).finish()
    }
}

impl Router {
    /// An empty router; unmatched requests get 404/405.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for an exact method + path (builder style).
    #[must_use]
    pub fn route(
        mut self,
        method: &str,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes
            .push((method.to_string(), path.to_string(), Box::new(handler)));
        self
    }

    /// Whether any handler is registered at this path (any method).
    /// Metrics label unknown paths `"(unmatched)"` instead of echoing
    /// them, so a client scanning arbitrary paths cannot grow the
    /// per-route counter map.
    pub fn has_path(&self, path: &str) -> bool {
        self.routes.iter().any(|(_, p, _)| p == path)
    }

    /// Every registered `(method, path)` pair, in registration order —
    /// the source of truth for the `GET /v1` discovery document.
    pub fn route_table(&self) -> Vec<(&str, &str)> {
        self.routes
            .iter()
            .map(|(m, p, _)| (m.as_str(), p.as_str()))
            .collect()
    }

    /// Dispatches one request: 404 for unknown paths, 405 (with the
    /// allowed methods) for known paths with the wrong method.
    pub fn dispatch(&self, req: &Request) -> Response {
        let mut path_seen = false;
        for (method, path, handler) in &self.routes {
            if *path == req.path {
                path_seen = true;
                if *method == req.method {
                    return handler(req);
                }
            }
        }
        if path_seen {
            let allowed: Vec<&str> = self
                .routes
                .iter()
                .filter(|(_, p, _)| *p == req.path)
                .map(|(m, _, _)| m.as_str())
                .collect();
            Response::error(
                405,
                &format!(
                    "method {} not allowed; use {}",
                    req.method,
                    allowed.join(", ")
                ),
            )
            .with_header("Allow", allowed.join(", "))
        } else {
            Response::error(404, &format!("no route for {}", req.path))
        }
    }
}

/// Tuning knobs for [`Server`]. `Default` suits tests and local use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (concurrent evaluations). Clamped to at least 1.
    pub workers: usize,
    /// Parsed requests allowed to wait for a worker before 503s start.
    pub queue_depth: usize,
    /// Inactivity allowance while a partial request is buffered; on
    /// expiry the connection is answered 408 and closed.
    pub read_timeout: Duration,
    /// Inactivity allowance while a response is being written.
    pub write_timeout: Duration,
    /// Value of the `Retry-After` header on backpressure 503s.
    pub retry_after_secs: u64,
    /// Requests retained by the flight recorder ring.
    pub flight_capacity: usize,
    /// How long an idle keep-alive connection (no buffered bytes) may
    /// sit before the loop closes it.
    pub keep_alive_timeout: Duration,
    /// Concurrent connections the loop will hold; beyond this, new
    /// connections are answered 503 and closed. Keep below the
    /// process fd limit.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after_secs: 1,
            flight_capacity: 64,
            keep_alive_timeout: Duration::from_secs(60),
            max_connections: 16_384,
        }
    }
}

/// One parsed request bound for the worker pool.
struct Job {
    slot: usize,
    generation: u64,
    request: Request,
    keep_alive: bool,
    /// The connection's recycled write buffer, carried along so the
    /// worker serializes the response into capacity the connection
    /// already owns instead of a fresh `Vec` per response. It returns
    /// to the connection inside [`Done::bytes`].
    buf: Vec<u8>,
}

enum Work {
    Job(Job),
    Stop,
}

/// A finished request: serialized bytes ready for the loop to write.
struct Done {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// State shared between the event loop and the worker pool.
struct Shared {
    jobs: Mutex<VecDeque<Work>>,
    ready: Condvar,
    done: Mutex<Vec<Done>>,
    wake_pending: AtomicBool,
    waker: Mutex<std::io::PipeWriter>,
}

impl Shared {
    fn new(waker: std::io::PipeWriter) -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            done: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
            waker: Mutex::new(waker),
        }
    }

    /// Pushes unconditionally (used for `Stop` poisons, which must
    /// never be shed).
    fn push(&self, work: Work) {
        self.jobs.lock().expect("queue poisoned").push_back(work);
        self.ready.notify_one();
    }

    /// Pushes only if under `limit`; false means the caller sheds.
    fn try_push(&self, work: Work, limit: usize) -> bool {
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        if jobs.len() >= limit {
            return false;
        }
        jobs.push_back(work);
        drop(jobs);
        self.ready.notify_one();
        true
    }

    fn pop(&self) -> Work {
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        loop {
            if let Some(work) = jobs.pop_front() {
                return work;
            }
            jobs = self.ready.wait(jobs).expect("queue poisoned");
        }
    }

    /// Hands a finished response back to the loop and pokes the waker
    /// pipe (deduplicated: at most one pending byte).
    fn complete(&self, done: Done) {
        self.done.lock().expect("done poisoned").push(done);
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            let mut waker = self.waker.lock().expect("waker poisoned");
            let _ = waker.write(&[1u8]);
        }
    }

    fn take_done(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock().expect("done poisoned"))
    }
}

/// A handle for observing and stopping a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
    metrics: Arc<ServerMetrics>,
    flight: Arc<FlightRecorder>,
}

impl ServerHandle {
    /// The address the server is actually listening on (useful with
    /// port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The live request counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The flight recorder of recent requests.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Requests a graceful stop: sets the flag and wakes the event
    /// loop with a self-connect so it notices without waiting for an
    /// external event. Safe to call more than once.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The loop may be parked in epoll_wait; a connection attempt
        // makes the listener readable and wakes it. Errors are fine —
        // any concurrent real event also wakes it.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    flight: Arc<FlightRecorder>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr())
            .field("config", &self.config)
            .finish()
    }
}

impl Server {
    /// Binds a listener. Use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, …).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // Builds without the syscall keep std's backlog.
        let _ = crate::poll::listen(listener.as_raw_fd(), LISTEN_BACKLOG);
        let flight = Arc::new(FlightRecorder::new(config.flight_capacity));
        Ok(Self {
            listener,
            config,
            metrics: Arc::new(ServerMetrics::new()),
            flight,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket is in a bad state.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The request counters (shared with the eventual workers).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The flight recorder (shared with the eventual workers).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// A handle that can stop the server once [`Server::run`] starts.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failure.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.listener.local_addr()?,
            metrics: Arc::clone(&self.metrics),
            flight: Arc::clone(&self.flight),
        })
    }

    /// Serves until [`ServerHandle::shutdown`] is called: spawns the
    /// worker pool, runs the epoll event loop over the listener and
    /// every connection, sheds queue overflow with 503 +
    /// `Retry-After`, then drains in-flight work and joins the workers
    /// on shutdown. Blocks the calling thread for the server's
    /// lifetime.
    ///
    /// # Errors
    ///
    /// Returns an error only if the listener, the epoll instance, or
    /// the waker pipe fails fatally (including `Unsupported` on
    /// non-Linux builds); per-connection errors are answered on that
    /// connection (or dropped) and serving continues.
    pub fn run(self, router: Router) -> std::io::Result<()> {
        let router = Arc::new(router);
        let workers = self.config.workers.max(1);
        let (waker_rx, waker_tx) = std::io::pipe()?;
        let shared = Arc::new(Shared::new(waker_tx));

        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            let router = Arc::clone(&router);
            let metrics = Arc::clone(&self.metrics);
            let flight = Arc::clone(&self.flight);
            pool.push(std::thread::spawn(move || loop {
                match shared.pop() {
                    Work::Stop => break,
                    Work::Job(job) => {
                        // Backstop: `execute` already confines handler
                        // panics, so this only trips on a bug in the
                        // serving plumbing itself — and even then the
                        // worker survives to drain the queue.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            execute(job, &router, &metrics, &flight, &shared);
                        }));
                        if outcome.is_err() {
                            metrics.record_panic();
                        }
                    }
                }
            }));
        }

        let mut event_loop = EventLoop {
            listener: self.listener,
            poller: Poller::new()?,
            waker_rx,
            config: self.config,
            metrics: self.metrics,
            flight: self.flight,
            shutdown: self.shutdown,
            shared: Arc::clone(&shared),
            conns: Vec::new(),
            free: Vec::new(),
            generation: 0,
        };
        let result = event_loop.run();

        for _ in 0..workers {
            shared.push(Work::Stop);
        }
        for worker in pool {
            let _ = worker.join();
        }
        result
    }
}

/// What the loop is doing with a connection right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (an empty buffer is keep-alive idle).
    Reading,
    /// A parsed request is in the worker pool; the response is pending.
    Executing,
    /// Response bytes are being flushed to the socket.
    Writing,
    /// Half-closed after a final response; swallowing stragglers so the
    /// close cannot RST the response off the wire.
    Draining,
}

/// One connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    in_buf: Vec<u8>,
    out_buf: Vec<u8>,
    out_pos: usize,
    close_after_write: bool,
    peer_eof: bool,
    /// When the bytes of the *current* partial request started arriving
    /// (drives the 408 deadline and the parse-error latency stamp).
    read_started: Option<Instant>,
    /// Last byte movement in either direction (drives idle/write
    /// deadlines).
    last_activity: Instant,
    /// Remaining drain allowance in the `Draining` state.
    drain_budget: usize,
    /// Armed (only) on entry to `Draining`; `None` everywhere else, so a
    /// state transition that forgets the arm can never leave a stale
    /// instant behind that makes the connection reapable on the next
    /// deadline tick.
    drain_deadline: Option<Instant>,
    generation: u64,
    interest: Interest,
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    waker_rx: std::io::PipeReader,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    flight: Arc<FlightRecorder>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generation: u64,
}

impl EventLoop {
    fn run(&mut self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        self.poller
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        self.poller
            .add(self.waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;

        let mut events = Vec::new();
        let mut stopping: Option<Instant> = None;
        loop {
            if self.shutdown.load(Ordering::SeqCst) && stopping.is_none() {
                stopping = Some(Instant::now());
                // Idle keep-alive connections have nothing owed to
                // them; everything else gets a bounded grace.
                for slot in 0..self.conns.len() {
                    let idle = matches!(
                        &self.conns[slot],
                        Some(c) if c.state == ConnState::Reading && c.in_buf.is_empty()
                    );
                    if idle {
                        self.close(slot);
                    }
                }
            }
            if let Some(since) = stopping {
                let live = self.conns.iter().flatten().count();
                if live == 0 || since.elapsed() > SHUTDOWN_GRACE {
                    return Ok(());
                }
            }

            self.poller.wait(&mut events, 100)?;
            let batch: Vec<crate::poll::Event> = events.clone();
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.on_accept(stopping.is_some()),
                    TOKEN_WAKER => {
                        let mut sink = [0u8; 64];
                        let _ = self.waker_rx.read(&mut sink);
                        self.shared.wake_pending.store(false, Ordering::SeqCst);
                    }
                    token => {
                        self.on_conn_event(token as usize, ev.readable, ev.writable, ev.hangup)
                    }
                }
            }
            // Completions are drained every tick (not only on waker
            // events), so a lost wake can delay a response by at most
            // one poll timeout.
            for done in self.shared.take_done() {
                self.on_done(done);
            }
            self.scan_deadlines();
        }
    }

    fn on_accept(&mut self, stopping: bool) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stopping {
                        continue; // drop: shutdown wake-up or late client
                    }
                    let live = self.conns.iter().flatten().count();
                    if live >= self.config.max_connections {
                        let _ = stream.set_nonblocking(true);
                        let resp = Response::error(503, "server busy: connection limit reached")
                            .with_header("Retry-After", self.config.retry_after_secs.to_string());
                        let mut s = stream;
                        let _ = s.write(&resp.serialize(false));
                        self.metrics.record_rejected();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.generation += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), slot as u64, Interest::READ)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(Conn {
                        stream,
                        state: ConnState::Reading,
                        in_buf: Vec::new(),
                        out_buf: Vec::new(),
                        out_pos: 0,
                        close_after_write: false,
                        peer_eof: false,
                        read_started: None,
                        last_activity: Instant::now(),
                        drain_budget: DRAIN_BUDGET,
                        drain_deadline: None,
                        generation: self.generation,
                        interest: Interest::READ,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn on_conn_event(&mut self, slot: usize, readable: bool, writable: bool, hangup: bool) {
        if slot >= self.conns.len() || self.conns[slot].is_none() {
            return; // already closed this tick
        }
        if readable {
            self.on_readable(slot);
        }
        if self.conns.get(slot).is_some_and(Option::is_some) && writable {
            if let Some(conn) = self.conns[slot].as_ref() {
                if conn.state == ConnState::Writing {
                    self.flush_writes(slot);
                }
            }
        }
        // A bare hangup (no readable bit) can only be acted on when no
        // response is owed; otherwise the write path discovers it.
        if let Some(conn) = self.conns[slot].as_ref() {
            if hangup && !readable && conn.state == ConnState::Reading && conn.in_buf.is_empty() {
                self.close(slot);
            }
        }
    }

    fn on_readable(&mut self, slot: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.peer_eof {
                break;
            }
            if conn.state == ConnState::Draining {
                match conn.stream.read(&mut chunk) {
                    Ok(0) | Err(_) => {
                        self.close(slot);
                        return;
                    }
                    Ok(n) => {
                        if n >= conn.drain_budget {
                            self.close(slot);
                            return;
                        }
                        conn.drain_budget -= n;
                        continue;
                    }
                }
            }
            if conn.in_buf.len() >= IN_BUF_CAP {
                // Stop reading until the buffer drains; TCP backpressure
                // does the rest.
                self.update_interest(slot);
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.in_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if conn.read_started.is_none() {
                        conn.read_started = Some(conn.last_activity);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        if let Some(conn) = self.conns[slot].as_ref() {
            if conn.state == ConnState::Reading {
                self.try_dispatch(slot);
            } else if conn.state == ConnState::Executing && conn.peer_eof {
                self.update_interest(slot);
            }
        }
    }

    /// Attempts to parse and hand off the next buffered request.
    fn try_dispatch(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match parse_request_bytes(&conn.in_buf) {
            Ok(None) => {
                if conn.peer_eof {
                    if conn.in_buf.is_empty() {
                        self.close(slot);
                    } else {
                        let err = closed_early(&conn.in_buf);
                        self.finish_unparsed(slot, &err);
                    }
                }
                // else: wait for more bytes (the 408 deadline guards).
            }
            Ok(Some(parsed)) => {
                conn.in_buf.drain(..parsed.consumed);
                if conn.in_buf.is_empty() {
                    conn.read_started = None;
                } else {
                    conn.read_started = Some(Instant::now());
                }
                let keep_alive = parsed.keep_alive && !conn.peer_eof;
                let job = Job {
                    slot,
                    generation: conn.generation,
                    request: parsed.request,
                    keep_alive,
                    // Idle while Executing — lend it to the worker so the
                    // response is serialized into recycled capacity.
                    buf: std::mem::take(&mut conn.out_buf),
                };
                conn.state = ConnState::Executing;
                let limit = self.config.queue_depth.max(1);
                if !self.shared.try_push(Work::Job(job), limit) {
                    self.shed(slot);
                } else {
                    self.update_interest(slot);
                }
            }
            Err(err) => self.finish_unparsed(slot, &err),
        }
    }

    /// Answers a 503 for a parsed request the queue cannot absorb.
    fn shed(&mut self, slot: usize) {
        self.metrics.record_rejected();
        let request_id = fresh_request_id();
        obs::log(
            obs::Level::Warn,
            "serve.access",
            "request shed: queue full",
            &[("request_id", request_id.as_str().into())],
        );
        let resp = Response::error(503, "server busy: request queue is full")
            .with_header("Retry-After", self.config.retry_after_secs.to_string())
            .with_header("X-Request-Id", request_id);
        self.queue_response(slot, &resp);
    }

    /// Answers a request that never parsed (malformed, oversized, timed
    /// out, truncated by EOF) and records it like any other, as route
    /// `"(unparsed)"` with method `-`.
    fn finish_unparsed(&mut self, slot: usize, err: &HttpError) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.in_buf.clear(); // framing is poisoned; nothing more parses
        let started = conn.read_started.take();
        let metrics = Arc::clone(&self.metrics);
        metrics.enter_in_flight();
        let _in_flight = InFlightGuard(&metrics);
        let alloc_scope = AllocScope::begin();
        let request_id = fresh_request_id();
        let response = Response::error(err.status(), &err.to_string())
            .with_header("X-Request-Id", request_id.as_str());
        Finished {
            method: "-",
            route: "(unparsed)".to_string(),
            request_id,
            response: &response,
            latency: started.map(|t| t.elapsed()).unwrap_or_default(),
            spans: (Vec::new(), 0),
            alloc_scope,
        }
        .record(&metrics, &self.flight);
        self.queue_response(slot, &response);
    }

    /// Serializes a loop-side error response (always `Connection: close`)
    /// into the connection's recycled write buffer and starts flushing.
    fn queue_response(&mut self, slot: usize, response: &Response) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut buf = std::mem::take(&mut conn.out_buf);
        response.serialize_into(false, &mut buf);
        self.queue_write(slot, buf, true);
    }

    /// Installs a response body and starts flushing it.
    fn queue_write(&mut self, slot: usize, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.out_buf = bytes;
        conn.out_pos = 0;
        conn.close_after_write = close;
        conn.state = ConnState::Writing;
        conn.last_activity = Instant::now();
        self.flush_writes(slot);
    }

    fn flush_writes(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.out_pos >= conn.out_buf.len() {
                self.on_write_complete(slot);
                return;
            }
            match conn.stream.write(&conn.out_buf[conn.out_pos..]) {
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.update_interest(slot);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    fn on_write_complete(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        // Keep the buffer for this connection's next response; an
        // oversized one-off releases its capacity instead of pinning it
        // for the connection's lifetime.
        if conn.out_buf.capacity() > OUT_BUF_RECYCLE_CAP {
            conn.out_buf = Vec::new();
        } else {
            conn.out_buf.clear();
        }
        conn.out_pos = 0;
        if conn.close_after_write {
            if conn.peer_eof {
                // The client already half-closed; everything it sent is
                // consumed, so a plain close cannot RST the response.
                self.close(slot);
            } else {
                // Half-close and swallow stragglers briefly so unread
                // pipelined bytes cannot RST the response off the wire.
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.state = ConnState::Draining;
                conn.drain_budget = DRAIN_BUDGET;
                conn.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                self.update_interest(slot);
            }
        } else {
            conn.state = ConnState::Reading;
            conn.last_activity = Instant::now();
            self.update_interest(slot);
            // A pipelined successor may already be buffered.
            self.try_dispatch(slot);
        }
    }

    fn on_done(&mut self, done: Done) {
        let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
            return; // connection died while executing
        };
        if conn.generation != done.generation || conn.state != ConnState::Executing {
            return; // stale completion for a reused slot
        }
        let close = done.close || conn.peer_eof;
        self.queue_write(done.slot, done.bytes, close);
    }

    fn scan_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            match conn.state {
                ConnState::Reading => {
                    if conn.in_buf.is_empty() && conn.read_started.is_none() {
                        if now.duration_since(conn.last_activity) > self.config.keep_alive_timeout {
                            self.close(slot);
                        }
                    } else if now.duration_since(conn.last_activity) > self.config.read_timeout {
                        self.finish_unparsed(slot, &HttpError::Timeout);
                    }
                }
                ConnState::Writing => {
                    if now.duration_since(conn.last_activity) > self.config.write_timeout {
                        self.close(slot);
                    }
                }
                ConnState::Draining => {
                    // Armed on entry to Draining. A `None` here means a
                    // transition missed the arm — grant the grace now
                    // rather than reaping on the very next tick.
                    let deadline = *conn.drain_deadline.get_or_insert(now + DRAIN_GRACE);
                    if now >= deadline {
                        self.close(slot);
                    }
                }
                ConnState::Executing => {}
            }
        }
    }

    /// The interest a connection's state implies.
    fn desired_interest(conn: &Conn) -> Interest {
        let read = !conn.peer_eof && conn.in_buf.len() < IN_BUF_CAP;
        match conn.state {
            ConnState::Reading | ConnState::Executing => Interest { read, write: false },
            ConnState::Writing => Interest { read, write: true },
            ConnState::Draining => Interest::READ,
        }
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let want = Self::desired_interest(conn);
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), slot as u64, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(slot);
        }
    }
}

/// Runs the full request pipeline on a worker thread: span tree,
/// dispatch (with a confined panic answered as a structured 500) and
/// [`Finished::record`] — then hands the serialized response back to
/// the event loop.
fn execute(
    job: Job,
    router: &Router,
    metrics: &ServerMetrics,
    flight: &FlightRecorder,
    shared: &Shared,
) {
    metrics.enter_in_flight();
    let _in_flight = InFlightGuard(metrics);
    let alloc_scope = AllocScope::begin();
    let started = Instant::now();
    let collector = obs::SpanCollector::new(SPAN_CAPACITY);
    let req = &job.request;
    let request_id = req
        .header("x-request-id")
        .filter(|v| is_valid_request_id(v))
        .map(str::to_string)
        .unwrap_or_else(fresh_request_id);
    // Label unknown paths "(unmatched)" so metrics and span names stay
    // low-cardinality no matter what paths clients probe (the 404 body
    // still echoes the real path).
    let route = if router.has_path(&req.path) {
        req.path.clone()
    } else {
        "(unmatched)".to_string()
    };
    let response = {
        // The trace ID derives from the request ID, so a client
        // retrying with the same X-Request-Id produces the same trace
        // identity.
        let _root = obs::attach_root(&collector, obs::hash64(&request_id), "server.request");
        let _dispatch = obs::span(&format!("dispatch {route}"));
        // A panic in one handler must cost exactly that request: the
        // worker answers a structured 500 and lives to serve the next
        // job. Handlers borrow only `&Request`, so no shared state can
        // be left torn by the unwind (`AssertUnwindSafe` is about the
        // borrow checker, not an actual safety waiver).
        catch_unwind(AssertUnwindSafe(|| router.dispatch(req))).unwrap_or_else(|_| {
            metrics.record_panic();
            Response::error(500, "internal error: handler panicked")
        })
    };
    let response = response.with_header("X-Request-Id", request_id.as_str());
    Finished {
        method: &req.method,
        route,
        request_id,
        response: &response,
        latency: started.elapsed(),
        spans: collector.take(),
        alloc_scope,
    }
    .record(metrics, flight);
    // Serialize into the connection's recycled buffer (lent via the
    // job); it rides back to the event loop inside `Done::bytes`.
    let mut bytes = job.buf;
    response.serialize_into(job.keep_alive, &mut bytes);
    shared.complete(Done {
        slot: job.slot,
        generation: job.generation,
        bytes,
        close: !job.keep_alive,
    });
}

/// One answered request, as every recorder sees it. Both answer paths
/// end here: a worker's dispatch ([`execute`]) and the loop's answer to
/// a request that never parsed ([`EventLoop::finish_unparsed`]).
struct Finished<'a> {
    method: &'a str,
    route: String,
    request_id: String,
    response: &'a Response,
    latency: Duration,
    /// The collected spans and the count dropped.
    spans: (Vec<obs::SpanRecord>, u64),
    /// Opened when the request started, on the thread recording it.
    alloc_scope: AllocScope,
}

impl Finished<'_> {
    /// Feeds the request to metrics (and through them the SLO
    /// sketches), the access log, the per-phase self-times and the
    /// flight recorder.
    fn record(self, metrics: &ServerMetrics, flight: &FlightRecorder) {
        let status = self.response.status;
        let latency_us = self.latency.as_micros() as u64;
        metrics.record_handled(&self.route, status, self.latency);
        // Handlers report cache attribution out-of-band via an `X-Cache`
        // response header (set in the route layer); surface it per-request.
        let cache_hit = self
            .response
            .headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("x-cache"))
            .map(|(_, v)| v == "hit");
        if obs::enabled(obs::Level::Info) {
            obs::log(
                obs::Level::Info,
                "serve.access",
                "request",
                &[
                    ("method", self.method.into()),
                    ("route", self.route.as_str().into()),
                    ("status", status.into()),
                    ("latency_us", latency_us.into()),
                    ("bytes", self.response.body.len().into()),
                    (
                        "cache",
                        cache_hit
                            .map_or("-", |hit| if hit { "hit" } else { "miss" })
                            .into(),
                    ),
                    ("request_id", self.request_id.as_str().into()),
                ],
            );
        }
        let (spans, spans_dropped) = self.spans;
        let self_times = gables_model::prof::self_times_us(&spans);
        let cpu_busy_us: f64 = self_times.iter().map(|(_, us)| us).sum();
        for (phase, us) in &self_times {
            metrics.record_phase_self(phase, *us);
        }
        let alloc = self.alloc_scope.delta();
        flight.record(FlightRecord {
            seq: 0, // stamped by the recorder
            id: self.request_id,
            method: self.method.to_string(),
            route: self.route,
            status,
            ts_unix_us: crate::slo::unix_now_us(),
            latency_us,
            cache_hit,
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes,
            cpu_busy_us,
            spans,
            spans_dropped,
        });
    }
}

/// Decrements the in-flight gauge on scope exit, so the gauge stays
/// honest even when a handler panic unwinds through the serving path.
struct InFlightGuard<'a>(&'a ServerMetrics);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.exit_in_flight();
    }
}

/// A fresh, process-unique request ID: 16 lowercase hex digits derived
/// from a per-process salt and a counter. Unguessable enough to avoid
/// collisions across restarts, cheap enough for the event loop.
fn fresh_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SALT: OnceLock<u64> = OnceLock::new();
    let salt = *SALT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        nanos ^ u64::from(std::process::id()).rotate_left(32)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", obs::hash64(&format!("{salt:x}-{n}")))
}

/// Whether a client-supplied `X-Request-Id` is safe to echo and log:
/// non-empty, at most 64 bytes, only `[A-Za-z0-9._:-]`.
fn is_valid_request_id(value: &str) -> bool {
    !value.is_empty()
        && value.len() <= 64
        && value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(
        router: Router,
        config: ServerConfig,
    ) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run(router).unwrap());
        (handle, join)
    }

    fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn ping_router() -> Router {
        Router::new().route("GET", "/ping", |_| Response::text(200, "pong"))
    }

    #[test]
    fn serves_requests_and_shuts_down_gracefully() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let reply = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.ends_with("pong"), "{reply}");
        handle.shutdown();
        join.join().unwrap();
        let snapshot = handle.metrics().snapshot();
        assert_eq!(snapshot.handled, 1);
        assert_eq!(snapshot.status_2xx, 1);
        assert_eq!(snapshot.in_flight, 0);
    }

    #[test]
    fn keep_alive_connection_serves_sequential_requests() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for _ in 0..3 {
            stream.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
            let reply = read_framed(&mut stream);
            assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
            assert!(reply.contains("Connection: keep-alive"), "{reply}");
            assert!(reply.ends_with("pong"), "{reply}");
        }
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
        assert_eq!(handle.metrics().snapshot().handled, 3);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let router = Router::new()
            .route("GET", "/a", |_| Response::text(200, "alpha"))
            .route("GET", "/b", |_| Response::text(200, "beta"));
        let (handle, join) = started(router, ServerConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let alpha = out.find("alpha").expect("first response body");
        let beta = out.find("beta").expect("second response body");
        assert!(
            alpha < beta,
            "responses must arrive in request order:\n{out}"
        );
        handle.shutdown();
        join.join().unwrap();
        assert_eq!(handle.metrics().snapshot().handled, 2);
    }

    #[test]
    fn draining_swallows_stragglers_and_still_delivers_the_response() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A close-delimited request with an unread pipelined successor:
        // after the response, the server enters Draining and must swallow
        // the leftover bytes for the drain grace instead of closing with
        // unread input (which could RST the response off the wire). A
        // connection whose drain deadline were left unarmed would be
        // reapable on the next deadline tick, racing the client's read.
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\nGET /ping HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        assert!(out.ends_with("pong"), "{out}");
        // Stragglers sent while Draining are swallowed, not answered.
        let _ = stream.write(b"even later bytes");
        handle.shutdown();
        join.join().unwrap();
        // The pipelined successor behind the close was never dispatched.
        assert_eq!(handle.metrics().snapshot().handled, 1);
    }

    #[test]
    fn idle_connections_do_not_occupy_workers() {
        // One worker; a fistful of silent keep-alive connections must
        // not stop a real request from being served immediately.
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let (handle, join) = started(ping_router(), config);
        let idle: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        let reply = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.ends_with("pong"), "{reply}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "idle connections must not block the worker"
        );
        drop(idle);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let reply = roundtrip(
            handle.addr(),
            "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        let reply = roundtrip(
            handle.addr(),
            "POST /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
        assert!(reply.contains("Allow: GET"), "{reply}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn malformed_request_is_answered_not_dropped() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let reply = roundtrip(handle.addr(), "NOT-HTTP\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        handle.shutdown();
        join.join().unwrap();
        assert_eq!(handle.metrics().snapshot().status_4xx, 1);
    }

    #[test]
    fn full_queue_sheds_load_with_503_and_retry_after() {
        // One worker, one queue slot. Two slow requests occupy the
        // worker and the slot, so a third, real request must be shed
        // immediately — idle connections no longer pin anything, so the
        // stallers are genuinely slow *handlers*.
        let router = Router::new()
            .route("GET", "/ping", |_| Response::text(200, "pong"))
            .route("GET", "/slow", |_| {
                std::thread::sleep(Duration::from_millis(1500));
                Response::text(200, "slow")
            });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let (handle, join) = started(router, config);
        let addr = handle.addr();
        let stallers: Vec<_> = (0..2)
            .map(|_| {
                let t = std::thread::spawn(move || {
                    roundtrip(addr, "GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n")
                });
                // Stagger so the first is already *executing* (popped)
                // before the second fills the queue slot.
                std::thread::sleep(Duration::from_millis(300));
                t
            })
            .collect();
        let start = Instant::now();
        let reply = roundtrip(addr, "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "503 must be immediate, not wait out the busy worker"
        );
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        assert!(reply.contains("Retry-After: 1"), "{reply}");
        assert!(handle.metrics().snapshot().rejected >= 1);
        for t in stallers {
            let reply = t.join().unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn handler_panic_is_a_500_and_the_worker_survives() {
        let router = Router::new()
            .route("GET", "/ping", |_| Response::text(200, "pong"))
            .route("GET", "/boom", |_| panic!("intentional test panic"));
        // One worker: the request after the panic can only be served by
        // the same thread that caught it.
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let (handle, join) = started(router, config);
        let reply = roundtrip(
            handle.addr(),
            "GET /boom HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        assert!(reply.contains("handler panicked"), "{reply}");
        let reply = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.ends_with("pong"), "{reply}");
        handle.shutdown();
        join.join().unwrap();
        let snapshot = handle.metrics().snapshot();
        assert_eq!(snapshot.panics, 1);
        assert_eq!(snapshot.status_5xx, 1);
        assert_eq!(snapshot.in_flight, 0);
        assert_eq!(snapshot.handled, 2);
    }

    #[test]
    fn router_dispatch_is_exact_match() {
        let router = Router::new()
            .route("GET", "/a", |_| Response::text(200, "a"))
            .route("POST", "/a", |_| Response::text(200, "posted"));
        let mk = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(router.dispatch(&mk("GET", "/a")).body, b"a");
        assert_eq!(router.dispatch(&mk("POST", "/a")).body, b"posted");
        assert_eq!(router.dispatch(&mk("DELETE", "/a")).status, 405);
        assert_eq!(router.dispatch(&mk("GET", "/b")).status, 404);
        assert_eq!(router.route_table(), vec![("GET", "/a"), ("POST", "/a")]);
    }

    #[test]
    fn shutdown_without_traffic_does_not_hang() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn every_response_carries_a_request_id_and_custom_ids_echo_back() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let reply = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("X-Request-Id: "), "{reply}");
        let reply = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nX-Request-Id: my.custom-id:7\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("X-Request-Id: my.custom-id:7"), "{reply}");
        // A hostile ID (header-injection attempt) is replaced, not echoed.
        let reply = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nX-Request-Id: evil id\r\nConnection: close\r\n\r\n",
        );
        assert!(!reply.contains("evil id"), "{reply}");
        assert!(reply.contains("X-Request-Id: "), "{reply}");
        // Even a parse failure is answered with an ID.
        let reply = roundtrip(handle.addr(), "NOT-HTTP\r\n\r\n");
        assert!(reply.contains("X-Request-Id: "), "{reply}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn request_id_validation_rules() {
        assert!(is_valid_request_id("abc-123_X.z:9"));
        assert!(!is_valid_request_id(""));
        assert!(!is_valid_request_id("has space"));
        assert!(!is_valid_request_id("crlf\r\ninject"));
        assert!(!is_valid_request_id(&"x".repeat(65)));
        let a = fresh_request_id();
        let b = fresh_request_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(is_valid_request_id(&a));
    }

    #[test]
    fn flight_recorder_captures_requests_with_routes_and_spans() {
        let (handle, join) = started(ping_router(), ServerConfig::default());
        let _ = roundtrip(
            handle.addr(),
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let _ = roundtrip(
            handle.addr(),
            "GET /scan/0 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        handle.shutdown();
        join.join().unwrap();
        let recent = handle.flight().recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(handle.flight().recorded_total(), 2);
        // Newest first: the 404 probe, folded into "(unmatched)".
        assert_eq!(recent[0].route, "(unmatched)");
        assert_eq!(recent[0].status, 404);
        assert_eq!(recent[1].route, "/ping");
        assert_eq!(recent[1].status, 200);
        for r in &recent {
            assert!(!r.id.is_empty());
            let root = r.spans.iter().find(|s| s.name == "server.request");
            let root = root.expect("every request records a root span");
            assert!(r
                .spans
                .iter()
                .any(|s| s.name.starts_with("dispatch ") && s.parent_id == root.span_id));
        }
        // The unmatched probe's span tree also uses the folded label.
        assert!(recent[0]
            .spans
            .iter()
            .any(|s| s.name == "dispatch (unmatched)"));
        // Metrics fold the same way.
        let routes = handle.metrics().snapshot().routes;
        assert!(routes.iter().any(|(r, n)| r == "(unmatched)" && *n == 1));
        assert!(!routes.iter().any(|(r, _)| r.contains("/scan")));
    }

    /// Reads exactly one `Content-Length`-framed response off a
    /// keep-alive connection.
    fn read_framed(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .expect("Content-Length header");
                let body_start = head_end + 4;
                if buf.len() >= body_start + len {
                    return String::from_utf8_lossy(&buf[..body_start + len]).to_string();
                }
            }
            let n = stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "connection closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}
