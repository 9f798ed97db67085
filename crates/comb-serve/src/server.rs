//! The HTTP server: a bounded acceptor/worker model in front of the
//! worker pool and the content-addressed cell cache.
//!
//! ## Threading model
//!
//! One acceptor thread owns the listener. Each accepted connection must
//! claim an [`AdmissionPermit`] before it is queued; when the gate
//! (capacity = `workers + queue`) is full the connection is routed to the
//! **shed lane** — a small bounded queue drained by a dedicated shedder
//! thread that answers health/metrics probes and all-cached sweeps even
//! under full saturation, and sheds everything else with a `429` whose
//! `Retry-After` derives from the current backlog and observed service
//! latency. With the shed lane disabled (`shed_queue = 0`) saturation
//! answers `429` inline, as earlier revisions did. Permits ride through
//! the queue with their connection and are released when the connection
//! closes, so capacity can never leak.
//!
//! `workers` threads pop connections and run a keep-alive loop under two
//! clocks: the idle read window (reaping quiet keep-alive connections)
//! and the per-request deadline (cutting off slowloris-paced requests
//! with `408`), so no client behavior can pin a worker.
//!
//! ## Failure model
//!
//! Every finished cell is stored in the cell cache as it completes, so a
//! killed-and-restarted server keeps no job state of its own: a client
//! that resends its request gets the same bytes, with only the cells
//! that were never stored computed. Worker panics are caught per cell and
//! feed an in-process poison-cell quarantine and a half-open circuit
//! breaker (see [`crate::overload`]); transport faults are injected
//! deterministically under a seeded [`NetFaultPlan`] (see
//! [`crate::netfault`]). DESIGN.md §13 describes the full taxonomy.
//!
//! ## Request canonicalization
//!
//! A sweep request body is JSON in any key order; it is re-derived into a
//! [`MethodConfig`](comb_core::MethodConfig) whose canonical `cell_desc`
//! line is hashed into the cache's [`CellKey`](comb_core::CellKey) —
//! exactly the path `comb sweep` takes. Two textually different requests
//! for the same cell therefore share cache entries, join in-flight
//! computations, and return byte-identical bodies.

use crate::http::{
    read_request_limited, write_response, ChunkedWriter, Conn, ReadLimits, ReadOutcome, Request,
    RequestReader,
};
use crate::jobs::JobRegistry;
use crate::metrics::ServeMetrics;
use crate::netfault::{FaultedStream, NetFaultCounters, NetFaultPlan};
use crate::overload::{BreakerDecision, CircuitBreaker, Quarantine};
use crate::sweepreq::{SweepRequest, SweepRunCtx, SweepRunError};
use comb_core::{
    effective_jobs, AdmissionGate, AdmissionPermit, CampaignDesc, CellCache, CombError,
};
use comb_report::{Fidelity, FigureId};
use comb_sim::SimTime;
use comb_trace::{Comp, TraceEvent, Tracer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration (see module docs for the threading model).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Connections allowed to wait beyond the ones being worked
    /// (admission capacity = `workers + queue`).
    pub queue: usize,
    /// Pool width for each sweep request (`0` = auto, resolved once by
    /// [`Server::bind`]).
    pub jobs: usize,
    /// Fidelity used by `/v1/figures/` requests.
    pub fidelity: Fidelity,
    /// Shared cell cache (single-flight map + disk store). `None` serves
    /// every request uncached.
    pub cache: Option<Arc<CellCache>>,
    /// Idle-connection read timeout (the reaper interval).
    pub read_timeout: Duration,
    /// Per-request deadline: bounds both how long a request may take to
    /// *arrive* (slowloris cutoff, `408`) and the default campaign
    /// execution budget (`503` on expiry). Clients may ask for less via
    /// `deadline_ms`/`X-Comb-Deadline-Ms`, never for more.
    pub request_deadline: Duration,
    /// Saturation shed-lane capacity; `0` disables the lane (saturation
    /// answers `429` inline).
    pub shed_queue: usize,
    /// Seeded transport fault injection plan (default: none).
    pub net_fault: NetFaultPlan,
    /// Worker-panic circuit breaker: consecutive panics to trip.
    pub breaker_threshold: u32,
    /// Worker-panic circuit breaker: cooldown before the half-open probe.
    pub breaker_cooldown: Duration,
    /// Poison-cell quarantine: panics per cell before quarantining it.
    pub quarantine_threshold: u32,
    /// Test hook: deterministically panic any worker computing this
    /// sweep x (drives the quarantine and breaker paths in tests).
    #[doc(hidden)]
    pub poison_x: Option<u64>,
    /// Trace sink for serve events (disabled tracers cost one atomic
    /// load per emit).
    pub tracer: Tracer,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 16,
            jobs: 0,
            fidelity: Fidelity::quick(),
            cache: None,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            shed_queue: 16,
            net_fault: NetFaultPlan::none(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
            quarantine_threshold: 3,
            poison_x: None,
            tracer: Tracer::new(),
        }
    }
}

struct ShedLane {
    capacity: usize,
    queue: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
}

struct Shared {
    addr: SocketAddr,
    workers: usize,
    jobs: usize,
    fidelity: Fidelity,
    cache: Option<Arc<CellCache>>,
    read_timeout: Duration,
    request_deadline: Duration,
    tracer: Tracer,
    start: Instant,
    gate: AdmissionGate,
    queue: Mutex<VecDeque<(TcpStream, AdmissionPermit)>>,
    queue_cv: Condvar,
    shed: Option<ShedLane>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    jobs_reg: JobRegistry,
    next_req: AtomicU64,
    net_fault: NetFaultPlan,
    net_counters: Arc<NetFaultCounters>,
    conn_seq: AtomicU64,
    breaker: CircuitBreaker,
    quarantine: Quarantine,
    poison_x: Option<u64>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }

    fn trace(&self, f: impl FnOnce() -> TraceEvent) {
        self.tracer.emit(self.now(), Comp::Serve, f);
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue_cv.notify_all();
        if let Some(shed) = &self.shed {
            shed.cv.notify_all();
        }
        // Wake the acceptor out of `accept()` with a throwaway dial.
        let _ = TcpStream::connect(self.addr);
    }

    /// Extra `/metrics` gauges owned outside [`ServeMetrics`].
    fn extra_gauges(&self) -> Vec<(&'static str, u64)> {
        let mut extra = vec![
            ("breaker_state", self.breaker.state_gauge()),
            ("quarantined_cells", self.quarantine.len() as u64),
        ];
        extra.extend(self.net_counters.gauges());
        extra
    }

    fn derived_retry_after(&self) -> u64 {
        let depth = self.queue.lock().unwrap_or_else(|p| p.into_inner()).len();
        let in_flight = self.metrics.in_flight.load(Ordering::Relaxed) as usize;
        self.metrics.retry_after_secs(depth, in_flight)
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Cheap handle onto a running (or about-to-run) server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The resolved local address (ephemeral port already filled in).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Ask the server to drain and stop (same effect as
    /// `POST /admin/shutdown`).
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Snapshot of the shared cache stats, when a cache is configured.
    pub fn cache_stats(&self) -> Option<comb_core::CacheStats> {
        self.shared.cache.as_ref().map(|c| c.stats())
    }

    /// Total transport faults injected so far (the chaos soak asserts
    /// this is non-zero, proving the storm actually hit the wire).
    pub fn net_faults(&self) -> u64 {
        self.shared.net_counters.total()
    }
}

impl Server {
    /// Bind the listener (resolving an ephemeral port) without accepting
    /// yet. Fails with an [`ErrorKind::Io`](comb_core::ErrorKind::Io) error
    /// on bind problems — exit code 2 under the CLI's contract. An auto
    /// (`0`) job count is resolved here, once, rather than per request.
    pub fn bind(cfg: ServeConfig) -> Result<Server, CombError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| CombError::io(format!("bind {}", cfg.addr), &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CombError::io("local_addr", &e))?;
        let workers = cfg.workers.max(1);

        let shed = (cfg.shed_queue > 0).then(|| ShedLane {
            capacity: cfg.shed_queue,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });

        let shared = Arc::new(Shared {
            addr,
            workers,
            jobs: effective_jobs(cfg.jobs),
            fidelity: cfg.fidelity.with_jobs(effective_jobs(cfg.fidelity.jobs)),
            cache: cfg.cache,
            read_timeout: cfg.read_timeout,
            request_deadline: cfg.request_deadline,
            tracer: cfg.tracer,
            start: Instant::now(),
            gate: AdmissionGate::new(workers + cfg.queue),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shed,
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
            jobs_reg: JobRegistry::new(),
            next_req: AtomicU64::new(0),
            net_fault: cfg.net_fault,
            net_counters: Arc::new(NetFaultCounters::default()),
            conn_seq: AtomicU64::new(0),
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
            quarantine: Quarantine::new(cfg.quarantine_threshold),
            poison_x: cfg.poison_x,
        });
        Ok(Server { listener, shared })
    }

    /// The resolved local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle usable from other threads while the server runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run until a shutdown is requested (`POST /admin/shutdown` or
    /// [`ServerHandle::shutdown`]), then drain queued connections and
    /// join the workers. Returns `Ok(())` on a clean drain.
    pub fn run(self) -> Result<(), CombError> {
        let mut threads = Vec::with_capacity(self.shared.workers + 1);
        for i in 0..self.shared.workers {
            let shared = Arc::clone(&self.shared);
            let t = std::thread::Builder::new()
                .name(format!("comb-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| CombError::io("spawn worker", &e))?;
            threads.push(t);
        }
        if self.shared.shed.is_some() {
            let shared = Arc::clone(&self.shared);
            let t = std::thread::Builder::new()
                .name("comb-serve-shedder".to_string())
                .spawn(move || shed_loop(&shared))
                .map_err(|e| CombError::io("spawn shedder", &e))?;
            threads.push(t);
        }

        loop {
            let (stream, _peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                }
            };
            if self.shared.shutdown.load(Ordering::Acquire) {
                // The wake-up dial (or a late client) lands here.
                break;
            }
            match self.shared.gate.try_enter() {
                Some(permit) => {
                    let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                    q.push_back((stream, permit));
                    drop(q);
                    self.shared.queue_cv.notify_one();
                }
                None => saturated(&self.shared, stream),
            }
        }

        self.shared.queue_cv.notify_all();
        if let Some(shed) = &self.shared.shed {
            shed.cv.notify_all();
        }
        for t in threads {
            let _ = t.join();
        }
        Ok(())
    }

    /// [`Server::run`] on a background thread; returns the handle plus
    /// the join handle for the run result.
    pub fn spawn(self) -> (ServerHandle, std::thread::JoinHandle<Result<(), CombError>>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

/// Admission gate full: route the connection into the shed lane, or
/// answer `429` inline when the lane is disabled or itself full.
fn saturated(shared: &Shared, stream: TcpStream) {
    if let Some(shed) = &shared.shed {
        let mut q = shed.queue.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() < shed.capacity {
            q.push_back(stream);
            drop(q);
            shed.cv.notify_one();
            return;
        }
    }
    shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
    shared.trace(|| TraceEvent::ServeRejected);
    let retry = shared.derived_retry_after();
    let mut stream = stream;
    let _ = write_response(
        &mut stream,
        429,
        "text/plain",
        &[("Retry-After", retry.to_string())],
        b"admission queue full\n",
        false,
    );
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some((stream, permit)) = conn else {
            return;
        };
        handle_connection(shared, stream);
        drop(permit);
    }
}

/// The shedder: drains the saturation lane, answering what the priority
/// policy allows (health, metrics, all-cached sweeps) and shedding the
/// rest with a derived `Retry-After`. Single-threaded and deliberately
/// bounded: one response per connection, no keep-alive.
fn shed_loop(shared: &Shared) {
    let Some(shed) = &shared.shed else { return };
    loop {
        let stream = {
            let mut q = shed.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shed.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(stream) = stream else { return };
        handle_shed_connection(shared, stream);
    }
}

fn handle_shed_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.request_deadline));
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut stream = FaultedStream::new(
        stream,
        shared.net_fault.for_conn(conn_id),
        Arc::clone(&shared.net_counters),
    );
    // A saturated server budgets little for shed-lane clients: a short
    // idle window and a short hard deadline.
    let budget = shared.read_timeout.min(Duration::from_secs(2));
    let outcome = read_request_limited(
        &mut stream,
        ReadLimits {
            idle: Some(budget),
            total: Some(budget),
        },
    );
    let req = match outcome {
        ReadOutcome::Request(r) => r,
        ReadOutcome::Closed => return,
        ReadOutcome::TimedOut => {
            shared
                .metrics
                .request_timeouts
                .fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                &mut stream,
                408,
                "text/plain",
                &[],
                b"request deadline exceeded\n",
                false,
            );
            return;
        }
        ReadOutcome::Malformed(msg) => {
            let _ = write_response(
                &mut stream,
                400,
                "text/plain",
                &[],
                format!("{msg}\n").as_bytes(),
                false,
            );
            return;
        }
    };

    let path = req.path.split('?').next().unwrap_or(&req.path);
    let serve_anyway = match (req.method.as_str(), path) {
        // Health and metrics probes are always answered: an overloaded
        // server that stops reporting is indistinguishable from a dead
        // one, which defeats the point of probes.
        ("GET", "/healthz" | "/metrics") => true,
        // A sweep whose cells are all cache-resident answers in
        // microseconds; prefer it over shedding.
        ("POST", "/v1/sweep") => sweep_fully_cached(shared, &req),
        _ => false,
    };
    if serve_anyway {
        shared.metrics.shed_served.fetch_add(1, Ordering::Relaxed);
        shared.trace(|| TraceEvent::ServeShed { served: true });
        let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let _ = route(shared, &req, &mut stream, req_id, false);
        shared
            .metrics
            .record_latency_us(t0.elapsed().as_secs_f64() * 1e6);
        return;
    }

    shared.metrics.shed_rejected.fetch_add(1, Ordering::Relaxed);
    shared.trace(|| TraceEvent::ServeShed { served: false });
    let retry = shared.derived_retry_after();
    let _ = write_response(
        &mut stream,
        429,
        "text/plain",
        &[("Retry-After", retry.to_string())],
        b"server saturated\n",
        false,
    );
}

/// Would this sweep request be answered entirely from cache? Parse
/// failures answer false (the shed path rejects; the client can retry
/// and get the real 400 when capacity returns).
fn sweep_fully_cached(shared: &Shared, req: &Request) -> bool {
    let Some(cache) = shared.cache.as_deref() else {
        return false;
    };
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return false;
    };
    let Ok(sweep) = SweepRequest::parse(body) else {
        return false;
    };
    let mut cfg = sweep.cfg.clone();
    cfg.jobs = shared.jobs;
    let desc = CampaignDesc::new(&cfg.resolved_hw(), &cfg);
    sweep
        .xs
        .iter()
        .all(|&x| cache.probe(&desc.ident(sweep.method, x).1))
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Writes get the same hard budget reads do: a client that stops
    // draining its socket cannot pin the worker in write_all.
    let _ = stream.set_write_timeout(Some(shared.request_deadline));
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut stream = FaultedStream::new(
        stream,
        shared.net_fault.for_conn(conn_id),
        Arc::clone(&shared.net_counters),
    );
    let limits = ReadLimits {
        idle: Some(shared.read_timeout),
        total: Some(shared.request_deadline),
    };
    let mut reader = RequestReader::new();
    loop {
        match reader.read(&mut stream, limits) {
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                shared
                    .metrics
                    .request_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut stream,
                    408,
                    "text/plain",
                    &[],
                    b"request deadline exceeded\n",
                    false,
                );
                return;
            }
            ReadOutcome::Malformed(msg) => {
                let _ = write_response(
                    &mut stream,
                    400,
                    "text/plain",
                    &[],
                    format!("{msg}\n").as_bytes(),
                    false,
                );
                return;
            }
            ReadOutcome::Request(req) => {
                let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed) + 1;
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                shared.trace(|| TraceEvent::ServeAdmitted { req: req_id });
                let t0 = Instant::now();
                let keep_wanted = req.keep_alive() && !shared.shutdown.load(Ordering::Acquire);
                let mut answering = Answering {
                    stream: &mut stream,
                    in_flight: Some(&shared.metrics.in_flight),
                };
                let done = route(shared, &req, &mut answering, req_id, keep_wanted);
                answering.answered();
                shared
                    .metrics
                    .record_latency_us(t0.elapsed().as_secs_f64() * 1e6);
                shared.trace(|| TraceEvent::ServeDone {
                    req: req_id,
                    status: done.status,
                });
                if !done.keep_open {
                    return;
                }
            }
        }
    }
}

/// The connection as a request's handler sees it: the response's first
/// write takes the request out of the in-flight count before any byte
/// leaves, so a client that has read its answer never finds itself still
/// counted in `/metrics`. A response is one write (an event stream's
/// first write is its head).
struct Answering<'a, S> {
    stream: &'a mut S,
    /// The counter to decrement, until it has been.
    in_flight: Option<&'a AtomicU64>,
}

impl<S> Answering<'_, S> {
    fn answered(&mut self) {
        if let Some(count) = self.in_flight.take() {
            count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<S: Read> Read for Answering<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

impl<S: Write> Write for Answering<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.answered();
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl<S: Conn> Conn for Answering<'_, S> {
    fn set_read_window(&mut self, window: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_window(window)
    }

    fn is_loopback(&self) -> bool {
        self.stream.is_loopback()
    }
}

/// Write one complete response (tagging it with the correlation id) and
/// report what happened to the connection.
fn reply<S: Conn>(
    stream: &mut S,
    req_id: u64,
    status: u16,
    ctype: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_open: bool,
) -> RouteDone {
    let mut headers = vec![("X-Comb-Request", req_id.to_string())];
    headers.extend(extra.iter().cloned());
    let ok = write_response(stream, status, ctype, &headers, body, keep_open).is_ok();
    RouteDone {
        status,
        keep_open: keep_open && ok,
    }
}

struct RouteDone {
    status: u16,
    keep_open: bool,
}

/// Dispatch one request, writing the response. `keep` is whether the
/// connection may stay open afterwards (the handler can still force a
/// close, e.g. after streaming or shutdown).
fn route<S: Conn>(
    shared: &Shared,
    req: &Request,
    stream: &mut S,
    req_id: u64,
    keep: bool,
) -> RouteDone {
    let path = req.path.split('?').next().unwrap_or(&req.path);

    match (req.method.as_str(), path) {
        ("GET", "/healthz") => reply(stream, req_id, 200, "text/plain", &[], b"ok\n", keep),
        ("GET", "/metrics") => {
            let depth = shared.queue.lock().unwrap_or_else(|p| p.into_inner()).len();
            let body = shared.metrics.render(
                shared.cache.as_ref().map(|c| c.stats()),
                depth,
                shared.gate.capacity(),
                shared.workers,
                &shared.extra_gauges(),
            );
            reply(
                stream,
                req_id,
                200,
                "text/plain",
                &[],
                body.as_bytes(),
                keep,
            )
        }
        ("POST", "/v1/sweep") => handle_sweep(shared, req, stream, req_id, keep),
        ("GET", p) if p.starts_with("/v1/figures/") => {
            handle_figure(shared, p, stream, req_id, keep)
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => handle_jobs(shared, p, stream, req_id, keep),
        ("POST", "/admin/shutdown") => {
            if !stream.is_loopback() {
                return reply(
                    stream,
                    req_id,
                    403,
                    "text/plain",
                    &[],
                    b"shutdown is loopback-only\n",
                    false,
                );
            }
            let done = reply(stream, req_id, 200, "text/plain", &[], b"draining\n", false);
            shared.request_shutdown();
            done
        }
        ("GET" | "POST", "/healthz" | "/metrics" | "/v1/sweep" | "/admin/shutdown") => reply(
            stream,
            req_id,
            405,
            "text/plain",
            &[],
            b"method not allowed\n",
            keep,
        ),
        _ => reply(stream, req_id, 404, "text/plain", &[], b"not found\n", keep),
    }
}

fn handle_sweep<S: Conn>(
    shared: &Shared,
    req: &Request,
    stream: &mut S,
    req_id: u64,
    keep: bool,
) -> RouteDone {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => {
            return reply(
                stream,
                req_id,
                400,
                "text/plain",
                &[],
                b"body is not UTF-8\n",
                keep,
            )
        }
    };
    let sweep = match SweepRequest::parse(body) {
        Ok(s) => s,
        Err(msg) => {
            return reply(
                stream,
                req_id,
                400,
                "text/plain",
                &[],
                format!("bad sweep request: {msg}\n").as_bytes(),
                keep,
            )
        }
    };

    // Circuit breaker: campaigns are refused while it is open.
    match shared.breaker.try_acquire() {
        BreakerDecision::Reject { retry_after_secs } => {
            return reply(
                stream,
                req_id,
                503,
                "text/plain",
                &[("Retry-After", retry_after_secs.to_string())],
                b"circuit breaker open (recent worker panics)\n",
                keep,
            );
        }
        BreakerDecision::Allow | BreakerDecision::AllowProbe => {}
    }

    // Deadline propagation: the server budget, shrunk by the client's
    // `deadline_ms` (body) or `X-Comb-Deadline-Ms` (header) if smaller.
    let mut budget = shared.request_deadline;
    let client_ms = sweep.deadline_ms.or_else(|| {
        req.header("x-comb-deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&d| d > 0)
    });
    if let Some(ms) = client_ms {
        budget = budget.min(Duration::from_millis(ms));
    }
    let deadline = Instant::now() + budget;

    let job = shared
        .jobs_reg
        .create(req_id, "sweep", sweep.xs.len() as u64);
    let ctx = SweepRunCtx {
        jobs: shared.jobs,
        cache: shared.cache.as_deref(),
        quarantine: &shared.quarantine,
        deadline,
        poison_x: shared.poison_x,
    };
    match sweep.run(&ctx, &job) {
        Ok(text) => {
            shared.jobs_reg.finish(&job, "ok");
            if shared.breaker.on_success() {
                shared.trace(|| TraceEvent::ServeBreaker { open: false });
            }
            reply(
                stream,
                req_id,
                200,
                "text/plain",
                &[("X-Comb-Job", req_id.to_string())],
                text.as_bytes(),
                keep,
            )
        }
        Err(SweepRunError::DeadlineExpired) => {
            shared.jobs_reg.finish(&job, "error: deadline expired");
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            let retry = shared.derived_retry_after();
            reply(
                stream,
                req_id,
                503,
                "text/plain",
                &[("Retry-After", retry.to_string())],
                b"deadline expired before the sweep completed\n",
                keep,
            )
        }
        Err(SweepRunError::Quarantined { key, x }) => {
            shared.jobs_reg.finish(&job, "error: quarantined cell");
            let body = format!("{{\"error\":\"quarantined\",\"cell\":\"{key}\",\"x\":{x}}}\n");
            reply(
                stream,
                req_id,
                500,
                "application/json",
                &[],
                body.as_bytes(),
                keep,
            )
        }
        Err(SweepRunError::Panicked {
            key,
            x,
            message,
            quarantined,
        }) => {
            shared.jobs_reg.finish(&job, "error: worker panic");
            if quarantined {
                shared.trace(|| TraceEvent::ServeQuarantined {
                    panics: shared.quarantine.len() as u32,
                });
            }
            if shared.breaker.on_panic() {
                shared.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
                shared.trace(|| TraceEvent::ServeBreaker { open: true });
            }
            let body = format!(
                "{{\"error\":\"worker_panic\",\"cell\":\"{key}\",\"x\":{x},\"message\":{},\"quarantined\":{quarantined}}}\n",
                crate::json::escape(&message),
            );
            reply(
                stream,
                req_id,
                500,
                "application/json",
                &[],
                body.as_bytes(),
                keep,
            )
        }
        Err(SweepRunError::Run(e)) => {
            shared.jobs_reg.finish(&job, &format!("error: {e}"));
            reply(
                stream,
                req_id,
                500,
                "text/plain",
                &[],
                format!("sweep failed: {e}\n").as_bytes(),
                keep,
            )
        }
    }
}

fn handle_figure<S: Conn>(
    shared: &Shared,
    path: &str,
    stream: &mut S,
    req_id: u64,
    keep: bool,
) -> RouteDone {
    let name = path.trim_start_matches("/v1/figures/");
    let Some(stem) = name.strip_suffix(".csv") else {
        return reply(
            stream,
            req_id,
            404,
            "text/plain",
            &[],
            b"figures are served as <name>.csv\n",
            keep,
        );
    };
    let Ok(id) = FigureId::from_str(stem) else {
        return reply(
            stream,
            req_id,
            404,
            "text/plain",
            &[],
            format!("unknown figure '{stem}'\n").as_bytes(),
            keep,
        );
    };
    let job = shared.jobs_reg.create(req_id, "figure", 1);
    job.push_event(format!("figure {id}"));
    match comb_report::run_figures_cached(&[id], shared.fidelity, None, shared.cache.clone()) {
        Ok(reports) => match reports.into_iter().next() {
            Some(report) => {
                job.advance(format!("figure {id} rendered"));
                shared.jobs_reg.finish(&job, "ok");
                // `Dataset::write_csv` writes exactly `to_csv()`'s bytes,
                // so this body is byte-identical to `comb figure` output.
                let csv = report.dataset.to_csv();
                reply(
                    stream,
                    req_id,
                    200,
                    "text/csv",
                    &[("X-Comb-Job", req_id.to_string())],
                    csv.as_bytes(),
                    keep,
                )
            }
            None => {
                shared.jobs_reg.finish(&job, "error: empty report");
                reply(
                    stream,
                    req_id,
                    500,
                    "text/plain",
                    &[],
                    b"empty report\n",
                    keep,
                )
            }
        },
        Err(e) => {
            shared.jobs_reg.finish(&job, &format!("error: {e}"));
            reply(
                stream,
                req_id,
                500,
                "text/plain",
                &[],
                format!("figure failed: {e}\n").as_bytes(),
                keep,
            )
        }
    }
}

fn handle_jobs<S: Conn>(
    shared: &Shared,
    path: &str,
    stream: &mut S,
    req_id: u64,
    keep: bool,
) -> RouteDone {
    let rest = path.trim_start_matches("/v1/jobs/");
    let (id_part, events) = match rest.strip_suffix("/events") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        return reply(
            stream,
            req_id,
            404,
            "text/plain",
            &[],
            b"bad job id\n",
            keep,
        );
    };
    let Some(job) = shared.jobs_reg.get(id) else {
        return reply(
            stream,
            req_id,
            404,
            "text/plain",
            &[],
            b"no such job\n",
            keep,
        );
    };
    if !events {
        let st = job.snapshot();
        let body = format!(
            "{{\"id\":{},\"kind\":{},\"total\":{},\"completed\":{},\"done\":{},\"status\":{}}}\n",
            job.id,
            crate::json::escape(&st.kind),
            st.total,
            st.completed,
            st.done,
            crate::json::escape(&st.status),
        );
        return reply(
            stream,
            req_id,
            200,
            "application/json",
            &[],
            body.as_bytes(),
            keep,
        );
    }

    // Stream events as chunked text until the job completes. The
    // connection always closes afterwards.
    let extra = [("X-Comb-Request", req_id.to_string())];
    let mut w = match ChunkedWriter::start(stream, "text/plain", &extra) {
        Ok(w) => w,
        Err(_) => {
            return RouteDone {
                status: 200,
                keep_open: false,
            }
        }
    };
    let mut from = 0;
    loop {
        let (fresh, done) = job.wait_events(from);
        from += fresh.len();
        for line in &fresh {
            if w.chunk(format!("{line}\n").as_bytes()).is_err() {
                return RouteDone {
                    status: 200,
                    keep_open: false,
                };
            }
        }
        if done {
            break;
        }
    }
    let _ = w.finish();
    RouteDone {
        status: 200,
        keep_open: false,
    }
}
