//! The HTTP explanation service.
//!
//! Thread-per-connection over `std::net::TcpListener` — deliberately
//! boring concurrency: one request reasons and queries on its
//! connection's thread (an `/explain` batch may fan its questions
//! across `"parallelism"` workers), so the transport layer only needs
//! enough threads to keep the admission gate fed. Routes:
//!
//! | route            | method | behaviour |
//! |------------------|--------|-----------|
//! | `/explain`       | POST   | batch explanation under a clamped [`Budget`]; budget trips → `206` with a [`DegradationReport`](feo_core::DegradationReport) |
//! | `/query`         | POST   | SPARQL at head, `as_of` an epoch, or on a branch |
//! | `/health`        | GET    | liveness |
//! | `/ready`         | GET    | readiness (`503` once draining) |
//! | `/stats`         | GET    | admission counters + plan-cache stats |
//!
//! Every request passes the [`Admission`] gate first; shed requests
//! get `429` + `Retry-After` before any engine work happens. One
//! watcher thread for the whole server peeks the sockets of the
//! requests in the live registry and flips a request's [`CancelFlag`]
//! when its client disconnects, so abandoned work stops at the
//! governor's next check instead of running to completion. Shutdown is
//! drain-then-cancel: stop accepting, reject new work, wait for
//! in-flight requests up to a deadline, then cancel stragglers through
//! the same registry.
//!
//! Nothing on a request's path sleeps, spawns or duplicates a socket:
//! the accept loop waits in `poll(2)` for a connection (the timeout
//! only bounds how stale its view of the shutdown flag gets), a
//! response is one `write` on a `TCP_NODELAY` socket, and registering
//! with the watcher is a map insert.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use feo_core::json::{self, Json, Object, ToJson};
use feo_core::{EngineBase, EngineError, EpochId, ExplainOptions, Question};
use feo_rdf::{Budget, CancelFlag, Parallelism};

use crate::admission::{Admission, AdmissionConfig, AdmissionStats, Shed};
use crate::http::{write_response, Conn, HttpError, Request, Response};
use crate::sys;

/// Longest the accept loop waits for a connection before it looks at
/// the shutdown flag again (shutdown latency, not connection latency).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How often the disconnect watcher peeks the in-flight sockets
/// (disconnect-detection latency).
const WATCH_POLL: Duration = Duration::from_millis(20);

/// The watcher's first pause after it wakes from its park; each later
/// one is twice the last, up to [`WATCH_POLL`]. A request that has only
/// just started is therefore looked at often, and a hang-up wastes at
/// most about as much work again as the request had already done.
const WATCH_FIRST: Duration = Duration::from_millis(1);

/// Server configuration: transport knobs plus the ceilings every
/// request budget is clamped to. Clients may *narrow* their budget
/// below these, never widen it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    pub admission: AdmissionConfig,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Cap on questions per `/explain` request — a request is one
    /// budgeted unit of work, not a bulk-import channel.
    pub max_questions: usize,
    /// Concurrent connections (idle keep-alives included).
    pub max_connections: usize,
    /// Deadline applied when the client doesn't send one.
    pub default_deadline_ms: u64,
    /// Ceiling on client-requested deadlines.
    pub max_deadline_ms: u64,
    /// Ceiling on inferred triples per request.
    pub max_inferred: u64,
    /// Ceiling on reasoner rounds per request.
    pub max_rounds: u64,
    /// Ceiling on SPARQL solutions per request.
    pub max_solutions: u64,
    /// Queue wait is bounded by `min(deadline, this)` so a generous
    /// execution deadline cannot buy an unbounded queue slot.
    pub queue_wait_cap_ms: u64,
    /// How long shutdown waits for in-flight requests before
    /// cancelling them.
    pub drain_deadline_ms: u64,
    /// Batch workers for `/explain` when the request doesn't choose.
    pub parallelism: Parallelism,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            admission: AdmissionConfig::default(),
            max_body_bytes: 1 << 20,
            max_questions: 64,
            max_connections: 256,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            max_inferred: 5_000_000,
            max_rounds: 64,
            max_solutions: 200_000,
            queue_wait_cap_ms: 1_000,
            drain_deadline_ms: 5_000,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Server-level failures (bind errors, accept-loop I/O).
#[derive(Debug)]
pub enum ServeError {
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(detail) => write!(f, "serve error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What happened during shutdown drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// True when every in-flight request finished inside the drain
    /// deadline without being cancelled.
    pub clean: bool,
    /// Requests force-cancelled at the drain deadline.
    pub force_cancelled: usize,
}

/// Shared state every connection thread sees.
struct Ctx {
    base: Arc<EngineBase>,
    cfg: ServeConfig,
    admission: Arc<Admission>,
    /// The requests executing right now: the one registry that both
    /// drain's force-cancel and the disconnect watcher read.
    live: Mutex<LiveRequests>,
    /// Wakes the watcher: a request registered while it was parked, or
    /// the server is done.
    watcher_wake: Condvar,
    connections: AtomicUsize,
}

/// The live registry. An entry is inserted, inspected and removed only
/// under the lock, and [`LiveGuard`] removes it while the request's
/// connection thread still owns the socket — so a registered fd is
/// always open and always the request's own, and a request that has
/// finished can no longer be cancelled.
#[derive(Default)]
struct LiveRequests {
    by_id: HashMap<u64, (RawFd, CancelFlag)>,
    next_id: u64,
    /// The watcher is blocked until notified (the registry was empty).
    watcher_parked: bool,
    /// The server has drained; the watcher exits.
    closed: bool,
}

impl Ctx {
    fn lock_live(&self) -> MutexGuard<'_, LiveRequests> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers an in-flight request on `socket` until the returned
    /// guard drops.
    fn register_live(self: &Arc<Self>, socket: &TcpStream, cancel: CancelFlag) -> LiveGuard {
        let mut live = self.lock_live();
        let id = live.next_id;
        live.next_id += 1;
        live.by_id.insert(id, (socket.as_raw_fd(), cancel));
        if live.watcher_parked {
            self.watcher_wake.notify_one();
        }
        LiveGuard {
            ctx: Arc::clone(self),
            id,
        }
    }

    /// Cancels every in-flight request; returns how many were live.
    fn cancel_live(&self) -> usize {
        let live = self.lock_live();
        for (_, cancel) in live.by_id.values() {
            cancel.cancel();
        }
        live.by_id.len()
    }

    /// The server's disconnect watcher: it peeks the socket of each
    /// live request and cancels those whose client has gone, so
    /// abandoned work frees its admission slot at the governor's next
    /// check, then pauses — [`WATCH_FIRST`] at first, [`WATCH_POLL`]
    /// under steady load — and looks again. Parked while nothing is in
    /// flight; returns once [`Ctx::close_live`] has been called.
    fn watch_disconnects(&self) {
        let mut pause = WATCH_FIRST;
        let mut live = self.lock_live();
        while !live.closed {
            if live.by_id.is_empty() {
                live.watcher_parked = true;
                live = self
                    .watcher_wake
                    .wait(live)
                    .unwrap_or_else(|e| e.into_inner());
                live.watcher_parked = false;
                pause = WATCH_FIRST;
                continue;
            }
            for (fd, cancel) in live.by_id.values() {
                // A flag that is already up was counted when it went up.
                if !cancel.is_cancelled() && sys::peer_gone(*fd) {
                    cancel.cancel();
                    self.admission.note_disconnect_cancel();
                }
            }
            live = self
                .watcher_wake
                .wait_timeout(live, pause)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            pause = (pause * 2).min(WATCH_POLL);
        }
    }

    /// Tells the watcher to exit.
    fn close_live(&self) {
        self.lock_live().closed = true;
        self.watcher_wake.notify_all();
    }
}

/// RAII registration of an in-flight request in the live registry.
struct LiveGuard {
    ctx: Arc<Ctx>,
    id: u64,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.ctx.lock_live().by_id.remove(&self.id);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener. The engine is shared, not owned: several
    /// servers (or a server plus in-process callers) can serve the
    /// same [`EngineBase`].
    pub fn bind(base: Arc<EngineBase>, cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("set_nonblocking: {e}")))?;
        let admission = Arc::new(Admission::new(cfg.admission.clone()));
        Ok(Server {
            listener,
            addr,
            ctx: Arc::new(Ctx {
                base,
                cfg,
                admission,
                live: Mutex::new(LiveRequests::default()),
                watcher_wake: Condvar::new(),
                connections: AtomicUsize::new(0),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag that requests shutdown; share it with a signal
    /// handler or test harness.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The admission gate (stats for harnesses).
    pub fn admission(&self) -> Arc<Admission> {
        Arc::clone(&self.ctx.admission)
    }

    /// Binds and runs on a background thread; the returned handle
    /// drives shutdown. This is the entry point tests and the bench
    /// harness use.
    pub fn spawn(base: Arc<EngineBase>, cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        let server = Server::bind(base, cfg)?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_flag();
        let admission = server.admission();
        let thread = thread::spawn(move || server.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            admission,
            thread,
        })
    }

    /// Accept loop. Returns after a shutdown request once drain
    /// completes (or its deadline forces cancellation).
    pub fn run(self) -> Result<DrainOutcome, ServeError> {
        // The disconnect watcher lives exactly as long as the accept
        // loop and its drain; the scope joins it.
        thread::scope(|scope| {
            scope.spawn(|| self.ctx.watch_disconnects());
            let outcome = self.accept_and_drain();
            self.ctx.close_live();
            outcome
        })
    }

    fn accept_and_drain(&self) -> Result<DrainOutcome, ServeError> {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    workers.retain(|w| !w.is_finished());
                    let ctx = Arc::clone(&self.ctx);
                    if ctx.connections.load(Ordering::Relaxed) >= ctx.cfg.max_connections {
                        reject_over_capacity(stream);
                        continue;
                    }
                    ctx.connections.fetch_add(1, Ordering::Relaxed);
                    workers.push(thread::spawn(move || {
                        handle_connection(&ctx, stream);
                        ctx.connections.fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                // Nobody waiting: block until somebody is, so a
                // connection is accepted the moment it arrives. The
                // listener stays non-blocking and the wait bounded so
                // that setting the shutdown flag is all it takes to
                // stop the loop.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    sys::wait_readable(self.listener.as_raw_fd(), ACCEPT_POLL)
                        .map_err(|e| ServeError::Io(format!("poll: {e}")))?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(format!("accept: {e}"))),
            }
        }
        // Drain: reject new work, let in-flight requests finish, then
        // cancel whatever outlived the deadline.
        self.ctx.admission.begin_drain();
        let deadline = Instant::now() + Duration::from_millis(self.ctx.cfg.drain_deadline_ms);
        let clean = self.ctx.admission.wait_idle(deadline);
        let force_cancelled = if clean { 0 } else { self.ctx.cancel_live() };
        if !clean {
            // Give cancelled requests a moment to trip their guards
            // and release their permits.
            let grace = Instant::now() + Duration::from_secs(2);
            self.ctx.admission.wait_idle(grace);
        }
        // Connection threads exit on their own: draining makes
        // read_request give up on idle keep-alives. Join briefly,
        // detach stragglers.
        let join_deadline = Instant::now() + Duration::from_secs(1);
        for worker in workers {
            if worker.is_finished() || Instant::now() < join_deadline {
                let _ = worker.join();
            }
        }
        Ok(DrainOutcome {
            clean,
            force_cancelled,
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    admission: Arc<Admission>,
    thread: JoinHandle<Result<DrainOutcome, ServeError>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Requests shutdown and waits for the drain to finish.
    pub fn shutdown_and_join(self) -> Result<DrainOutcome, ServeError> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(outcome) => outcome,
            Err(_) => Err(ServeError::Io("server thread panicked".to_string())),
        }
    }
}

/// 503s a connection accepted over the connection cap.
fn reject_over_capacity(stream: TcpStream) {
    let body = error_body("shed").field("reason", "connection_limit").end();
    let response = Response::json(503, body).retry_after(1);
    let _ = write_response(&stream, &response, true);
}

/// Serves one connection until close, error, or drain.
fn handle_connection(ctx: &Arc<Ctx>, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // A reply is one complete write; never hold it (or the second of
    // two pipelined replies) back for the client's ACK.
    let _ = stream.set_nodelay(true);
    let mut conn = match Conn::new(stream, ctx.cfg.max_body_bytes) {
        Ok(conn) => conn,
        Err(_) => return,
    };
    let admission = Arc::clone(&ctx.admission);
    let give_up = move || admission.is_draining();
    loop {
        match conn.read_request(&give_up) {
            Ok(Some(request)) => {
                let response = catch_unwind(AssertUnwindSafe(|| route(ctx, &request, &conn)))
                    .unwrap_or_else(|_| {
                        let body = error_body("internal").field("message", "handler panicked");
                        Response::json(500, body.end())
                    });
                let close = request.wants_close() || ctx.admission.is_draining();
                if write_response(conn.stream(), &response, close).is_err() || close {
                    return;
                }
            }
            Ok(None) => return,
            Err(error) => {
                let response = match &error {
                    HttpError::BodyTooLarge { declared, limit } => {
                        let body = error_body("body_too_large").field("declared", *declared);
                        Response::json(413, body.field("limit", *limit).end())
                    }
                    HttpError::Syntax(detail) => bad_request(detail),
                    HttpError::Disconnected | HttpError::Io(_) => return,
                };
                let _ = write_response(conn.stream(), &response, true);
                return;
            }
        }
    }
}

/// Dispatches one request.
fn route(ctx: &Arc<Ctx>, request: &Request, conn: &Conn) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/health") => {
            let body = json::object().field("status", "ok");
            Response::json(200, body.field("epoch", ctx.base.head().0).end())
        }
        ("GET", "/ready") => {
            // `store` reports how the base is backed: "disk" when a
            // persistent store is attached (memory-mapped segment +
            // WAL), "memory" for a freshly materialized engine.
            let store = match ctx.base.store() {
                Some(_) => "disk",
                None => "memory",
            };
            let draining = ctx.admission.is_draining();
            let ready = json::object().field("ready", !draining);
            if draining {
                Response::json(503, ready.field("reason", "draining").end())
            } else {
                Response::json(200, ready.field("store", store).end())
            }
        }
        ("GET", "/stats") => Response::json(200, stats_json(ctx)),
        ("POST", "/explain") => handle_explain(ctx, request, conn).unwrap_or_else(|e| e),
        ("POST", "/query") => handle_query(ctx, request, conn).unwrap_or_else(|e| e),
        ("GET" | "POST", _) => Response::json(
            404,
            error_body("not_found").field("path", request.path()).end(),
        ),
        _ => Response::json(405, error_body("method_not_allowed").end()),
    }
}

/// An error body, `{"error":kind, …}`, for the caller to add to.
fn error_body(kind: &str) -> Object<String> {
    json::object().field("error", kind)
}

fn bad_request(message: &str) -> Response {
    let body = error_body("bad_request").field("message", message);
    Response::json(400, body.end())
}

/// 429/503 for a shed request, with `Retry-After` and a
/// machine-readable reason.
fn shed_response(shed: Shed) -> Response {
    let status = match shed {
        Shed::Draining => 503,
        _ => 429,
    };
    let body = error_body("shed")
        .field("reason", shed.reason())
        .field("retry_after_secs", shed.retry_after_secs());
    Response::json(status, body.end()).retry_after(shed.retry_after_secs())
}

/// Maps engine errors to responses. `sparql_is_client_fault` is true
/// on `/query`, where a SPARQL error means the *client's* query was
/// bad (400); on `/explain` the templates are ours, so it's a 500.
fn engine_error_response(error: &EngineError, sparql_is_client_fault: bool) -> Response {
    let status = match error {
        EngineError::Exhausted(exhausted) => {
            let body = json::object().field("complete", false);
            return Response::json(206, body.field("exhausted", exhausted).end());
        }
        EngineError::UnknownEntity(_)
        | EngineError::MissingRecommendations
        | EngineError::MissingPopulation
        | EngineError::UnknownEpoch(_)
        | EngineError::UnknownBranch(_)
        | EngineError::DuplicateBranch(_) => 422,
        EngineError::Sparql(_) if sparql_is_client_fault => 400,
        EngineError::Sparql(_) | EngineError::Inconsistent(_) | EngineError::Store(_) => 500,
    };
    let body = error_body("engine").field("message", error.to_string());
    Response::json(status, body.end())
}

/// `/stats` body: admission counters (global and per-tenant), the plan
/// cache (ad-hoc `/query` text only), cumulative join-operator
/// counters, ledger head.
fn stats_json(ctx: &Ctx) -> String {
    let a = ctx.admission.stats();
    let j = feo_sparql::join_counters();
    json::object()
        .object("admission", |o| {
            o.field("admitted", a.admitted)
                .field("completed", a.completed)
                .field("shed_queue_full", a.shed_queue_full)
                .field("shed_deadline", a.shed_deadline)
                .field("rejected_quota", a.rejected_quota)
                .field("cancelled_disconnects", a.cancelled_disconnects)
                .field("inflight", a.inflight)
                .field("queued", a.queued)
                .field("ewma_service_micros", a.ewma_service_micros)
                .object("tenants", |tenants| {
                    let stats = ctx.admission.tenant_stats().into_iter();
                    stats.fold(tenants, |tenants, (name, t)| {
                        tenants.object(&name, |o| {
                            o.field("admitted", t.admitted).field("shed", t.shed)
                        })
                    })
                })
        })
        .field("plan_cache", ctx.base.plan_cache_stats())
        .object("joins", |o| {
            o.field("nested", j.nested).field("hash", j.hash)
        })
        .field("epoch", ctx.base.head().0)
        .field("draining", ctx.admission.is_draining())
        .end()
}

/// Builds the request's [`Budget`]: client wishes clamped to server
/// ceilings, plus the request's cancel flag. Returns the budget and
/// the effective deadline in milliseconds.
fn build_budget(
    cfg: &ServeConfig,
    body: Option<&Json>,
    request: &Request,
    cancel: CancelFlag,
) -> (Budget, u64) {
    let spec = body.and_then(|v| v.get("budget"));
    let header_deadline = request
        .header("x-feo-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok());
    let deadline_ms = spec
        .and_then(|v| v.get("deadline_ms"))
        .and_then(Json::as_u64)
        .or(header_deadline)
        .unwrap_or(cfg.default_deadline_ms)
        .clamp(1, cfg.max_deadline_ms);
    let clamped = |name: &str, ceiling: u64| -> u64 {
        spec.and_then(|v| v.get(name))
            .and_then(Json::as_u64)
            .map(|v| v.min(ceiling))
            .unwrap_or(ceiling)
            .max(1)
    };
    let budget = Budget::new()
        .with_deadline(Duration::from_millis(deadline_ms))
        .with_max_inferred(clamped("max_inferred", cfg.max_inferred))
        .with_max_rounds(clamped("max_rounds", cfg.max_rounds))
        .with_max_solutions(clamped("max_solutions", cfg.max_solutions))
        .with_max_input_bytes(cfg.max_body_bytes as u64)
        .with_cancel(cancel);
    (budget, deadline_ms)
}

/// Batch workers for one `/explain` request: client choice capped at
/// 16, else the server default.
fn request_parallelism(cfg: &ServeConfig, body: &Json) -> Parallelism {
    match body.get("parallelism").and_then(Json::as_u64) {
        Some(0) => Parallelism::Off,
        Some(n) => Parallelism::Fixed(n.min(16) as usize),
        None => cfg.parallelism,
    }
}

/// Runs `work` as one admitted request: the request's budget (with a
/// fresh cancel flag), a queue wait bounded by its deadline, the
/// tenant's admission slot, and a place in the live registry, all held
/// until `work` returns. A shed request gets its response and no work.
fn run_admitted<T>(
    ctx: &Arc<Ctx>,
    request: &Request,
    conn: &Conn,
    body: Option<&Json>,
    work: impl FnOnce(&Budget) -> T,
) -> Result<T, Response> {
    let cancel = CancelFlag::new();
    let (budget, deadline_ms) = build_budget(&ctx.cfg, body, request, cancel.clone());
    let tenant = request.header("x-feo-tenant").unwrap_or("anonymous");
    let wait = Duration::from_millis(deadline_ms.min(ctx.cfg.queue_wait_cap_ms));
    let permit = ctx
        .admission
        .admit(tenant, Instant::now() + wait)
        .map_err(shed_response)?;
    let live = ctx.register_live(conn.stream(), cancel);
    let result = work(&budget);
    drop(live);
    drop(permit);
    Ok(result)
}

/// POST `/explain`: parse, admit, execute under budget, map the
/// outcome to 200 (complete) or 206 (degraded).
fn handle_explain(ctx: &Arc<Ctx>, request: &Request, conn: &Conn) -> Result<Response, Response> {
    let body = json_body(request)?;
    let items = body.get("questions").and_then(Json::as_array);
    let items = items.ok_or_else(|| bad_request("missing \"questions\" array"))?;
    if items.is_empty() {
        return Err(bad_request("\"questions\" is empty"));
    }
    if items.len() > ctx.cfg.max_questions {
        let max = ctx.cfg.max_questions;
        return Err(bad_request(&format!("at most {max} questions per request")));
    }
    let questions: Vec<Question> = items
        .iter()
        .map(Question::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| bad_request(&e))?;
    let parallelism = request_parallelism(&ctx.cfg, &body);
    let outcome = run_admitted(ctx, request, conn, Some(&body), |budget| {
        ctx.base
            .explain_batch_with_budget(&questions, budget, parallelism)
    })?;
    let outcome = outcome.map_err(|e| engine_error_response(&e, false))?;
    let status = if outcome.is_complete() { 200 } else { 206 };
    Ok(Response::json(status, outcome.to_json()))
}

/// POST `/query`: SPARQL against head, a historical epoch (`as_of`),
/// or a named branch — budget-guarded like `/explain`.
fn handle_query(ctx: &Arc<Ctx>, request: &Request, conn: &Conn) -> Result<Response, Response> {
    // Either a JSON envelope or a raw query body.
    let raw_query = request
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("application/sparql-query"));
    let body = if raw_query {
        None
    } else {
        Some(json_body(request)?)
    };
    let sparql = match &body {
        None => request
            .body_utf8()
            .ok_or_else(|| bad_request("body is not UTF-8"))?,
        Some(body) => body
            .get("sparql")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("missing \"sparql\" string"))?,
    };
    let as_of = body
        .as_ref()
        .and_then(|b| b.get("as_of"))
        .and_then(Json::as_u64);
    let branch = body
        .as_ref()
        .and_then(|b| b.get("branch"))
        .and_then(Json::as_str);
    if as_of.is_some() && branch.is_some() {
        return Err(bad_request(
            "\"as_of\" and \"branch\" are mutually exclusive",
        ));
    }
    // Convenience: prepend the standard prologue when the query
    // doesn't declare its own prefixes.
    let full = if sparql.to_ascii_lowercase().contains("prefix") {
        sparql.to_string()
    } else {
        format!("{}{}", feo_ontology::ns::sparql_prologue(), sparql)
    };
    let result = run_admitted(ctx, request, conn, body.as_ref(), |budget| {
        let guard = budget.start();
        let opts = ExplainOptions::guarded(&guard);
        match (as_of, branch) {
            (Some(epoch), None) => match ctx.base.at_epoch(EpochId(epoch)) {
                Some(mut session) => session.query_opts(&full, &opts),
                None => Err(EngineError::UnknownEpoch(epoch)),
            },
            (None, Some(name)) => match ctx.base.branch_session(name) {
                Some(mut session) => session.query_opts(&full, &opts),
                None => Err(EngineError::UnknownBranch(name.to_string())),
            },
            _ => ctx.base.session().query_opts(&full, &opts),
        }
    })?;
    let result = result.map_err(|e| engine_error_response(&e, true))?;
    Ok(Response::json(200, result.to_json()))
}

/// The request body as a JSON document, or the 400 saying why not.
fn json_body(request: &Request) -> Result<Json, Response> {
    let text = request
        .body_utf8()
        .ok_or_else(|| bad_request("body is not UTF-8"))?;
    Json::parse(text).map_err(|e| bad_request(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_clamp_to_server_ceilings() {
        let cfg = ServeConfig {
            max_deadline_ms: 1_000,
            max_inferred: 500,
            max_rounds: 8,
            max_solutions: 100,
            ..ServeConfig::default()
        };
        let body = Json::parse(
            r#"{"budget":{"deadline_ms":99999,"max_inferred":50,"max_rounds":99,"max_solutions":1000000}}"#,
        )
        .expect("parses");
        let request = Request {
            method: "POST".to_string(),
            target: "/explain".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let (budget, deadline_ms) = build_budget(&cfg, Some(&body), &request, CancelFlag::new());
        assert_eq!(deadline_ms, 1_000);
        // Client narrows inferred below the ceiling; widening attempts
        // are clamped back down.
        assert_eq!(budget.max_inferred, Some(50));
        assert_eq!(budget.max_rounds, Some(8));
        assert_eq!(budget.max_solutions, Some(100));
    }

    #[test]
    fn header_deadline_applies_when_body_has_none() {
        let cfg = ServeConfig::default();
        let request = Request {
            method: "POST".to_string(),
            target: "/explain".to_string(),
            headers: vec![("x-feo-deadline-ms".to_string(), "250".to_string())],
            body: Vec::new(),
        };
        let (_, deadline_ms) = build_budget(&cfg, None, &request, CancelFlag::new());
        assert_eq!(deadline_ms, 250);
    }
}
