//! The CORAL server: a TCP front end multiplexing concurrent client
//! connections onto per-connection [`Session`]s that share one
//! persistent [`StorageServer`] — the
//! paper's "multiple CORAL processes … accessing persistent data
//! stored using the EXODUS storage manager" (§3.2), with threads
//! standing in for processes.
//!
//! Design notes:
//!
//! * **Bounded worker pool.** `workers` threads share the listener and
//!   each serves one connection at a time, so the pool size bounds both
//!   concurrency and memory. A `Session` is `!Send` (it is built from
//!   `Rc`/`RefCell`), so each is created and dropped on the worker
//!   thread that owns the connection; only the storage client handle
//!   (`Arc`) crosses threads.
//! * **Shutdown.** A shared flag plus short socket read timeouts: idle
//!   connections poll the flag between frames, workers blocked in
//!   `accept` are woken by loopback connects, and in-flight
//!   evaluations are interrupted through their session's
//!   [`CancelToken`].
//! * **Request timeouts.** A watchdog thread cancels the session of
//!   any request that outlives `request_timeout`; the evaluation
//!   surfaces [`EvalError::Cancelled`] and the client gets an `Error`
//!   frame with code `Cancelled` while the connection stays usable.
//! * **Admission control.** Engine-evaluating requests (consult,
//!   query, next-answer) claim a slot against
//!   `ServerConfig::max_eval_in_flight` before touching the session;
//!   a saturated server sheds the request with [`Response::Retry`]
//!   instead of queueing unboundedly, and the client retries with
//!   backoff. Each connection serves one request at a time, so the
//!   per-session concurrency cap is structurally one.
//! * **Budgets.** `ServerConfig::budget` is installed as every
//!   session's default [`coral_core::Budget`]; a query that exhausts
//!   it gets a `BudgetExceeded` error frame — or, mid-stream, a final
//!   `Batch` carrying the answers produced so far plus an explicit
//!   truncation marker — while the connection stays usable.

use crate::error::{ErrorCode, NetError, NetResult};
use crate::proto::{self, Request, Response, DEFAULT_MAX_FRAME};
use crate::stats::{NetStats, NetStatsSnapshot};
use coral_core::{Answers, Budget, CancelToken, EvalError, Session};
use coral_rel::PersistentRelation;
use coral_storage::{StorageClient, StorageServer};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle connection wakes up to check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// How often the watchdog scans for expired requests.
const WATCHDOG_TICK: Duration = Duration::from_millis(5);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; also the maximum number of concurrent
    /// connections.
    pub workers: usize,
    /// Storage directory for persistent relations; `None` serves
    /// purely in-memory sessions.
    pub data_dir: Option<PathBuf>,
    /// Buffer pool size (pages) when `data_dir` is set.
    pub frames: usize,
    /// Maximum accepted request payload size in bytes.
    pub max_frame: u32,
    /// Wall-clock budget per engine-evaluating request (consult,
    /// query, next-answer); `None` means unlimited.
    pub request_timeout: Option<Duration>,
    /// Evaluation threads per session (partitioned delta evaluation);
    /// `None` defers to `CORAL_THREADS` (default 1 = serial).
    pub threads: Option<usize>,
    /// Default resource budget installed in every session
    /// ([`Budget::unlimited`] by default). A query exhausting it gets
    /// a `BudgetExceeded` error frame, or a truncated final batch if
    /// it was already streaming answers.
    pub budget: Budget,
    /// Cap on engine-evaluating requests (consult, query, next-answer)
    /// in flight across all connections. A request arriving at the cap
    /// is shed with [`Response::Retry`] instead of queueing; `None`
    /// leaves the worker pool as the only concurrency bound.
    pub max_eval_in_flight: Option<usize>,
    /// Backoff hint (milliseconds) carried by shed responses.
    pub shed_backoff_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            data_dir: None,
            frames: 256,
            max_frame: DEFAULT_MAX_FRAME,
            request_timeout: None,
            threads: None,
            budget: Budget::unlimited(),
            max_eval_in_flight: None,
            shed_backoff_ms: 50,
        }
    }
}

struct WatchEntry {
    deadline: Instant,
    token: CancelToken,
}

/// Requests currently under a timeout, keyed by request id. Guard
/// registration and removal are O(1) hash operations — with thousands
/// of concurrent guarded requests, the previous `Vec` + retain-scan
/// made every drop linear in the table size (quadratic in aggregate)
/// while holding the lock the watchdog contends on.
struct WatchTable {
    entries: Mutex<HashMap<u64, WatchEntry>>,
}

impl WatchTable {
    fn new() -> WatchTable {
        WatchTable {
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn insert(&self, id: u64, deadline: Instant, token: CancelToken) {
        self.entries
            .lock()
            .unwrap()
            .insert(id, WatchEntry { deadline, token });
    }

    fn remove(&self, id: u64) {
        // Runs during unwinding too (the request may have panicked), so
        // tolerate a poisoned mutex instead of double-panicking.
        self.entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
    }

    /// Cancel and drop every entry whose deadline has passed; returns
    /// how many were cancelled.
    fn cancel_expired(&self, now: Instant) -> usize {
        let mut entries = self.entries.lock().unwrap();
        let before = entries.len();
        entries.retain(|_, e| {
            if e.deadline <= now {
                e.token.cancel();
                false
            } else {
                true
            }
        });
        before - entries.len()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }
}

struct Shared {
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: AtomicBool,
    stats: NetStats,
    storage: Option<StorageClient>,
    config: ServerConfig,
    next_id: AtomicU64,
    /// Requests currently under a timeout, expired by the watchdog.
    watch: WatchTable,
    /// Cancel tokens of all live connections, cancelled on shutdown.
    active: Mutex<Vec<(u64, CancelToken)>>,
    /// Engine-evaluating requests currently in flight (admission
    /// control).
    eval_in_flight: AtomicU64,
}

/// Removes its watch entry when the request finishes before the
/// deadline.
struct TimeoutGuard<'a> {
    watch: &'a WatchTable,
    id: u64,
}

impl Drop for TimeoutGuard<'_> {
    fn drop(&mut self) {
        self.watch.remove(self.id);
    }
}

/// Releases an admission-control slot when the request finishes —
/// including by unwinding, so a panicking request cannot leak eval
/// capacity.
struct EvalPermit<'a> {
    shared: &'a Shared,
}

impl Drop for EvalPermit<'_> {
    fn drop(&mut self) {
        self.shared.eval_in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn timeout_guard(&self, token: CancelToken) -> Option<TimeoutGuard<'_>> {
        let timeout = self.config.request_timeout?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.watch.insert(id, Instant::now() + timeout, token);
        Some(TimeoutGuard {
            watch: &self.watch,
            id,
        })
    }

    /// Claim an evaluation slot, or `None` when the server is
    /// saturated and the request should be shed.
    fn admit(&self) -> Option<EvalPermit<'_>> {
        let prev = self.eval_in_flight.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.config.max_eval_in_flight {
            if prev as usize >= cap {
                self.eval_in_flight.fetch_sub(1, Ordering::Relaxed);
                return None;
            }
        }
        Some(EvalPermit { shared: self })
    }

    /// The response for a shed request.
    fn shed(&self) -> Response {
        NetStats::add(&self.stats.shed, 1);
        Response::Retry {
            after_ms: self.config.shed_backoff_ms,
        }
    }
}

/// A running CORAL server. Dropping it without calling
/// [`Server::shutdown`] detaches the worker threads.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7061"`, or port 0 for an
    /// ephemeral port) and start serving. Opens the storage directory
    /// first when one is configured, so WAL recovery happens before
    /// the first connection is accepted.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> NetResult<Server> {
        let storage = match &config.data_dir {
            Some(dir) => Some(
                StorageServer::open(dir, config.frames)
                    .map_err(|e| NetError::Protocol(format!("failed to open storage: {e}")))?,
            ),
            None => None,
        };
        Self::start_inner(addr, config, storage)
    }

    /// Like [`Server::start`], but serve an already-open storage client
    /// instead of opening `config.data_dir`. This is how tests inject a
    /// fault-injecting storage stack (`coral-sim`) under the network
    /// layer; it also lets an embedding share one storage server between
    /// a network listener and local sessions.
    pub fn start_with_storage(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        storage: coral_storage::StorageClient,
    ) -> NetResult<Server> {
        Self::start_inner(addr, config, Some(storage))
    }

    fn start_inner(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        storage: Option<coral_storage::StorageClient>,
    ) -> NetResult<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let n_workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            listener,
            addr,
            shutdown: AtomicBool::new(false),
            stats: NetStats::default(),
            storage,
            config,
            next_id: AtomicU64::new(0),
            watch: WatchTable::new(),
            active: Mutex::new(Vec::new()),
            eval_in_flight: AtomicU64::new(0),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("coral-net-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker thread")
            })
            .collect();
        let watchdog = shared.config.request_timeout.map(|_| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("coral-net-watchdog".into())
                .spawn(move || watchdog_loop(&sh))
                .expect("spawn watchdog thread")
        });
        Ok(Server {
            shared,
            workers,
            watchdog,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, cancel in-flight
    /// evaluations, let live connections observe the flag and close
    /// (clients see EOF), join all threads, and checkpoint storage.
    /// Returns the final counter snapshot.
    pub fn shutdown(self) -> NetStatsSnapshot {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for (_, token) in self.shared.active.lock().unwrap().iter() {
            token.cancel();
        }
        // Wake workers blocked in accept(); extras queue in the
        // backlog and die with the listener.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.shared.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog {
            let _ = w.join();
        }
        if let Some(s) = &self.shared.storage {
            let _ = s.checkpoint();
        }
        self.shared.stats.snapshot()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match shared.listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutting_down() {
                    return; // the stream was a shutdown wakeup
                }
                // A panic in session/engine code must cost one
                // connection, not this worker: an unwinding worker would
                // permanently shrink the pool (and the max-connection
                // capacity) for the server's lifetime. Connection
                // bookkeeping is restored by `ConnCleanup`'s Drop.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(shared, stream)
                }))
                .is_err()
                {
                    NetStats::add(&shared.stats.errors, 1);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn watchdog_loop(shared: &Shared) {
    while !shared.shutting_down() {
        shared.watch.cancel_expired(Instant::now());
        std::thread::sleep(WATCHDOG_TICK);
    }
}

/// Restores a connection's bookkeeping when it finishes — by returning
/// *or by unwinding*: the active counter is decremented and the cancel
/// token deregistered even when session code panics mid-request, so a
/// panicking connection cannot leak capacity.
struct ConnCleanup<'a> {
    shared: &'a Shared,
    conn_id: Option<u64>,
}

impl Drop for ConnCleanup<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.conn_id {
            self.shared
                .active
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .retain(|(i, _)| *i != id);
        }
        self.shared.stats.connection_closed();
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    NetStats::add(&shared.stats.connections_accepted, 1);
    NetStats::add(&shared.stats.connections_active, 1);
    let mut cleanup = ConnCleanup {
        shared,
        conn_id: None,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));

    let session = Session::new();
    if let Some(threads) = shared.config.threads {
        session.set_threads(threads);
    }
    session.set_budget(shared.config.budget);
    if let Some(storage) = &shared.storage {
        session.attach_storage_client(Arc::clone(storage));
        // Register every on-disk relation so all sessions see the same
        // persistent database without per-client declarations.
        for name in PersistentRelation::list(storage) {
            if let Ok(Some(arity)) = PersistentRelation::stored_arity(storage, &name) {
                let _ = session.create_persistent(&name, arity);
            }
        }
    }

    let conn_id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    shared
        .active
        .lock()
        .unwrap()
        .push((conn_id, session.cancel_token()));
    cleanup.conn_id = Some(conn_id);

    let mut conn = Conn {
        shared,
        stream,
        session,
        open: None,
    };
    conn.run();
}

struct Conn<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    session: Session,
    /// The connection's open query, if any; answers are pulled from it
    /// batch by batch so pipelined evaluation stays lazy end to end.
    open: Option<Answers>,
}

enum ReadOutcome {
    Data,
    Closed,
}

/// `read_exact` against a socket with a short read timeout: partial
/// reads are preserved across timeouts (a plain `read_exact` would
/// lose them), and the shutdown flag is polled between attempts.
fn read_exact_poll(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
) -> NetResult<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.shutting_down() {
            return Ok(ReadOutcome::Closed);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(NetError::Protocol("connection closed mid-frame".into()));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Data)
}

fn read_request_frame(stream: &mut TcpStream, shared: &Shared) -> NetResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if let ReadOutcome::Closed = read_exact_poll(stream, &mut len_buf, shared)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf);
    let max = shared.config.max_frame;
    if len > max {
        return Err(NetError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_poll(stream, &mut payload, shared)? {
        ReadOutcome::Closed => Ok(None),
        ReadOutcome::Data => Ok(Some(payload)),
    }
}

fn eval_error_response(e: &EvalError) -> Response {
    Response::Error {
        code: ErrorCode::of(e) as u16,
        msg: e.to_string(),
    }
}

fn net_error_response(code: ErrorCode, msg: impl Into<String>) -> Response {
    Response::Error {
        code: code as u16,
        msg: msg.into(),
    }
}

impl Conn<'_> {
    fn run(&mut self) {
        loop {
            let payload = match read_request_frame(&mut self.stream, self.shared) {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(NetError::FrameTooLarge { len, max }) => {
                    // The payload was never read, so the stream cannot
                    // be resynchronised: report and drop the connection.
                    NetStats::add(&self.shared.stats.errors, 1);
                    let _ = self.write_response(&net_error_response(
                        ErrorCode::FrameTooLarge,
                        format!("frame of {len} bytes exceeds the {max}-byte limit"),
                    ));
                    return;
                }
                Err(_) => return,
            };
            NetStats::add(&self.shared.stats.requests, 1);
            NetStats::add(&self.shared.stats.bytes_in, payload.len() as u64);
            let (resp, close) = match Request::decode(&payload) {
                Ok(req) => self.dispatch(req),
                Err(e) => (net_error_response(ErrorCode::Protocol, e.to_string()), true),
            };
            if matches!(resp, Response::Error { .. }) {
                NetStats::add(&self.shared.stats.errors, 1);
            }
            if self.write_response(&resp).is_err() {
                return;
            }
            if close {
                return;
            }
        }
    }

    fn write_response(&mut self, resp: &Response) -> NetResult<()> {
        let payload = match resp.encode() {
            Ok(p) => p,
            // An answer term the wire format cannot carry (e.g. an
            // internal ADT value): degrade to an error frame.
            Err(e) => net_error_response(ErrorCode::Protocol, e.to_string())
                .encode()
                .expect("error frames always encode"),
        };
        NetStats::add(&self.shared.stats.bytes_out, payload.len() as u64);
        proto::write_frame(&mut self.stream, &payload)
    }

    /// Run engine work under the configured request timeout. The
    /// cancel flag is cleared first so a previous cancellation cannot
    /// leak into this request. (The session's budget is armed by
    /// `Engine::query` itself, per top-level query: NextAnswer pulls
    /// keep charging the arm of the query they drain.)
    fn timed<T>(&self, f: impl FnOnce(&Session) -> Result<T, EvalError>) -> Result<T, EvalError> {
        self.session.engine().clear_cancel();
        let _guard = self.shared.timeout_guard(self.session.cancel_token());
        f(&self.session)
    }

    /// The response for a lost transaction conflict: retry after the
    /// same suggested backoff overload shedding uses. The client's
    /// existing `Retry` handling (exponential backoff + jitter, then
    /// replay) covers both cases.
    fn txn_retry(&self) -> Response {
        NetStats::add(&self.shared.stats.txn_conflicts, 1);
        Response::Retry {
            after_ms: self.shared.config.shed_backoff_ms,
        }
    }

    /// Map an engine error to a response, counting governor kills.
    fn eval_error(&self, e: &EvalError) -> Response {
        if matches!(e, EvalError::BudgetExceeded { .. }) {
            NetStats::add(&self.shared.stats.budget_killed, 1);
        }
        eval_error_response(e)
    }

    fn dispatch(&mut self, req: Request) -> (Response, bool) {
        if self.shared.shutting_down() {
            return (
                net_error_response(ErrorCode::Shutdown, "server is shutting down"),
                true,
            );
        }
        match req {
            Request::Ping => (Response::Pong, false),
            Request::Quit => (Response::Ok, true),
            Request::CancelQuery => {
                // Idempotent so clients can cancel defensively.
                self.open = None;
                (Response::Ok, false)
            }
            Request::SetProfiling(on) => {
                self.session.set_profiling(on);
                (Response::Ok, false)
            }
            Request::GetProfile => (
                Response::Profile(self.session.last_profile().map(|p| p.to_json())),
                false,
            ),
            Request::Checkpoint => match self.session.checkpoint() {
                Ok(()) => (Response::Ok, false),
                Err(e) => (eval_error_response(&e), false),
            },
            Request::Check => match self.session.check_storage() {
                Ok(text) => (Response::Report(text), false),
                Err(e) => (eval_error_response(&e), false),
            },
            Request::Consult(src) => {
                let Some(_permit) = self.shared.admit() else {
                    return (self.shared.shed(), false);
                };
                self.open = None;
                #[cfg(test)]
                if src == tests::PANIC_PROBE {
                    panic!("test-injected connection panic");
                }
                // Bracket the (potentially mutating) consult in a storage
                // transaction. Concurrent sessions writing the same
                // relation conflict retryably instead of corrupting
                // shared structures mid-interleaving; the loser's partial
                // writes are rolled back and the client replays the whole
                // consult after backoff (`Response::Retry`). Storage-less
                // sessions get `None` and run unbracketed.
                let txn = match self.session.begin_request_txn() {
                    Ok(t) => t,
                    Err(e) => return (self.eval_error(&e), false),
                };
                let result = self.timed(|s| s.consult_str(&src));
                match (txn, result) {
                    (None, Ok(queries)) => (Response::ConsultOk(queries), false),
                    (None, Err(e)) => (self.eval_error(&e), false),
                    (Some(id), Ok(queries)) => match self.session.end_request_txn(id, true) {
                        Ok(()) => (Response::ConsultOk(queries), false),
                        Err(e) if Session::is_txn_conflict(&e) => (self.txn_retry(), false),
                        Err(e) => (self.eval_error(&e), false),
                    },
                    (Some(id), Err(e)) => {
                        // Abort: the rollback must happen even when the
                        // error is not a conflict, or the transaction's
                        // page locks would outlive the request.
                        let aborted = self.session.end_request_txn(id, false);
                        if Session::is_txn_conflict(&e) {
                            (self.txn_retry(), false)
                        } else if let Err(ae) = aborted {
                            (self.eval_error(&ae), false)
                        } else {
                            (self.eval_error(&e), false)
                        }
                    }
                }
            }
            Request::Query(src) => {
                let Some(_permit) = self.shared.admit() else {
                    return (self.shared.shed(), false);
                };
                self.open = None;
                match self.timed(|s| s.query(&src)) {
                    Ok(answers) => {
                        self.open = Some(answers);
                        (Response::Ok, false)
                    }
                    Err(e) => (self.eval_error(&e), false),
                }
            }
            Request::NextAnswer(k) => {
                let Some(_permit) = self.shared.admit() else {
                    return (self.shared.shed(), false);
                };
                let Some(mut answers) = self.open.take() else {
                    return (
                        net_error_response(ErrorCode::NoOpenQuery, "no open query"),
                        false,
                    );
                };
                let k = k.max(1) as usize;
                let mut batch = Vec::new();
                let mut done = false;
                let pulled = self.timed(|_| {
                    for _ in 0..k {
                        match answers.next_answer()? {
                            Some(a) => batch.push(a),
                            None => {
                                done = true;
                                break;
                            }
                        }
                    }
                    Ok(())
                });
                match pulled {
                    Ok(()) => {
                        if !done {
                            self.open = Some(answers);
                        }
                        (
                            Response::Batch {
                                answers: batch,
                                done,
                                truncated: None,
                            },
                            false,
                        )
                    }
                    // The governor cut the stream: the answers pulled
                    // so far are valid, so deliver them with an
                    // explicit truncation marker instead of dropping
                    // them on the floor. The query is closed.
                    Err(e @ EvalError::BudgetExceeded { .. }) => {
                        NetStats::add(&self.shared.stats.budget_killed, 1);
                        (
                            Response::Batch {
                                answers: batch,
                                done: true,
                                truncated: Some(e.to_string()),
                            },
                            false,
                        )
                    }
                    // The scan's state is undefined after an error
                    // (including a timeout cancellation): close it.
                    Err(e) => (eval_error_response(&e), false),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// A magic consult source that makes `dispatch` panic, simulating a
    /// bug in session/engine code. Test builds only.
    pub(super) const PANIC_PROBE: &str = "__coral_net_test_panic__";

    /// A panicking request must cost one connection, not a worker: with
    /// a single-worker pool the server keeps serving fresh connections
    /// afterwards, and the active-connection bookkeeping returns to
    /// zero instead of leaking.
    #[test]
    fn panicking_connection_does_not_kill_worker() {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        for _ in 0..3 {
            let mut victim = Client::connect(addr).unwrap();
            // The injected panic tears the connection down mid-request
            // (the client sees EOF instead of a response)…
            assert!(victim.consult_str(PANIC_PROBE).is_err());
            // …but the worker survives to serve the next connection.
            let mut fresh = Client::connect(addr).unwrap();
            fresh.ping().unwrap();
            fresh.quit().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.connections_active, 0, "leaked active count: {stats}");
        assert!(stats.errors >= 3, "{stats}");
    }

    /// Guard registration and drop are O(1) hash operations: 10k
    /// concurrent guards register and drop without quadratic
    /// behavior (the old `Vec` + retain-scan made each drop linear in
    /// the table size). The time bound is a loose tripwire — a
    /// quadratic table would blow far past it in debug builds.
    #[test]
    fn watch_table_scales_to_10k_guards() {
        let table = WatchTable::new();
        let session = Session::new();
        let token = session.cancel_token();
        let far = Instant::now() + Duration::from_secs(3600);
        let start = Instant::now();
        let guards: Vec<TimeoutGuard<'_>> = (0..10_000u64)
            .map(|id| {
                table.insert(id, far, token.clone());
                TimeoutGuard { watch: &table, id }
            })
            .collect();
        assert_eq!(table.len(), 10_000);
        drop(guards);
        assert_eq!(table.len(), 0);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "10k guard register/drop took {:?}",
            start.elapsed()
        );
    }

    /// The watchdog's expiry sweep cancels exactly the overdue entries
    /// and leaves the rest registered.
    #[test]
    fn watch_table_expires_only_overdue_entries() {
        let table = WatchTable::new();
        let overdue = Session::new().cancel_token();
        let healthy = Session::new().cancel_token();
        let now = Instant::now();
        table.insert(1, now - Duration::from_millis(1), overdue.clone());
        table.insert(2, now + Duration::from_secs(3600), healthy.clone());
        assert_eq!(table.cancel_expired(now), 1);
        assert_eq!(table.len(), 1);
        assert!(overdue.is_cancelled());
        assert!(!healthy.is_cancelled());
        table.remove(2);
        assert_eq!(table.len(), 0);
    }
}
