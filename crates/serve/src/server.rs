//! The resident daemon: admission control, dedupe, fault isolation,
//! and the serve loop.
//!
//! Request lifecycle:
//!
//! 1. **Validate** — bad JSON, unknown targets, or bad field values
//!    produce a structured `error` response; nothing is dispatched.
//! 2. **Result store** — a sealed, checksum-verified entry for the
//!    request's `(target, scale, sweep)` key answers immediately
//!    (`source: "store"`), including right after a crash-restart.
//! 3. **Coalesce** — an identical request already in flight joins that
//!    computation's [`JobHandle`] instead of submitting a duplicate;
//!    every coalesced client receives the *same* response object, so
//!    the reply bytes are identical by construction.
//! 4. **Admit** — otherwise the job enters the dispatcher: at most
//!    `--max-inflight` run concurrently (each one's inner job matrix
//!    still parallelizes under the engine's own `--jobs` pool and the
//!    shared memory governor), FIFO within priority beyond that, and a
//!    `busy` response past the queue bound.
//! 5. **Isolate** — a panicking or invariant-violating render resolves
//!    only its own handle; the worker, its siblings, and the daemon
//!    survive, and the client gets a structured error naming the
//!    auditor's cell when there is one.
//! 6. **Drain** — SIGTERM (or [`Server::drain`]) stops admission;
//!    queued jobs cancel, running jobs checkpoint through the engine's
//!    cooperative drain, new requests get `draining`.

use crate::net::{Listener, Stream};
use crate::store::ResultStore;
use membw_core::audit::{self, AuditLevel};
use membw_core::runner::counters::{self, Counter};
use membw_core::runner::persist;
use membw_core::runner::{self, CancelToken, Dispatcher, JobHandle, JobOutcome, SubmitError};
use membw_core::service::{error_kind, source, ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon tuning knobs (all have CLI flags on `repro serve`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests rendering concurrently (dispatcher workers).
    pub max_inflight: usize,
    /// Requests allowed to wait past that before `busy`.
    pub queue_bound: usize,
    /// Concurrent client connections before `busy`-and-close.
    pub conn_limit: usize,
    /// Per-read and incomplete-frame deadline (slow-loris bound).
    pub read_timeout: Duration,
    /// Longest accepted request line in bytes.
    pub max_frame: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_inflight: 2,
            queue_bound: 16,
            conn_limit: 64,
            read_timeout: Duration::from_secs(10),
            max_frame: 64 * 1024,
        }
    }
}

type Dedupe = Mutex<HashMap<String, JobHandle<ServiceResponse>>>;

/// Removes this computation's dedupe entry however the job ends —
/// normal return, error, or panic unwind. Without the unwind arm, a
/// panicked render would pin its stale handle in the map and every
/// later identical request would replay the old panic forever.
struct DedupeGuard {
    map: Arc<Dedupe>,
    key: String,
}

impl Drop for DedupeGuard {
    fn drop(&mut self) {
        self.map.lock().expect("dedupe map").remove(&self.key);
    }
}

/// See the [module docs](self).
pub struct Server {
    config: ServeConfig,
    dispatcher: Dispatcher<ServiceResponse>,
    store: Arc<ResultStore>,
    dedupe: Arc<Dedupe>,
    draining: AtomicBool,
    connections: Arc<AtomicUsize>,
}

impl Server {
    /// A server dispatching into `store`. The constructing thread's
    /// ambient engine configuration (jobs, retries, checkpoint root,
    /// memory governor) is captured for every request — a request
    /// behaves exactly like a CLI run configured the same way.
    pub fn new(config: ServeConfig, store: ResultStore) -> Self {
        let dispatcher = Dispatcher::new(config.max_inflight.max(1), config.queue_bound.max(1));
        // A garbage generation env is survivable noise (the supervisor
        // always writes a number); count it as generation 0.
        let restarts = crate::supervisor::restarts_from_env().unwrap_or(0);
        counters::add(Counter::SupervisorRestarts, restarts);
        Server {
            config,
            dispatcher,
            store: Arc::new(store),
            dedupe: Arc::new(Mutex::new(HashMap::new())),
            draining: AtomicBool::new(false),
            connections: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Stop admission: queued jobs cancel (their waiters get a
    /// `cancelled` error), running jobs drain cooperatively through
    /// the engine (checkpointing completed inner jobs), new requests
    /// get `draining`.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.dispatcher.drain();
    }

    /// Block until in-flight work has retired (after [`Server::drain`]).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.dispatcher.wait_idle(timeout)
    }

    fn ok_response(
        req: &ServiceRequest,
        src: &str,
        jobs: u64,
        resumed: u64,
        stdout: String,
    ) -> ServiceResponse {
        ServiceResponse::Ok {
            target: req.target.clone(),
            scale: req.scale.clone(),
            sweep: req.sweep.clone(),
            source: src.to_string(),
            fnv64: format!("{:016x}", persist::fnv64(&stdout)),
            jobs,
            resumed,
            model: None,
            bound_rel_permille: None,
            stdout,
        }
    }

    fn error(kind: &str, message: impl Into<String>) -> ServiceResponse {
        ServiceResponse::Error {
            kind: kind.to_string(),
            message: message.into(),
            cell: None,
            retry_after_ms: None,
        }
    }

    /// The compute job for one admitted request. Runs on a dispatcher
    /// worker under the request's audit level; persists a successful
    /// render to the store before anyone is answered, so a crash after
    /// the reply can never lose an answered result.
    fn make_job(
        &self,
        req: &ServiceRequest,
        key: String,
    ) -> impl FnOnce() -> ServiceResponse + Send + 'static {
        let store = Arc::clone(&self.store);
        let dedupe = Arc::clone(&self.dedupe);
        let req = req.clone();
        move || {
            let _cleanup = DedupeGuard {
                map: dedupe,
                key: key.clone(),
            };
            // All three parses were validated before admission.
            let scale = targets::parse_scale(&req.scale).expect("scale validated");
            let sweep = SweepMode::parse(&req.sweep).expect("sweep validated");
            let level: AuditLevel = req.audit.parse().expect("audit validated");
            // This render's own batches only: other renders may be
            // running on the dispatcher's other workers meanwhile.
            let (result, jobs, resumed) = runner::count_own_jobs(|| {
                audit::with_level(level, || targets::render_target(&req.target, scale, sweep))
            });
            match result {
                Ok(rendered) => {
                    counters::add(Counter::Simulated, 1);
                    if let Err((step, path, e)) = store.save(&key, &rendered.stdout) {
                        // The client still gets its answer; only the
                        // warm-restart cache misses out.
                        counters::add(Counter::SaveFailures, 1);
                        eprintln!(
                            "serve: warning: cannot {step} {}: {e} (result served, not persisted)",
                            path.display()
                        );
                    }
                    Self::ok_response(&req, source::COMPUTED, jobs, resumed, rendered.stdout)
                }
                Err(e) => ServiceResponse::from_error(&e),
            }
        }
    }

    /// Serve one request to completion (or deadline). This is the
    /// whole protocol semantics in one function; connection handling
    /// is just framing around it.
    pub fn handle_request(&self, req: &ServiceRequest) -> ServiceResponse {
        // `stats` is answered from counters, never dispatched.
        if req.target == STATS_TARGET {
            return ServiceResponse::Stats(counters::snapshot());
        }
        if let Err(msg) = req.validate() {
            let kind = if targets::renderable(&req.target) {
                error_kind::BAD_REQUEST
            } else {
                error_kind::UNKNOWN_TARGET
            };
            return Self::error(kind, msg);
        }
        if self.draining.load(Ordering::SeqCst) {
            counters::add(Counter::Rejected, 1);
            return ServiceResponse::Draining;
        }
        let key = req.coalesce_key();
        if let Some(stdout) = self.store.load(&key) {
            counters::add(Counter::Store, 1);
            return Self::ok_response(req, source::STORE, 0, 0, stdout);
        }
        let handle = {
            // Hold the dedupe lock across the submit so two identical
            // requests can never both miss the map and double-compute.
            let mut map = self.dedupe.lock().expect("dedupe map");
            match map.get(&key) {
                Some(h) => {
                    counters::add(Counter::Coalesced, 1);
                    h.clone()
                }
                None => match self
                    .dispatcher
                    .submit(req.priority, self.make_job(req, key.clone()))
                {
                    Ok(h) => {
                        map.insert(key, h.clone());
                        h
                    }
                    Err(SubmitError::QueueFull { bound }) => {
                        counters::add(Counter::Rejected, 1);
                        return ServiceResponse::Busy {
                            queued: self.dispatcher.queued() as u64,
                            bound: bound as u64,
                        };
                    }
                    Err(SubmitError::Draining) => {
                        counters::add(Counter::Rejected, 1);
                        return ServiceResponse::Draining;
                    }
                },
            }
        };
        let outcome = if req.deadline_ms == 0 {
            handle.wait()
        } else {
            match handle.wait_timeout(Duration::from_millis(req.deadline_ms)) {
                Some(o) => o,
                None => {
                    // Only the reply gives up; the computation keeps
                    // running and lands in the store for a retry.
                    return Self::error(
                        error_kind::DEADLINE,
                        format!(
                            "no result within deadline_ms={} (the computation continues; retry to hit the store)",
                            req.deadline_ms
                        ),
                    );
                }
            }
        };
        match outcome {
            JobOutcome::Completed(resp) => (*resp).clone(),
            JobOutcome::Panicked(msg) => Self::error(
                error_kind::PANIC,
                format!("render job panicked (the daemon is unaffected): {msg}"),
            ),
            JobOutcome::Cancelled(reason) => Self::error(
                error_kind::CANCELLED,
                format!("render job cancelled ({reason}); completed inner jobs are checkpointed"),
            ),
        }
    }

    /// Serve one connection: newline-framed requests in, one response
    /// line each, until EOF, an unparseable-frame bound, or a
    /// slow-loris timeout.
    ///
    /// Failure classification matters here: a client that vanishes
    /// mid-reply has *not* failed the job — the render completed, the
    /// result is in the store, and coalesced waiters each hold their
    /// own handle clone — so a write failure only bumps `reply_aborted`
    /// and ends this connection. The dedupe entry is owned by the job's
    /// [`DedupeGuard`], never by the connection, so a dying client
    /// cannot poison it for other waiters.
    fn handle_connection(&self, mut stream: Stream) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut frame_started: Option<Instant> = None;
        loop {
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                frame_started = None;
                let line = String::from_utf8_lossy(&line[..pos]).into_owned();
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let resp = match serde_json::from_str::<ServiceRequest>(line) {
                    Ok(req) => self.handle_request(&req),
                    Err(e) => {
                        counters::add(Counter::MalformedRejected, 1);
                        Self::error(error_kind::BAD_REQUEST, format!("unparseable request: {e}"))
                    }
                };
                if write_response(&mut stream, &resp).is_err() {
                    // Client went away mid-reply. The job is NOT failed:
                    // the result is persisted/coalesced independently of
                    // this connection; only the delivery was lost.
                    counters::add(Counter::ReplyAborted, 1);
                    return;
                }
            }
            if buf.len() > self.config.max_frame {
                counters::add(Counter::OversizeRejected, 1);
                let resp = Self::error(
                    error_kind::FRAME_TOO_LONG,
                    format!("request line exceeds {} bytes", self.config.max_frame),
                );
                let _ = write_response(&mut stream, &resp);
                return;
            }
            // Slow-loris bound: a frame must complete within the read
            // timeout of its first byte, however slowly bytes drip in.
            if let Some(t0) = frame_started {
                if t0.elapsed() > self.config.read_timeout {
                    counters::add(Counter::NetTimeouts, 1);
                    return;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => return, // EOF (a torn frame dies silently: nobody is listening)
                Ok(n) => {
                    if frame_started.is_none() {
                        frame_started = Some(Instant::now());
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Idle past the read timeout — only a half-sent
                    // frame counts as a wire timeout; a client holding
                    // an idle keepalive connection open is normal.
                    if frame_started.is_some() || !buf.is_empty() {
                        counters::add(Counter::NetTimeouts, 1);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// One admitted connection's slot in the `conn_limit` budget, released
/// by `Drop` — so *every* way a connection ends (EOF, oversized frame,
/// read timeout, write failure, injected wire fault, handler panic
/// unwinding the connection thread) gives the slot back. The previous
/// explicit `fetch_sub` after `handle_connection` leaked the slot on
/// any panicking path, wedging admission at `conn_limit` forever.
struct ConnSlot {
    active: Arc<AtomicUsize>,
}

impl ConnSlot {
    /// Try to take a slot; `None` when the daemon is at `conn_limit`.
    fn acquire(active: &Arc<AtomicUsize>, limit: usize) -> Option<ConnSlot> {
        if active.fetch_add(1, Ordering::SeqCst) >= limit {
            active.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(ConnSlot {
            active: Arc::clone(active),
        })
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn write_response(stream: &mut Stream, resp: &ServiceResponse) -> std::io::Result<()> {
    let mut line = serde_json::to_string(resp)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Run the accept loop until `cancel` fires, then drain: stop
/// admission, cancel queued and in-flight jobs (their completed inner
/// work is checkpointed), and wait for the pool to go idle. The caller
/// unlinks the Unix socket file afterwards. Returns the number of
/// connections served.
///
/// # Errors
///
/// Only setup errors (making the listener non-blocking); accept errors
/// are logged and survived — a misbehaving client must never stop the
/// daemon.
pub fn serve(
    server: &Arc<Server>,
    listener: Listener,
    cancel: &CancelToken,
) -> std::io::Result<u64> {
    listener.set_nonblocking(true)?;
    let mut served: u64 = 0;
    // A store hit is answered in tens of microseconds, so accept
    // latency dominates its round trip: a coarse idle sleep would put
    // a ~25 ms floor under every warm answer. Poll eagerly while
    // traffic is flowing (request trains, benchmark loops, bursts),
    // and only doze once the socket has stayed quiet.
    let mut last_activity = std::time::Instant::now();
    while !cancel.is_cancelled() {
        match listener.accept() {
            Ok(stream) => {
                last_activity = std::time::Instant::now();
                served += 1;
                let Some(slot) = ConnSlot::acquire(&server.connections, server.config.conn_limit)
                else {
                    counters::add(Counter::Rejected, 1);
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        &ServiceResponse::Busy {
                            queued: server.connections.load(Ordering::SeqCst) as u64,
                            bound: server.config.conn_limit as u64,
                        },
                    );
                    continue;
                };
                let srv = Arc::clone(server);
                std::thread::spawn(move || {
                    // The slot rides into the thread and is released by
                    // Drop on every exit path, unwinds included.
                    let _slot = slot;
                    srv.handle_connection(stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if last_activity.elapsed() < Duration::from_millis(2) {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("serve: accept error (continuing): {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    server.drain();
    if !server.wait_idle(Duration::from_secs(30)) {
        eprintln!("serve: drain timed out with jobs still running");
    }
    Ok(served)
}
