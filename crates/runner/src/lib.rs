//! Deterministic, fault-tolerant parallel execution of the experiment
//! job matrix.
//!
//! Every experiment in this reproduction — the three-run `f_P/f_L/f_B`
//! decomposition (§3), the Table 7/8 traffic sweeps, the Table 9/10
//! factor studies, the Figure 4 curves — expands into a matrix of
//! *independent* jobs: (experiment × workload × run). This crate fans
//! that matrix out over a fixed-width pool of OS threads and merges the
//! results **in canonical index order**, so the assembled tables, plots
//! and JSON are byte-identical whatever the thread count.
//!
//! # Determinism contract
//!
//! [`Runner::run`] returns `out[i] == f(i)` for every `i`, with results
//! placed by job index, never by completion order. Each job must be a
//! pure function of its index (all the membw jobs regenerate their
//! traces from the workload's fixed seed, so they are). Under that
//! contract `--jobs 1` and `--jobs N` are indistinguishable from the
//! output side; the tier-1 determinism test asserts it end-to-end.
//!
//! # Fault tolerance
//!
//! [`Runner::try_run`] adds per-job isolation on top of the same
//! contract: a panicking job becomes an `Err(`[`JobFailure`]`)` in its
//! slot instead of killing the pool, an overrunning job is marked
//! failed once it exceeds the configured deadline ([`set_job_timeout`] /
//! `--job-timeout`), and failed attempts are retried up to the
//! configured budget ([`set_retries`] / `--retries`) — deterministically,
//! because a retry re-evaluates the same pure `f(i)`. Healthy siblings
//! always complete and merge in index order, so a faulted campaign's
//! surviving output is byte-identical to the fault-free run.
//!
//! [`Runner::checkpointed`] additionally persists each completed job
//! result under the configured checkpoint root ([`set_checkpoint`] /
//! `--resume`), so an interrupted campaign resumes from completed work
//! instead of recomputing it — see [`checkpoint`](CheckpointConfig).
//!
//! # Choosing the pool width
//!
//! Priority order: [`with_jobs`] (thread-local override, used by tests),
//! then [`set_jobs`] (process-wide, set by `repro --jobs N`), then the
//! `MEMBW_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use membw_runner::Runner;
//!
//! let squares = Runner::new(4).run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Fault isolation: job 2 panics, siblings still deliver.
//! let out = Runner::new(4).try_run("demo", 4, |i| {
//!     assert!(i != 2, "boom");
//!     i * 10
//! });
//! assert_eq!(out[0].as_ref().copied(), Ok(0));
//! assert!(out[2].is_err());
//! assert_eq!(out[3].as_ref().copied(), Ok(30));
//! ```

mod cancel;
mod checkpoint;
mod failure;
pub mod fault;
pub mod faultio;
mod governor;
mod handle;
pub mod persist;

pub use cancel::{
    ambient_cancel_token, global_cancel_token, install_signal_drain, with_cancel_token,
    CancelReason, CancelToken, CancelUnwind,
};
pub use checkpoint::{quarantined_artifacts, CheckpointConfig};
pub use failure::{JobError, JobFailure};
pub use fault::validate_env as validate_fault_env;
pub use governor::{
    ambient_governor, global_governor, parse_mem_budget_mb, set_mem_budget, with_governor,
    AdmissionGuard, Governor, GovernorStats, MEM_BUDGET_MB_ENV,
};
pub use handle::{Dispatcher, JobHandle, JobOutcome, SubmitError};

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Process-wide override set by `--jobs N` (0 = unset).
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);
/// Process-wide retry budget set by `--retries N`.
static GLOBAL_RETRIES: AtomicUsize = AtomicUsize::new(0);
/// Process-wide per-job deadline in milliseconds set by
/// `--job-timeout SECS` (0 = no deadline).
static GLOBAL_TIMEOUT_MS: AtomicU64 = AtomicU64::new(0);
/// Process-wide checkpoint configuration set by `repro`.
static GLOBAL_CHECKPOINT: Mutex<Option<CheckpointConfig>> = Mutex::new(None);

thread_local! {
    /// Thread-local override installed by [`with_jobs`] (0 = unset).
    static TL_JOBS: Cell<usize> = const { Cell::new(0) };
    /// Thread-local override installed by [`with_retries`].
    static TL_RETRIES: Cell<Option<u32>> = const { Cell::new(None) };
    /// Thread-local override installed by [`with_job_timeout`]
    /// (`Some(None)` forces "no deadline" regardless of the global).
    static TL_TIMEOUT: Cell<Option<Option<Duration>>> = const { Cell::new(None) };
    /// Thread-local override installed by [`with_checkpoint`].
    static TL_CHECKPOINT: RefCell<Option<Option<CheckpointConfig>>> =
        const { RefCell::new(None) };
}

/// Environment variable naming the default pool width (same meaning as
/// `repro --jobs N`).
pub const JOBS_ENV: &str = "MEMBW_JOBS";

/// Strictly parse a [`JOBS_ENV`] / `--jobs` value: a positive integer
/// thread count.
///
/// # Errors
///
/// Anything else is an error naming the variable and the bad value —
/// drivers (`repro`) validate the environment up front with this and
/// refuse to start, rather than silently running with a parallelism
/// the user didn't ask for.
pub fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid {JOBS_ENV} value {raw:?}: expected a positive integer thread count"
        )),
    }
}

/// Set the process-wide job count (e.g. from a `--jobs N` flag).
///
/// Values are clamped to at least 1.
pub fn set_jobs(n: usize) {
    GLOBAL_JOBS.store(n.max(1), Ordering::SeqCst);
}

/// Run `f` with the job count forced to `n` on this thread (and the
/// runners it creates). Restores the previous override afterwards, so
/// tests can compare `--jobs 1` and `--jobs 8` runs side by side
/// without touching process state.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = TL_JOBS.with(|c| c.replace(n.max(1)));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_JOBS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The effective job count for a runner created on this thread.
pub fn configured_jobs() -> usize {
    let tl = TL_JOBS.with(Cell::get);
    if tl > 0 {
        return tl;
    }
    let global = GLOBAL_JOBS.load(Ordering::SeqCst);
    if global > 0 {
        return global;
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        match parse_jobs(&v) {
            Ok(n) => return n,
            // Library-level fallback for embedders that skipped up-front
            // validation; `repro` rejects the value before this runs.
            Err(e) => eprintln!("warning: {e}; using the detected parallelism"),
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Set the process-wide per-job retry budget (`--retries N`): a failed
/// job is re-attempted up to `n` more times before it is reported.
pub fn set_retries(n: u32) {
    GLOBAL_RETRIES.store(n as usize, Ordering::SeqCst);
}

/// Run `f` with the retry budget forced to `n` on this thread.
pub fn with_retries<R>(n: u32, f: impl FnOnce() -> R) -> R {
    let prev = TL_RETRIES.with(|c| c.replace(Some(n)));
    struct Restore(Option<u32>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_RETRIES.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The effective retry budget for a runner created on this thread.
pub fn configured_retries() -> u32 {
    TL_RETRIES
        .with(Cell::get)
        .unwrap_or_else(|| GLOBAL_RETRIES.load(Ordering::SeqCst) as u32)
}

/// Set the process-wide per-job deadline (`--job-timeout SECS`);
/// `None` disables the watchdog.
pub fn set_job_timeout(timeout: Option<Duration>) {
    let ms = timeout.map_or(0, |d| d.as_millis().max(1) as u64);
    GLOBAL_TIMEOUT_MS.store(ms, Ordering::SeqCst);
}

/// Run `f` with the per-job deadline forced to `timeout` on this thread.
pub fn with_job_timeout<R>(timeout: Option<Duration>, f: impl FnOnce() -> R) -> R {
    let prev = TL_TIMEOUT.with(|c| c.replace(Some(timeout)));
    struct Restore(Option<Option<Duration>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_TIMEOUT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The effective per-job deadline for a runner created on this thread.
pub fn configured_job_timeout() -> Option<Duration> {
    if let Some(tl) = TL_TIMEOUT.with(Cell::get) {
        return tl;
    }
    match GLOBAL_TIMEOUT_MS.load(Ordering::SeqCst) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Set the process-wide checkpoint configuration (`repro` points this
/// at `results/.checkpoint`); `None` disables checkpointing — the
/// library default, so embedding tests never touch the filesystem.
pub fn set_checkpoint(cfg: Option<CheckpointConfig>) {
    *GLOBAL_CHECKPOINT.lock().expect("checkpoint config") = cfg;
}

/// Run `f` with the checkpoint configuration forced to `cfg` on this
/// thread (tests use a temp dir without touching process state).
pub fn with_checkpoint<R>(cfg: Option<CheckpointConfig>, f: impl FnOnce() -> R) -> R {
    let prev = TL_CHECKPOINT.with(|c| c.replace(Some(cfg)));
    struct Restore(Option<Option<CheckpointConfig>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_CHECKPOINT.with(|c| {
                *c.borrow_mut() = self.0.take();
            });
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The effective checkpoint configuration on this thread.
pub fn configured_checkpoint() -> Option<CheckpointConfig> {
    if let Some(tl) = TL_CHECKPOINT.with(|c| c.borrow().clone()) {
        return tl;
    }
    GLOBAL_CHECKPOINT.lock().expect("checkpoint config").clone()
}

/// Aggregate accounting of the jobs a process has executed, for the
/// report layer (wall-clock summaries stay on stderr so stdout remains
/// byte-identical across thread counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Job batches dispatched ([`Runner::run`] calls that ran anything).
    pub batches: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Summed per-job wall time in nanoseconds (CPU-side cost; exceeds
    /// real wall time when jobs overlap).
    pub busy_nanos: u64,
    /// Job attempts re-run under the retry policy.
    pub retries: u64,
    /// Jobs that ultimately failed (after all attempts).
    pub failures: u64,
    /// Jobs satisfied from a checkpoint instead of executing.
    pub resumed: u64,
    /// Jobs cancelled by an interrupt drain or deadline (not counted
    /// as failures: their work is simply deferred to a `--resume` run).
    pub cancelled: u64,
}

impl Metrics {
    /// Summed per-job wall time.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos)
    }
}

static METRIC_BATCHES: AtomicU64 = AtomicU64::new(0);
static METRIC_JOBS: AtomicU64 = AtomicU64::new(0);
static METRIC_BUSY_NANOS: AtomicU64 = AtomicU64::new(0);
static METRIC_RETRIES: AtomicU64 = AtomicU64::new(0);
static METRIC_FAILURES: AtomicU64 = AtomicU64::new(0);
static METRIC_RESUMED: AtomicU64 = AtomicU64::new(0);
static METRIC_CANCELLED: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide job metrics.
pub fn metrics() -> Metrics {
    Metrics {
        batches: METRIC_BATCHES.load(Ordering::Relaxed),
        jobs: METRIC_JOBS.load(Ordering::Relaxed),
        busy_nanos: METRIC_BUSY_NANOS.load(Ordering::Relaxed),
        retries: METRIC_RETRIES.load(Ordering::Relaxed),
        failures: METRIC_FAILURES.load(Ordering::Relaxed),
        resumed: METRIC_RESUMED.load(Ordering::Relaxed),
        cancelled: METRIC_CANCELLED.load(Ordering::Relaxed),
    }
}

/// Difference between two [`metrics`] snapshots (`later - earlier`),
/// the per-target accounting `repro` prints.
pub fn metrics_delta(earlier: Metrics, later: Metrics) -> Metrics {
    Metrics {
        batches: later.batches.saturating_sub(earlier.batches),
        jobs: later.jobs.saturating_sub(earlier.jobs),
        busy_nanos: later.busy_nanos.saturating_sub(earlier.busy_nanos),
        retries: later.retries.saturating_sub(earlier.retries),
        failures: later.failures.saturating_sub(earlier.failures),
        resumed: later.resumed.saturating_sub(earlier.resumed),
        cancelled: later.cancelled.saturating_sub(earlier.cancelled),
    }
}

/// A fixed-width deterministic job pool.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
    retries: u32,
    timeout: Option<Duration>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Runner {
    /// A runner with an explicit thread count (clamped to at least 1),
    /// no retries, and no job deadline.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            retries: 0,
            timeout: None,
        }
    }

    /// A runner honouring the thread-local / process-wide / environment
    /// configuration for thread count, retry budget, and job deadline.
    pub fn from_env() -> Self {
        Self {
            threads: configured_jobs().max(1),
            retries: configured_retries(),
            timeout: configured_job_timeout(),
        }
    }

    /// This runner with a per-job retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// This runner with a per-job deadline.
    pub fn timeout(mut self, d: Option<Duration>) -> Self {
        self.timeout = d;
        self
    }

    /// The pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute jobs `0..n` and return their results in index order.
    ///
    /// Work is distributed by an atomic cursor (self-balancing: a slow
    /// job never stalls the queue behind it), but results are merged by
    /// index, so the output is independent of scheduling. With one
    /// thread (or one job) everything runs inline on the caller's
    /// thread — that is the `--jobs 1` serial baseline.
    ///
    /// # Panics
    ///
    /// A panicking job aborts the batch: the scope joins its workers
    /// and re-panics on the caller's thread. Campaign code should use
    /// [`Runner::try_run`], which isolates the failure instead.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        METRIC_BATCHES.fetch_add(1, Ordering::Relaxed);
        METRIC_JOBS.fetch_add(n as u64, Ordering::Relaxed);
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n)
                .map(|i| {
                    let t0 = Instant::now();
                    let v = f(i);
                    METRIC_BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    v
                })
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let v = f(i);
                    METRIC_BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    *slots[i].lock().expect("job slot poisoned") = Some(v);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("job slot poisoned")
                    .expect("every job index was executed")
            })
            .collect()
    }

    /// Fault-isolated [`Runner::run`]: execute jobs `0..n` and return
    /// one `Result` per job, in index order.
    ///
    /// A job that panics (on every allowed attempt) or overruns the
    /// configured deadline yields `Err(`[`JobFailure`]`)` in its slot;
    /// sibling jobs are unaffected. `label` names the batch in failure
    /// reports and `MEMBW_FAULT` job directives.
    pub fn try_run<T, F>(&self, label: &str, n: usize, f: F) -> Vec<Result<T, JobFailure>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.exec(label, None::<&NoCkpt>, n, f)
    }

    /// [`Runner::try_run`] with matrix checkpointing: every completed
    /// job result is archived under the configured checkpoint root
    /// ([`set_checkpoint`] / [`with_checkpoint`]), and — when resuming —
    /// jobs whose results are already archived are replayed instead of
    /// recomputed.
    ///
    /// `key` must encode everything the batch's results depend on
    /// (target, scale, matrix shape); a changed key lands in a fresh
    /// directory. With no checkpoint configured this is exactly
    /// [`Runner::try_run`].
    pub fn checkpointed<T, F>(
        &self,
        label: &str,
        key: &str,
        n: usize,
        f: F,
    ) -> Vec<Result<T, JobFailure>>
    where
        T: Send + Serialize + Deserialize,
        F: Fn(usize) -> T + Sync,
    {
        let store =
            configured_checkpoint().and_then(|cfg| checkpoint::Store::open(&cfg, label, key, n));
        match store {
            Some(store) => self.exec(label, Some(&JsonCkpt { store }), n, f),
            None => self.exec(label, None::<&NoCkpt>, n, f),
        }
    }

    /// The fault-isolated execution engine behind [`Runner::try_run`]
    /// and [`Runner::checkpointed`].
    fn exec<T, F, C>(
        &self,
        label: &str,
        ckpt: Option<&C>,
        n: usize,
        f: F,
    ) -> Vec<Result<T, JobFailure>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: CkptIo<T> + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        METRIC_BATCHES.fetch_add(1, Ordering::Relaxed);
        let attempts_allowed = self.retries + 1;
        // Capture the ambient cancellation/governance context on the
        // *calling* thread (where `with_cancel_token`/`with_governor`
        // overrides live) and re-install it inside every worker and
        // watchdog thread below, so jobs always see the right one.
        let cancel = ambient_cancel_token();
        let gov = ambient_governor();

        // One attempt, panic-isolated; the caller decides about retries.
        // A cancellation unwind (the token's private payload) is kept
        // distinct from a genuine panic.
        let attempt_inline = |i: usize| -> Result<T, JobError> {
            METRIC_JOBS.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                fault::on_dispatch(label, i);
                f(i)
            }));
            METRIC_BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out.map_err(|p| match p.downcast_ref::<CancelUnwind>() {
                Some(cu) => JobError::Cancelled(cu.0),
                None => JobError::Panicked(failure::panic_message(p.as_ref())),
            })
        };

        // Full per-job lifecycle: cancellation, resume, admission,
        // attempts, checkpoint, retry accounting. `attempt` abstracts
        // over inline vs watchdog execution.
        let run_job = |i: usize, attempt: &dyn Fn(usize) -> Result<T, JobError>| {
            // Drain mode: once the run is cancelled, pending jobs fail
            // fast (attempts = 0 — they never started) so the batch
            // returns within a poll interval of the request.
            if let Some(reason) = cancel.cancel_reason() {
                METRIC_CANCELLED.fetch_add(1, Ordering::Relaxed);
                return Err(JobFailure {
                    index: i,
                    attempts: 0,
                    error: JobError::Cancelled(reason),
                });
            }
            if let Some(c) = ckpt {
                if let Some(v) = c.load(i) {
                    METRIC_RESUMED.fetch_add(1, Ordering::Relaxed);
                    return Ok(v);
                }
            }
            // Memory-governor gate: under the Throttled level this
            // serializes job admission (resumed jobs above skip it —
            // replaying a checkpoint costs no working set).
            let _slot = gov.admit(&cancel);
            let mut attempts = 0;
            loop {
                if attempts > 0 {
                    METRIC_RETRIES.fetch_add(1, Ordering::Relaxed);
                }
                attempts += 1;
                match attempt(i) {
                    Ok(v) => {
                        if let Some(c) = ckpt {
                            c.save(i, &v);
                        }
                        return Ok(v);
                    }
                    Err(e) => {
                        // Only panics consume the retry budget: a
                        // timed-out attempt already burned the full
                        // deadline once (re-running it is presumed
                        // doomed and would multiply the stall), and a
                        // cancelled attempt means the whole run is
                        // stopping. `attempts` reports what actually
                        // ran, not the theoretical budget.
                        let retryable = matches!(e, JobError::Panicked(_));
                        if !retryable || attempts >= attempts_allowed {
                            if matches!(e, JobError::Cancelled(_)) {
                                METRIC_CANCELLED.fetch_add(1, Ordering::Relaxed);
                            } else {
                                METRIC_FAILURES.fetch_add(1, Ordering::Relaxed);
                            }
                            return Err(JobFailure {
                                index: i,
                                attempts,
                                error: e,
                            });
                        }
                    }
                }
            }
        };

        let workers = self.threads.min(n);
        if workers <= 1 && self.timeout.is_none() {
            // Serial baseline: no threads at all (also keeps `--jobs 1`
            // runnable on targets where spawning is undesirable). The
            // caller's thread already carries the ambient context.
            return (0..n).map(|i| run_job(i, &attempt_inline)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let worker = || {
                // Workers are fresh threads: re-install the captured
                // ambient context so the jobs' own polls (sim loops,
                // trace recording) and cache lookups see it.
                let wc = cancel.clone();
                let wg = std::sync::Arc::clone(&gov);
                with_cancel_token(wc, || {
                    with_governor(wg, || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = match self.timeout {
                            None => run_job(i, &attempt_inline),
                            Some(deadline) => run_job(i, &|i| {
                                // Watchdog: run the attempt on its own
                                // scoped thread and stop waiting at the
                                // deadline. A timed-out attempt keeps
                                // running (std threads cannot be killed)
                                // but its result is dropped with the
                                // receiver; the scope joins it before
                                // the batch returns.
                                let (tx, rx) = mpsc::channel();
                                let ac = cancel.clone();
                                let ag = std::sync::Arc::clone(&gov);
                                scope.spawn(move || {
                                    let r = with_cancel_token(ac, || {
                                        with_governor(ag, || attempt_inline(i))
                                    });
                                    let _ = tx.send(r);
                                });
                                match rx.recv_timeout(deadline) {
                                    Ok(r) => r,
                                    Err(_) => Err(JobError::TimedOut(deadline)),
                                }
                            }),
                        };
                        *slots[i].lock().expect("job slot poisoned") = Some(result);
                    })
                })
            };
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("job slot poisoned")
                    .expect("every job index was executed")
            })
            .collect()
    }

    /// [`Runner::run`] over a slice: `out[i] == f(&items[i])`.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Expand the cross product `a × b` (a-major, the canonical matrix
    /// order) and run one job per pair, returning results in that
    /// order: `out[i * b.len() + j] == f(&a[i], &b[j])`.
    pub fn cross<A, B, T, F>(&self, a: &[A], b: &[B], f: F) -> Vec<T>
    where
        A: Sync,
        B: Sync,
        T: Send,
        F: Fn(&A, &B) -> T + Sync,
    {
        if b.is_empty() {
            return Vec::new();
        }
        self.run(a.len() * b.len(), |k| f(&a[k / b.len()], &b[k % b.len()]))
    }
}

/// Checkpoint I/O as seen by the execution engine.
trait CkptIo<T> {
    fn load(&self, i: usize) -> Option<T>;
    fn save(&self, i: usize, v: &T);
}

/// The "checkpointing disabled" codec (never instantiated).
enum NoCkpt {}

impl<T> CkptIo<T> for NoCkpt {
    fn load(&self, _: usize) -> Option<T> {
        match *self {}
    }
    fn save(&self, _: usize, _: &T) {
        match *self {}
    }
}

/// JSON checkpoint codec over a [`checkpoint::Store`].
struct JsonCkpt {
    store: checkpoint::Store,
}

impl<T: Serialize + Deserialize> CkptIo<T> for JsonCkpt {
    fn load(&self, i: usize) -> Option<T> {
        self.store.load(i)
    }
    fn save(&self, i: usize, v: &T) {
        self.store.save(i, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_arrive_in_index_order() {
        let r = Runner::new(8);
        // Jobs finish in scrambled order (later indices sleep less);
        // the merge must still be by index.
        let out = r.run(32, |i| {
            std::thread::sleep(Duration::from_micros((32 - i as u64) * 50));
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let r = Runner::new(1);
        let main_thread = std::thread::current().id();
        let out = r.run(4, |i| (i, std::thread::current().id()));
        for (i, (idx, tid)) in out.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(tid, main_thread, "serial baseline must not spawn");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let r = Runner::new(3);
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let _ = r.run(100, |i| counts[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        assert_eq!(Runner::new(1).run(257, f), Runner::new(7).run(257, f));
    }

    #[test]
    fn cross_is_a_major() {
        let r = Runner::new(4);
        let out = r.cross(&[10, 20], &[1, 2, 3], |a, b| a + b);
        assert_eq!(out, vec![11, 12, 13, 21, 22, 23]);
    }

    #[test]
    fn cross_with_empty_axis_is_empty() {
        let r = Runner::new(4);
        let out: Vec<i32> = r.cross(&[1, 2], &[] as &[i32], |a, b| a + b);
        assert!(out.is_empty());
        let out: Vec<i32> = r.cross(&[] as &[i32], &[1, 2], |a, b| a + b);
        assert!(out.is_empty());
    }

    #[test]
    fn with_jobs_overrides_and_restores() {
        let before = configured_jobs();
        let inside = with_jobs(3, configured_jobs);
        assert_eq!(inside, 3);
        assert_eq!(configured_jobs(), before);
        // Nesting: innermost wins.
        let nested = with_jobs(2, || with_jobs(5, configured_jobs));
        assert_eq!(nested, 5);
    }

    #[test]
    fn with_retries_and_timeout_override_and_restore() {
        let r = with_retries(4, configured_retries);
        assert_eq!(r, 4);
        let t = with_job_timeout(Some(Duration::from_secs(9)), configured_job_timeout);
        assert_eq!(t, Some(Duration::from_secs(9)));
        let t = with_job_timeout(None, configured_job_timeout);
        assert_eq!(t, None);
        let c = with_checkpoint(
            Some(CheckpointConfig {
                root: "/tmp/x".into(),
                resume: true,
            }),
            configured_checkpoint,
        );
        assert_eq!(c.map(|c| c.resume), Some(true));
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
        let out = Runner::new(6).map(&items, |s| s.len());
        assert_eq!(out, items.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_accumulate() {
        let before = metrics();
        let _ = Runner::new(2).run(10, |i| i);
        let delta = metrics_delta(before, metrics());
        assert!(delta.batches >= 1);
        assert!(delta.jobs >= 10);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn job_panics_propagate() {
        let _ = Runner::new(4).run(16, |i| {
            assert!(i != 7, "job 7 exploded");
            i
        });
    }

    #[test]
    fn try_run_isolates_a_panicking_job() {
        for threads in [1, 4] {
            let out = Runner::new(threads).try_run("iso", 16, |i| {
                assert!(i != 7, "job 7 exploded");
                i * 2
            });
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, 7);
                    assert_eq!(err.attempts, 1);
                    assert!(
                        matches!(&err.error, JobError::Panicked(m) if m.contains("job 7 exploded")),
                        "{err}"
                    );
                } else {
                    assert_eq!(r.as_ref().copied(), Ok(i * 2), "sibling {i} must survive");
                }
            }
        }
    }

    #[test]
    fn retries_rerun_flaky_jobs_deterministically() {
        let calls: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let out = Runner::new(3).retries(2).try_run("flaky", 8, |i| {
            let call = calls[i].fetch_add(1, Ordering::SeqCst);
            // Job 5 fails its first two attempts, succeeds on the third.
            assert!(i != 5 || call >= 2, "flaking");
            i
        });
        assert_eq!(out[5].as_ref().copied(), Ok(5));
        assert_eq!(calls[5].load(Ordering::SeqCst), 3);
        for (i, c) in calls.iter().enumerate() {
            if i != 5 {
                assert_eq!(c.load(Ordering::SeqCst), 1, "healthy job {i} ran once");
            }
        }
    }

    #[test]
    fn retry_budget_exhaustion_reports_attempts() {
        let out = Runner::new(2).retries(3).try_run("doomed", 4, |i| {
            assert!(i != 1, "always fails");
            i
        });
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.attempts, 4, "1 + 3 retries");
    }

    #[test]
    fn timed_out_jobs_do_not_burn_the_retry_budget() {
        // Satellite of PR 5: a timeout is not retried — the attempt
        // already consumed the full deadline once, so re-running it
        // would multiply the stall while the retry budget stays
        // reserved for genuinely transient (panic) failures.
        let calls: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        let out = Runner::new(2)
            .retries(3)
            .timeout(Some(Duration::from_millis(50)))
            .try_run("doomed-slow", 4, |i| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                i
            });
        let err = out[1].as_ref().unwrap_err();
        assert!(matches!(err.error, JobError::TimedOut(_)), "{err}");
        assert_eq!(err.attempts, 1, "one attempt, no retries burned");
        assert_eq!(calls[1].load(Ordering::SeqCst), 1, "ran exactly once");
        // Panics, by contrast, still consume the full budget.
        let out = Runner::new(2)
            .retries(3)
            .timeout(Some(Duration::from_millis(200)))
            .try_run("doomed-panic", 2, |i| {
                assert!(i != 1, "always fails");
                i
            });
        assert_eq!(out[1].as_ref().unwrap_err().attempts, 4, "1 + 3 retries");
    }

    #[test]
    fn cancellation_drains_a_batch_and_marks_pending_jobs() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let trigger = token.clone();
            let out = with_cancel_token(token, || {
                Runner::new(threads).try_run("drain", 16, move |i| {
                    if i == 3 {
                        // Simulate SIGINT landing mid-job; the job's own
                        // poll (here explicit) unwinds it.
                        trigger.cancel(CancelReason::Interrupted);
                        ambient_cancel_token().check();
                    }
                    i * 2
                })
            });
            // Jobs dispatched before the cancel completed normally; the
            // rest are Cancelled, never Panicked, and jobs that never
            // started report attempts = 0. (How many raced past the
            // cancel depends on scheduling; the reason and shape do
            // not.)
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i * 2),
                    Err(e) => {
                        assert!(
                            matches!(e.error, JobError::Cancelled(CancelReason::Interrupted)),
                            "job {i}: {e}"
                        );
                        if i != 3 {
                            assert_eq!(e.attempts, 0, "job {i} never started");
                        }
                    }
                }
            }
            assert!(
                out[3].is_err(),
                "the in-flight job is cancelled, not completed"
            );
            if threads == 1 {
                // Serial dispatch is fully deterministic: the prefix
                // completes, everything from the trigger drains.
                assert!(out[..3].iter().all(Result::is_ok));
                assert!(out[3..].iter().all(Result::is_err));
            }
        }
    }

    #[test]
    fn cancelled_jobs_are_not_retried() {
        let calls: Vec<AtomicU32> = (0..2).map(|_| AtomicU32::new(0)).collect();
        let token = CancelToken::new();
        let trigger = token.clone();
        let calls = &calls;
        let out = with_cancel_token(token, || {
            Runner::new(1)
                .retries(5)
                .try_run("cancel-noretry", 2, move |i| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        trigger.cancel(CancelReason::DeadlineExceeded);
                        ambient_cancel_token().check();
                    }
                    i
                })
        });
        let err = out[0].as_ref().unwrap_err();
        assert!(matches!(
            err.error,
            JobError::Cancelled(CancelReason::DeadlineExceeded)
        ));
        assert_eq!(err.attempts, 1);
        assert_eq!(calls[0].load(Ordering::SeqCst), 1, "no retry after cancel");
        assert_eq!(
            calls[1].load(Ordering::SeqCst),
            0,
            "sibling never dispatched"
        );
    }

    #[test]
    fn cancelled_batch_resumes_byte_identically() {
        // The PR's headline guarantee at engine level: cancel mid-batch,
        // resume with the same checkpoint, get the uninterrupted result.
        let root =
            std::env::temp_dir().join(format!("membw_runner_ckpt_cancel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = Some(CheckpointConfig {
            root: root.clone(),
            resume: true,
        });
        let token = CancelToken::new();
        let trigger = token.clone();
        let first = with_checkpoint(cfg.clone(), || {
            with_cancel_token(token, || {
                Runner::new(1).checkpointed("cancel-resume", "v1/cr/8", 8, move |i| {
                    if i == 4 {
                        trigger.cancel(CancelReason::Interrupted);
                        ambient_cancel_token().check();
                    }
                    i as u64 * 7
                })
            })
        });
        assert!(first[..4].iter().all(Result::is_ok), "prefix completed");
        assert!(first[4..].iter().all(Result::is_err), "suffix drained");
        // Resume with a live token: completed jobs replay, cancelled
        // slots recompute.
        let executed = AtomicU32::new(0);
        let second = with_checkpoint(cfg, || {
            Runner::new(1).checkpointed("cancel-resume", "v1/cr/8", 8, |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                i as u64 * 7
            })
        });
        assert_eq!(
            second
                .iter()
                .map(|r| *r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            (0..8).map(|i| i * 7).collect::<Vec<u64>>()
        );
        assert_eq!(
            executed.load(Ordering::SeqCst),
            4,
            "only cancelled slots re-ran"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancelled_jobs_count_as_cancelled_not_failed() {
        let before = metrics();
        let token = CancelToken::new();
        token.cancel(CancelReason::Interrupted);
        let out = with_cancel_token(token, || Runner::new(2).try_run("all-cancelled", 5, |i| i));
        assert!(out.iter().all(Result::is_err));
        // Every slot reports Cancelled with attempts 0 — none of them
        // count as failures (metrics are process-global and other tests
        // run concurrently, so assert on the returned shape plus the
        // cancelled counter's growth, not on an exact failure delta).
        for r in &out {
            let e = r.as_ref().unwrap_err();
            assert!(matches!(e.error, JobError::Cancelled(_)), "{e}");
            assert_eq!(e.attempts, 0);
        }
        let d = metrics_delta(before, metrics());
        assert!(d.cancelled >= 5, "cancelled counted: {d:?}");
    }

    #[test]
    fn jobs_env_parses_strictly() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 1 "), Ok(1));
        for bad in ["0", "-2", "many", "1.5", ""] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(err.contains(JOBS_ENV), "{bad:?} -> {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn deadline_marks_slow_jobs_failed_without_poisoning_siblings() {
        let r = Runner::new(4).timeout(Some(Duration::from_millis(50)));
        let out = r.try_run("slowpoke", 8, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(400));
            }
            i
        });
        let err = out[2].as_ref().unwrap_err();
        assert!(
            matches!(err.error, JobError::TimedOut(_)),
            "expected timeout, got {err}"
        );
        for (i, r) in out.iter().enumerate() {
            if i != 2 {
                assert_eq!(r.as_ref().copied(), Ok(i));
            }
        }
    }

    #[test]
    fn deadline_applies_on_a_single_thread_too() {
        let r = Runner::new(1).timeout(Some(Duration::from_millis(50)));
        let out = r.try_run("serial-slow", 3, |i| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(400));
            }
            i
        });
        assert!(out[1].is_err());
        assert_eq!(out[0].as_ref().copied(), Ok(0));
        assert_eq!(out[2].as_ref().copied(), Ok(2));
    }

    #[test]
    fn checkpoint_resume_replays_archived_results() {
        let root = std::env::temp_dir().join(format!("membw_runner_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = Some(CheckpointConfig {
            root: root.clone(),
            resume: true,
        });
        let first = with_checkpoint(cfg.clone(), || {
            Runner::new(4).checkpointed("ckpt-test", "v1/demo/6", 6, |i| i as u64 * 3)
        });
        assert!(first.iter().all(Result::is_ok));
        // Second run: the closure must never execute — results replay.
        let second = with_checkpoint(cfg, || {
            Runner::new(4).checkpointed("ckpt-test", "v1/demo/6", 6, |i| -> u64 {
                panic!("job {i} should have been resumed")
            })
        });
        assert_eq!(
            second
                .iter()
                .map(|r| *r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            vec![0, 3, 6, 9, 12, 15]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_without_resume_recomputes() {
        let root =
            std::env::temp_dir().join(format!("membw_runner_ckpt_nr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mk = |resume| {
            Some(CheckpointConfig {
                root: root.clone(),
                resume,
            })
        };
        let _ = with_checkpoint(mk(true), || {
            Runner::new(2).checkpointed("nr", "v1/nr/4", 4, |i| i as u64)
        });
        let ran = AtomicU32::new(0);
        let out = with_checkpoint(mk(false), || {
            Runner::new(2).checkpointed("nr", "v1/nr/4", 4, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                i as u64
            })
        });
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(ran.load(Ordering::SeqCst), 4, "--no-resume recomputes");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_jobs_are_not_checkpointed_and_retry_on_resume() {
        let root =
            std::env::temp_dir().join(format!("membw_runner_ckpt_fail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = Some(CheckpointConfig {
            root: root.clone(),
            resume: true,
        });
        let first = with_checkpoint(cfg.clone(), || {
            Runner::new(2).checkpointed("heal", "v1/heal/4", 4, |i| {
                assert!(i != 2, "transient outage");
                i as u64
            })
        });
        assert!(first[2].is_err());
        // Resume: healthy jobs replay, the failed one re-executes and
        // now succeeds — exactly the interrupted-campaign story.
        let executed = AtomicU32::new(0);
        let second = with_checkpoint(cfg, || {
            Runner::new(2).checkpointed("heal", "v1/heal/4", 4, |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                i as u64
            })
        });
        assert!(second.iter().all(Result::is_ok));
        assert_eq!(
            executed.load(Ordering::SeqCst),
            1,
            "only the failed job re-ran"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn try_run_is_deterministic_across_thread_counts_with_faults() {
        let run = |threads| {
            Runner::new(threads).try_run("det", 40, |i| {
                assert!(i % 13 != 5, "periodic fault");
                (i as u64).wrapping_mul(0x9E37_79B9)
            })
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Ok(v), Ok(w)) => assert_eq!(v, w),
                (Err(e), Err(f)) => assert_eq!(e, f),
                other => panic!("divergent fault placement: {other:?}"),
            }
        }
    }

    #[test]
    fn failure_metrics_accumulate() {
        let before = metrics();
        let _ = Runner::new(2).retries(1).try_run("metrics", 6, |i| {
            assert!(i != 3, "fails twice");
            i
        });
        let d = metrics_delta(before, metrics());
        assert!(d.retries >= 1, "retry counted");
        assert!(d.failures >= 1, "failure counted");
    }
}
