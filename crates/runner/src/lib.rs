//! Deterministic, fault-tolerant parallel execution of the experiment
//! job matrix.
//!
//! Every experiment in this reproduction — the three-run `f_P/f_L/f_B`
//! decomposition (§3), the Table 7/8 traffic sweeps, the Table 9/10
//! factor studies, the Figure 4 curves — expands into a matrix of
//! *independent* jobs: (experiment × workload × run). [`checkpointed`]
//! fans that matrix out over a fixed-width pool of OS threads and
//! merges the results **in canonical index order**, so the assembled
//! tables, plots and JSON are byte-identical whatever the thread count.
//!
//! # Determinism contract
//!
//! [`checkpointed`] returns `out[i] == f(i)` for every `i` that
//! succeeds, with results placed by job index, never by completion
//! order. Each job must be a pure function of its index (all the membw
//! jobs regenerate their traces from the workload's fixed seed, so they
//! are). Under that contract `--jobs 1` and `--jobs N` are
//! indistinguishable from the output side; the tier-1 determinism test
//! asserts it end-to-end.
//!
//! # Fault tolerance
//!
//! Each job is isolated: a panicking job becomes an
//! `Err(`[`JobFailure`]`)` in its slot instead of killing the pool, an
//! overrunning job is marked failed once it exceeds the context's
//! `job_timeout` (`--job-timeout`), and failed attempts are retried up
//! to the context's `retries` budget (`--retries`) —
//! deterministically, because a retry re-evaluates the same pure
//! `f(i)`. Healthy siblings always complete and merge in index order,
//! so a faulted campaign's surviving output is byte-identical to the
//! fault-free run.
//!
//! With a checkpoint root configured ([`set_checkpoint`] /
//! `--resume`), every completed job result is persisted, so an
//! interrupted campaign resumes from completed work instead of
//! recomputing it — see [`checkpoint`](CheckpointConfig).
//!
//! # The run context
//!
//! The pool width, retry budget, job deadline, checkpoint root, memory
//! governor and cancel token come from one [`RunContext`], read once
//! per batch and installed whole in every worker and watchdog thread.
//! The pool width's priority order: a [`RunContext::scope`] (or
//! [`with_jobs`], used by tests), then the process-wide value
//! ([`set_jobs`], set by `repro --jobs N`), then the `MEMBW_JOBS`
//! environment variable (read when the process-wide context is first
//! used), then [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use membw_runner::{checkpointed, with_jobs};
//!
//! let squares = with_jobs(4, || checkpointed("demo", "v1/demo/8", 8, |i| i * i));
//! let squares: Vec<usize> = squares.into_iter().map(Result::unwrap).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Fault isolation: job 2 panics, siblings still deliver.
//! let out = with_jobs(4, || {
//!     checkpointed("demo", "v1/demo/4", 4, |i| {
//!         assert!(i != 2, "boom");
//!         i * 10
//!     })
//! });
//! assert_eq!(out[0].as_ref().copied(), Ok(0));
//! assert!(out[2].is_err());
//! assert_eq!(out[3].as_ref().copied(), Ok(30));
//! ```

mod cancel;
mod checkpoint;
mod context;
pub mod counters;
mod failure;
pub mod fault;
pub mod faultio;
mod governor;
mod handle;
pub mod persist;

pub use cancel::{
    global_cancel_token, install_signal_drain, CancelReason, CancelToken, CancelUnwind,
};
pub use checkpoint::CheckpointConfig;
pub use context::RunContext;
pub use failure::{JobError, JobFailure};
pub use fault::validate_env as validate_fault_env;
pub use governor::{
    parse_mem_budget_mb, AdmissionGuard, Governor, GovernorStats, MEM_BUDGET_MB_ENV,
};
pub use handle::{Dispatcher, JobHandle, JobOutcome, SubmitError};

use counters::Counter;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

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

/// Set the process-wide pool width (e.g. from a `--jobs N` flag),
/// clamped to at least 1.
pub fn set_jobs(n: usize) {
    RunContext::configure(|c| c.jobs = n.max(1));
}

/// Run `f` with the pool width forced to `n` on this thread, so tests
/// can compare `--jobs 1` and `--jobs 8` runs side by side without
/// touching process state.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    RunContext {
        jobs: n.max(1),
        ..RunContext::clone(&RunContext::current())
    }
    .scope(f)
}

/// Set the process-wide checkpoint configuration (`repro` points this
/// at `results/.checkpoint`); `None` disables checkpointing.
pub fn set_checkpoint(cfg: Option<CheckpointConfig>) {
    RunContext::configure(|c| c.checkpoint = cfg);
}

/// Run `f` with the checkpoint configuration forced to `cfg` on this
/// thread (tests use a temp dir without touching process state).
pub fn with_checkpoint<R>(cfg: Option<CheckpointConfig>, f: impl FnOnce() -> R) -> R {
    RunContext {
        checkpoint: cfg,
        ..RunContext::clone(&RunContext::current())
    }
    .scope(f)
}

/// The run engine's job counters: a typed view of their rows in the
/// [`counters`] table, where each field's [`Counter`] is documented.
/// `repro` prints deltas of it on stderr, never stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// [`Counter::Batches`].
    pub batches: u64,
    /// [`Counter::Jobs`].
    pub jobs: u64,
    /// [`Counter::BusyNanos`] (exceeds wall time when jobs overlap).
    pub busy_nanos: u64,
    /// [`Counter::Retries`].
    pub retries: u64,
    /// [`Counter::Failures`].
    pub failures: u64,
    /// [`Counter::Resumed`].
    pub resumed: u64,
    /// [`Counter::Cancelled`] (deferred to a `--resume` run, not failed).
    pub cancelled: u64,
}

impl Metrics {
    /// Summed per-job wall time.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos)
    }
}

/// Snapshot the process-wide job metrics.
pub fn metrics() -> Metrics {
    let get = counters::get;
    Metrics {
        batches: get(Counter::Batches),
        jobs: get(Counter::Jobs),
        busy_nanos: get(Counter::BusyNanos),
        retries: get(Counter::Retries),
        failures: get(Counter::Failures),
        resumed: get(Counter::Resumed),
        cancelled: get(Counter::Cancelled),
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

thread_local! {
    /// Jobs executed and jobs resumed by the batches this thread has
    /// started, for [`count_own_jobs`].
    static OWN_JOBS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Run `f` and return its result with the jobs executed (retried
/// attempts included) and the jobs resumed by the batches `f` starts on
/// this thread. Unlike a [`metrics_delta`], this leaves out batches
/// that other threads run meanwhile, so the daemon can report each
/// reply's own jobs while other renders overlap it. A batch blocks the
/// thread that starts it and every batch of one render starts on that
/// render's thread, so the count is exactly the render's.
pub fn count_own_jobs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = OWN_JOBS.with(Cell::get);
    let out = f();
    let after = OWN_JOBS.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}

/// One batch's executed and resumed jobs, credited to the thread that
/// started the batch when it returns.
#[derive(Default)]
struct BatchTally {
    ran: AtomicU64,
    resumed: AtomicU64,
}

impl Drop for BatchTally {
    fn drop(&mut self) {
        let (ran, resumed) = (*self.ran.get_mut(), *self.resumed.get_mut());
        let _ = OWN_JOBS.try_with(|own| {
            let (r, s) = own.get();
            own.set((r + ran, s + resumed));
        });
    }
}

/// Execute jobs `0..n` under the current [`RunContext`] and return one
/// `Result` per job, in index order.
///
/// Work is distributed by an atomic cursor (self-balancing: a slow job
/// never stalls the queue behind it), but results are merged by index,
/// so the output is independent of scheduling. With one thread (or one
/// job) and no deadline everything runs inline on the caller's thread —
/// that is the `--jobs 1` serial baseline.
///
/// A job that panics (on every allowed attempt) or overruns the
/// context's deadline yields `Err(`[`JobFailure`]`)` in its slot;
/// sibling jobs are unaffected. `label` names the batch in failure
/// reports and `MEMBW_FAULT` job directives.
///
/// With a checkpoint root configured, every completed job result is
/// archived under it, and — when resuming — jobs whose results are
/// already archived are replayed instead of recomputed. `key` must
/// encode everything the batch's results depend on (target, scale,
/// matrix shape); a changed key lands in a fresh directory.
pub fn checkpointed<T, F>(label: &str, key: &str, n: usize, f: F) -> Vec<Result<T, JobFailure>>
where
    T: Send + Serialize + Deserialize,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    counters::add(Counter::Batches, 1);
    let tally = BatchTally::default();
    // Read the context once, on the calling thread; every worker and
    // watchdog thread below installs this same value.
    let ctx = RunContext::current();
    let store = ctx
        .checkpoint
        .as_ref()
        .and_then(|cfg| checkpoint::Store::open(cfg, label, key, n));
    let attempts_allowed = ctx.retries + 1;

    // One attempt, panic-isolated; the caller decides about retries.
    // A cancellation unwind (the token's private payload) is kept
    // distinct from a genuine panic.
    let attempt_inline = |i: usize| -> Result<T, JobError> {
        counters::add(Counter::Jobs, 1);
        tally.ran.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            fault::on_dispatch(label, i);
            f(i)
        }));
        counters::add(Counter::BusyNanos, t0.elapsed().as_nanos() as u64);
        out.map_err(|p| match p.downcast_ref::<CancelUnwind>() {
            Some(cu) => JobError::Cancelled(cu.0),
            None => JobError::Panicked(failure::panic_message(p.as_ref())),
        })
    };

    // Full per-job lifecycle: cancellation, resume, admission,
    // attempts, checkpoint, retry accounting. `attempt` abstracts over
    // inline vs watchdog execution.
    let run_job = |i: usize, attempt: &dyn Fn(usize) -> Result<T, JobError>| {
        // Drain mode: once the run is cancelled, pending jobs fail fast
        // (attempts = 0 — they never started) so the batch returns
        // within a poll interval of the request.
        if let Some(reason) = ctx.cancel.cancel_reason() {
            counters::add(Counter::Cancelled, 1);
            return Err(JobFailure {
                index: i,
                attempts: 0,
                error: JobError::Cancelled(reason),
            });
        }
        if let Some(v) = store.as_ref().and_then(|s| s.load(i)) {
            counters::add(Counter::Resumed, 1);
            tally.resumed.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        // Memory-governor gate: under the Throttled level this
        // serializes job admission (resumed jobs above skip it —
        // replaying a checkpoint costs no working set).
        let _slot = ctx.governor.admit(&ctx.cancel);
        let mut attempts = 0;
        loop {
            if attempts > 0 {
                counters::add(Counter::Retries, 1);
            }
            attempts += 1;
            match attempt(i) {
                Ok(v) => {
                    if let Some(s) = &store {
                        s.save(i, &v);
                    }
                    return Ok(v);
                }
                Err(e) => {
                    // Only panics consume the retry budget: a timed-out
                    // attempt already burned the full deadline once
                    // (re-running it is presumed doomed and would
                    // multiply the stall), and a cancelled attempt means
                    // the whole run is stopping. `attempts` reports what
                    // actually ran, not the theoretical budget.
                    let retryable = matches!(e, JobError::Panicked(_));
                    if !retryable || attempts >= attempts_allowed {
                        if matches!(e, JobError::Cancelled(_)) {
                            counters::add(Counter::Cancelled, 1);
                        } else {
                            counters::add(Counter::Failures, 1);
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

    let workers = ctx.jobs.min(n);
    if workers <= 1 && ctx.job_timeout.is_none() {
        // Serial baseline: no threads at all (also keeps `--jobs 1`
        // runnable on targets where spawning is undesirable). The
        // caller's thread already carries the context.
        return (0..n).map(|i| run_job(i, &attempt_inline)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let worker = || {
            // Workers are fresh threads: install the captured context
            // so the jobs' own polls (sim loops, trace recording),
            // cache lookups and nested batches see it.
            RunContext::clone(&ctx).scope(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = match ctx.job_timeout {
                    None => run_job(i, &attempt_inline),
                    Some(deadline) => run_job(i, &|i| {
                        // Watchdog: run the attempt on its own scoped
                        // thread and stop waiting at the deadline. A
                        // timed-out attempt keeps running (std threads
                        // cannot be killed) but its result is dropped
                        // with the receiver; the scope joins it before
                        // the batch returns.
                        let (tx, rx) = mpsc::channel();
                        let ac = RunContext::clone(&ctx);
                        scope.spawn(move || {
                            let _ = tx.send(ac.scope(|| attempt_inline(i)));
                        });
                        match rx.recv_timeout(deadline) {
                            Ok(r) => r,
                            Err(_) => Err(JobError::TimedOut(deadline)),
                        }
                    }),
                };
                *slots[i].lock().expect("job slot poisoned") = Some(result);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// The current context with pool width `jobs`, no retries, no
    /// deadline and no checkpoint root.
    fn ctx(jobs: usize) -> RunContext {
        RunContext {
            jobs,
            retries: 0,
            job_timeout: None,
            checkpoint: None,
            ..RunContext::clone(&RunContext::current())
        }
    }

    #[test]
    fn with_jobs_overrides_and_restores() {
        let jobs = || RunContext::current().jobs;
        let before = jobs();
        assert_eq!(with_jobs(3, jobs), 3);
        assert_eq!(jobs(), before);
        // Nesting: innermost wins.
        assert_eq!(with_jobs(2, || with_jobs(5, jobs)), 5);
    }

    #[test]
    fn with_checkpoint_overrides_and_restores() {
        let cfg = CheckpointConfig {
            root: "/tmp/x".into(),
            resume: true,
        };
        let seen = with_checkpoint(Some(cfg.clone()), || {
            let c = RunContext::current();
            (c.jobs, c.checkpoint.clone())
        });
        // Only the checkpoint changes; the other settings carry over.
        assert_eq!(seen, (RunContext::current().jobs, Some(cfg)));
        assert_eq!(
            with_checkpoint(None, || RunContext::current().checkpoint.clone()),
            None
        );
    }

    #[test]
    fn workers_and_dispatched_jobs_inherit_the_whole_context() {
        let root =
            std::env::temp_dir().join(format!("membw_runner_inherit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: false,
        };
        // The submitter's token is the only one with a deadline armed.
        let token = CancelToken::new();
        token.set_deadline(Duration::from_secs(3600));
        let seen = || {
            let c = RunContext::current();
            let root = c.checkpoint.as_ref().map(|c| c.root.display().to_string());
            (c.jobs, root, c.cancel.deadline_remaining().is_some())
        };
        let (batch, dispatched) = RunContext {
            cancel: token,
            ..ctx(1)
        }
        .scope(|| {
            with_jobs(3, || {
                with_checkpoint(Some(cfg.clone()), || {
                    // Two jobs at width 3 run on spawned workers; each
                    // starts a batch of its own there.
                    let batch = checkpointed("inherit", "v1/inherit/2", 2, |i| {
                        let inner =
                            checkpointed("inherit-inner", &format!("v1/inner/{i}"), 1, |_| seen());
                        inner
                            .into_iter()
                            .next()
                            .expect("one job")
                            .expect("inner job")
                    });
                    let d = Dispatcher::new(1, 4);
                    let h = d.submit(0, seen).expect("queue has room");
                    let dispatched = match h.wait() {
                        JobOutcome::Completed(v) => (*v).clone(),
                        other => panic!("unexpected outcome: {other:?}"),
                    };
                    d.close();
                    (batch, dispatched)
                })
            })
        });
        let want = (3, Some(root.display().to_string()), true);
        for r in batch {
            assert_eq!(r.expect("job ran"), want);
        }
        // A dispatched job runs under its handle's own token instead.
        assert_eq!(dispatched, (want.0, want.1, false));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_accumulate() {
        let before = metrics();
        let _ = ctx(2).scope(|| checkpointed("metrics-ok", "", 10, |i| i));
        let delta = metrics_delta(before, metrics());
        assert!(delta.batches >= 1);
        assert!(delta.jobs >= 10);
    }

    #[test]
    fn a_panicking_job_fails_alone_in_its_slot() {
        for threads in [1, 4] {
            let out = ctx(threads).scope(|| {
                checkpointed("iso", "", 16, |i| {
                    assert!(i != 7, "job 7 exploded");
                    i * 2
                })
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
        let out = RunContext {
            retries: 2,
            ..ctx(3)
        }
        .scope(|| {
            checkpointed("flaky", "", 8, |i| {
                let call = calls[i].fetch_add(1, Ordering::SeqCst);
                // Job 5 fails its first two attempts, succeeds on the third.
                assert!(i != 5 || call >= 2, "flaking");
                i
            })
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
        let out = RunContext {
            retries: 3,
            ..ctx(2)
        }
        .scope(|| {
            checkpointed("doomed", "", 4, |i| {
                assert!(i != 1, "always fails");
                i
            })
        });
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.attempts, 4, "1 + 3 retries");
    }

    #[test]
    fn timed_out_jobs_do_not_burn_the_retry_budget() {
        // A timeout is not retried: the attempt already consumed the
        // full deadline once, so re-running it would multiply the stall
        // while the retry budget stays reserved for genuinely transient
        // (panic) failures.
        let calls: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        let out = RunContext {
            retries: 3,
            job_timeout: Some(Duration::from_millis(50)),
            ..ctx(2)
        }
        .scope(|| {
            checkpointed("doomed-slow", "", 4, |i| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                i
            })
        });
        let err = out[1].as_ref().unwrap_err();
        assert!(matches!(err.error, JobError::TimedOut(_)), "{err}");
        assert_eq!(err.attempts, 1, "one attempt, no retries burned");
        assert_eq!(calls[1].load(Ordering::SeqCst), 1, "ran exactly once");
        // Panics, by contrast, still consume the full budget.
        let out = RunContext {
            retries: 3,
            job_timeout: Some(Duration::from_millis(200)),
            ..ctx(2)
        }
        .scope(|| {
            checkpointed("doomed-panic", "", 2, |i| {
                assert!(i != 1, "always fails");
                i
            })
        });
        assert_eq!(out[1].as_ref().unwrap_err().attempts, 4, "1 + 3 retries");
    }

    #[test]
    fn cancellation_drains_a_batch_and_marks_pending_jobs() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let trigger = token.clone();
            let out = RunContext {
                cancel: token,
                ..ctx(threads)
            }
            .scope(|| {
                checkpointed("drain", "", 16, move |i| {
                    if i == 3 {
                        // Simulate SIGINT landing mid-job; the job's own
                        // poll (here explicit) unwinds it.
                        trigger.cancel(CancelReason::Interrupted);
                        RunContext::current().cancel.check();
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
        let out = RunContext {
            retries: 5,
            cancel: token,
            ..ctx(1)
        }
        .scope(|| {
            checkpointed("cancel-noretry", "", 2, move |i| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    trigger.cancel(CancelReason::DeadlineExceeded);
                    RunContext::current().cancel.check();
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
        // Cancel mid-batch, resume with the same checkpoint, get the
        // uninterrupted result.
        let root =
            std::env::temp_dir().join(format!("membw_runner_ckpt_cancel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = Some(CheckpointConfig {
            root: root.clone(),
            resume: true,
        });
        let token = CancelToken::new();
        let trigger = token.clone();
        let first = RunContext {
            checkpoint: cfg.clone(),
            cancel: token,
            ..ctx(1)
        }
        .scope(|| {
            checkpointed("cancel-resume", "v1/cr/8", 8, move |i| {
                if i == 4 {
                    trigger.cancel(CancelReason::Interrupted);
                    RunContext::current().cancel.check();
                }
                i as u64 * 7
            })
        });
        assert!(first[..4].iter().all(Result::is_ok), "prefix completed");
        assert!(first[4..].iter().all(Result::is_err), "suffix drained");
        // Resume with a live token: completed jobs replay, cancelled
        // slots recompute.
        let executed = AtomicU32::new(0);
        let second = RunContext {
            checkpoint: cfg,
            ..ctx(1)
        }
        .scope(|| {
            checkpointed("cancel-resume", "v1/cr/8", 8, |i| {
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
        let out = RunContext {
            cancel: token,
            ..ctx(2)
        }
        .scope(|| checkpointed("all-cancelled", "", 5, |i| i));
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
        let out = RunContext {
            job_timeout: Some(Duration::from_millis(50)),
            ..ctx(4)
        }
        .scope(|| {
            checkpointed("slowpoke", "", 8, |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                i
            })
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
        let out = RunContext {
            job_timeout: Some(Duration::from_millis(50)),
            ..ctx(1)
        }
        .scope(|| {
            checkpointed("serial-slow", "", 3, |i| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                i
            })
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
        let first = with_jobs(4, || {
            with_checkpoint(cfg.clone(), || {
                checkpointed("ckpt-test", "v1/demo/6", 6, |i| i as u64 * 3)
            })
        });
        assert!(first.iter().all(Result::is_ok));
        // Second run: the closure must never execute — results replay.
        let second = with_jobs(4, || {
            with_checkpoint(cfg, || {
                checkpointed("ckpt-test", "v1/demo/6", 6, |i| -> u64 {
                    panic!("job {i} should have been resumed")
                })
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
        let _ = with_jobs(2, || {
            with_checkpoint(mk(true), || checkpointed("nr", "v1/nr/4", 4, |i| i as u64))
        });
        let ran = AtomicU32::new(0);
        let out = with_jobs(2, || {
            with_checkpoint(mk(false), || {
                checkpointed("nr", "v1/nr/4", 4, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i as u64
                })
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
        let first = with_jobs(2, || {
            with_checkpoint(cfg.clone(), || {
                checkpointed("heal", "v1/heal/4", 4, |i| {
                    assert!(i != 2, "transient outage");
                    i as u64
                })
            })
        });
        assert!(first[2].is_err());
        // Resume: healthy jobs replay, the failed one re-executes and
        // now succeeds — exactly the interrupted-campaign story.
        let executed = AtomicU32::new(0);
        let second = with_jobs(2, || {
            with_checkpoint(cfg, || {
                checkpointed("heal", "v1/heal/4", 4, |i| {
                    executed.fetch_add(1, Ordering::SeqCst);
                    i as u64
                })
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
    fn faulted_batches_are_deterministic_across_thread_counts() {
        let run = |threads| {
            ctx(threads).scope(|| {
                checkpointed("det", "", 40, |i| {
                    assert!(i % 13 != 5, "periodic fault");
                    (i as u64).wrapping_mul(0x9E37_79B9)
                })
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
        let _ = RunContext {
            retries: 1,
            ..ctx(2)
        }
        .scope(|| {
            checkpointed("metrics", "", 6, |i| {
                assert!(i != 3, "fails twice");
                i
            })
        });
        let d = metrics_delta(before, metrics());
        assert!(d.retries >= 1, "retry counted");
        assert!(d.failures >= 1, "failure counted");
    }
}
