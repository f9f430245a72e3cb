//! The run engine's ambient settings, held in one value.
//!
//! A batch needs six settings that its caller does not pass as
//! arguments: the pool width, the retry budget, the per-job deadline,
//! the checkpoint root, the memory governor and the cancel token.
//! [`RunContext`] holds all six. There is one process-wide value (what
//! `repro` configures from its flags) and one thread-local override
//! ([`RunContext::scope`], what tests and the engine itself install).
//!
//! Every thread the engine starts — batch workers, watchdog attempts,
//! dispatcher workers — installs the whole context its submitter saw,
//! so a job behaves the same whichever thread runs it.

use crate::cancel::{global_cancel_token, CancelToken};
use crate::checkpoint::CheckpointConfig;
use crate::governor::Governor;
use crate::{parse_jobs, JOBS_ENV};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Duration;

/// The six settings a batch inherits from the thread that starts it.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Pool width: worker threads per batch (at least 1).
    pub jobs: usize,
    /// Extra attempts a panicking job gets before it is reported.
    pub retries: u32,
    /// Per-job deadline; `None` runs jobs without a watchdog.
    pub job_timeout: Option<Duration>,
    /// Where completed job results are archived; `None` turns
    /// checkpointing off (the library default, so embedding tests never
    /// touch the filesystem).
    pub checkpoint: Option<CheckpointConfig>,
    /// The memory governor jobs are admitted through and the trace
    /// cache consults.
    pub governor: Arc<Governor>,
    /// The token jobs and the simulation loops poll.
    pub cancel: CancelToken,
}

thread_local! {
    /// The override installed by [`RunContext::scope`].
    static SCOPED: RefCell<Option<Arc<RunContext>>> = const { RefCell::new(None) };
}

/// The process-wide context, created on first use.
fn global() -> &'static RwLock<Arc<RunContext>> {
    static GLOBAL: OnceLock<RwLock<Arc<RunContext>>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        RwLock::new(Arc::new(RunContext {
            jobs: jobs_from_env(),
            retries: 0,
            job_timeout: None,
            checkpoint: None,
            governor: Arc::new(Governor::unlimited()),
            cancel: global_cancel_token(),
        }))
    })
}

/// The default pool width: [`JOBS_ENV`] if set, else the detected
/// parallelism.
fn jobs_from_env() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        match parse_jobs(&v) {
            Ok(n) => return n,
            // Library-level fallback for embedders that skipped up-front
            // validation; `repro` rejects the value before this runs.
            Err(e) => eprintln!("warning: {e}; using the detected parallelism"),
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl RunContext {
    /// The context on this thread: the innermost [`RunContext::scope`]
    /// if one is installed, else the process-wide value. Costs one
    /// `Arc` clone.
    pub fn current() -> Arc<RunContext> {
        SCOPED
            .with(|s| s.borrow().clone())
            .unwrap_or_else(|| Arc::clone(&global().read().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Update the process-wide context (`repro` applies its flags this
    /// way). Batches already running keep the context they captured.
    pub fn configure(f: impl FnOnce(&mut RunContext)) {
        let mut g = global().write().unwrap_or_else(PoisonError::into_inner);
        f(Arc::make_mut(&mut g));
    }

    /// Run `f` with this context installed on the calling thread,
    /// restoring the previous one afterwards (also on unwind).
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<RunContext>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(SCOPED.with(|s| s.replace(Some(Arc::new(self)))));
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelReason;

    #[test]
    fn scope_overrides_nests_and_restores() {
        let before = RunContext::current().jobs;
        let seen = RunContext {
            jobs: 3,
            ..RunContext::clone(&RunContext::current())
        }
        .scope(|| {
            let outer = RunContext::current().jobs;
            let inner = RunContext {
                jobs: 5,
                ..RunContext::clone(&RunContext::current())
            }
            .scope(|| RunContext::current().jobs);
            (outer, inner, RunContext::current().jobs)
        });
        assert_eq!(seen, (3, 5, 3), "innermost wins, then restores");
        assert_eq!(RunContext::current().jobs, before);
    }

    #[test]
    fn scope_restores_on_unwind() {
        let token = CancelToken::new();
        token.cancel(CancelReason::Interrupted);
        let unwound = std::panic::catch_unwind(|| {
            RunContext {
                cancel: token,
                ..RunContext::clone(&RunContext::current())
            }
            .scope(|| RunContext::current().cancel.check());
        });
        assert!(unwound.is_err(), "the scoped token was cancelled");
        // Outside the scope the token is the (live) process-wide one.
        assert!(!RunContext::current().cancel.is_cancelled());
    }
}
