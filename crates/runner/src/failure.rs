//! Typed per-job failures: what the engine reports instead of letting a
//! panicking or overrunning job abort the whole campaign.

use crate::cancel::CancelReason;
use std::any::Any;
use std::time::Duration;

/// Why a single job attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload's message is preserved.
    Panicked(String),
    /// The job exceeded the configured `--job-timeout` deadline.
    ///
    /// The engine cannot preempt the runaway computation (std threads
    /// are not killable); it stops waiting, marks the job failed, and
    /// keeps scheduling siblings. The stray attempt finishes on its
    /// own thread and its late result is discarded. Timeouts are not
    /// retried: an attempt that already consumed the full deadline is
    /// presumed doomed, so the remaining `--retries` budget is left
    /// intact for genuinely transient (panic) failures.
    TimedOut(Duration),
    /// The job was cancelled cooperatively — a SIGINT/SIGTERM drain,
    /// the `--deadline` wall clock, or an explicit
    /// [`CancelToken::cancel`](crate::CancelToken::cancel).
    ///
    /// Cancelled jobs are never retried (the whole run is stopping)
    /// and never checkpointed, so a `--resume` run recomputes exactly
    /// these slots and reproduces the uninterrupted output.
    Cancelled(CancelReason),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobError::TimedOut(d) => {
                write!(f, "exceeded {:.1}s job deadline", d.as_secs_f64())
            }
            JobError::Cancelled(reason) => write!(f, "cancelled ({reason})"),
        }
    }
}

/// A job that ultimately failed after every allowed attempt.
///
/// Returned as the `Err` arm of [`crate::checkpointed`]; the job's
/// siblings are unaffected and their results are still delivered in
/// canonical index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Canonical job index within its batch.
    pub index: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// The last attempt's error.
    pub error: JobError,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt(s): {}",
            self.index, self.attempts, self.error
        )
    }
}

impl std::error::Error for JobFailure {}

/// Extract a human-readable message from a panic payload (`panic!` with
/// a string literal or a formatted message covers practically all of
/// std and this workspace).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        let f = JobFailure {
            index: 7,
            attempts: 3,
            error: JobError::Panicked("boom".into()),
        };
        let s = f.to_string();
        assert!(s.contains("job 7"), "{s}");
        assert!(s.contains("3 attempt"), "{s}");
        assert!(s.contains("boom"), "{s}");

        let t = JobError::TimedOut(Duration::from_millis(1500)).to_string();
        assert!(t.contains("1.5s"), "{t}");

        let c = JobError::Cancelled(CancelReason::Interrupted).to_string();
        assert_eq!(c, "cancelled (interrupt)");
        let c = JobError::Cancelled(CancelReason::DeadlineExceeded).to_string();
        assert_eq!(c, "cancelled (deadline exceeded)");
    }

    #[test]
    fn panic_messages_extracted() {
        let b: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(b.as_ref()), "static str");
        let b: Box<dyn Any + Send> = Box::new(format!("formatted {}", 1));
        assert_eq!(panic_message(b.as_ref()), "formatted 1");
        let b: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(b.as_ref()), "non-string panic payload");
    }
}
