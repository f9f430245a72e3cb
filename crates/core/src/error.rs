//! `MembwError`: the workspace-wide structured error type.
//!
//! Every `run_*` entry point that can fail — because a run-engine job
//! panicked or timed out, or because archiving results hit the
//! filesystem — returns `Result<_, MembwError>` instead of panicking,
//! so a campaign driver (`repro`) can finish the healthy targets,
//! summarize what failed, and exit nonzero.

use crate::audit::Auditor;
use membw_runner::JobFailure;
use membw_sweep::SweepMode;
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One job that ultimately failed (after the retry budget), resolved
/// from its canonical index to the human name of its matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedJob {
    /// Batch label (`"table8"`, `"fig3/SPEC92"`).
    pub label: String,
    /// The matrix cell: `"compress"`, `"swm/F"`, `"eqntott/32B blocks"`.
    pub job: String,
    /// Canonical index within the batch.
    pub index: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Why the final attempt failed.
    pub error: String,
}

/// Why a `run_*` entry point (or the `repro` driver) failed.
#[derive(Debug)]
pub enum MembwError {
    /// A filesystem operation failed; `context` says what was being
    /// attempted ("create JSON directory", "write JSON archive").
    Io {
        /// What the operation was for.
        context: String,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Loading or saving a binary trace failed.
    Trace {
        /// The trace file.
        path: PathBuf,
        /// The underlying trace error.
        source: membw_trace::io::TraceIoError,
    },
    /// One or more run-engine jobs in a batch ultimately failed.
    Jobs {
        /// The failures, in canonical index order.
        failures: Vec<FailedJob>,
    },
    /// The runtime invariant auditor found violated paper identities
    /// under `--audit strict` (see [`crate::audit`]).
    InvariantViolation {
        /// Every violated check, in audit order; each names its target
        /// and matrix cell.
        violations: Vec<crate::audit::Violation>,
    },
}

impl std::fmt::Display for MembwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembwError::Io {
                context,
                path,
                source,
            } => write!(f, "cannot {context} at {}: {source}", path.display()),
            MembwError::Trace { path, source } => {
                write!(f, "trace file {}: {source}", path.display())
            }
            MembwError::Jobs { failures } => {
                write!(f, "{} job(s) failed", failures.len(),)?;
                if let Some(first) = failures.first() {
                    write!(
                        f,
                        " (first: {} job {} [{}], {} after {} attempt(s))",
                        first.label, first.index, first.job, first.error, first.attempts
                    )?;
                }
                Ok(())
            }
            MembwError::InvariantViolation { violations } => {
                write!(f, "{} paper invariant(s) violated", violations.len())?;
                if let Some(first) = violations.first() {
                    write!(f, " (first: {first})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MembwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MembwError::Io { source, .. } => Some(source),
            MembwError::Trace { source, .. } => Some(source),
            MembwError::Jobs { .. } | MembwError::InvariantViolation { .. } => None,
        }
    }
}

impl MembwError {
    /// An [`MembwError::Io`] with its context and path filled in.
    pub fn io(
        context: impl Into<String>,
        path: impl Into<PathBuf>,
        source: std::io::Error,
    ) -> Self {
        MembwError::Io {
            context: context.into(),
            path: path.into(),
            source,
        }
    }

    /// The failed jobs, if this is a job-batch failure.
    pub fn failed_jobs(&self) -> &[FailedJob] {
        match self {
            MembwError::Jobs { failures } => failures,
            _ => &[],
        }
    }

    /// The violated invariants, if this is a strict-audit failure.
    pub fn invariant_violations(&self) -> &[crate::audit::Violation] {
        match self {
            MembwError::InvariantViolation { violations } => violations,
            _ => &[],
        }
    }
}

/// Split a fault-isolated batch ([`membw_runner::checkpointed`]) into
/// its successes, or a [`MembwError::Jobs`]
/// carrying every failure. `name` resolves a job index to the human
/// name of its matrix cell.
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any job failed; healthy siblings'
/// results are dropped (the caller reruns with `--resume` to pick them
/// up from the checkpoint instead of recomputing).
pub fn collect_jobs<T>(
    label: &str,
    results: Vec<Result<T, JobFailure>>,
    name: impl Fn(usize) -> String,
) -> Result<Vec<T>, MembwError> {
    let mut ok = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => ok.push(v),
            Err(e) => failures.push(FailedJob {
                label: label.to_string(),
                job: name(i),
                index: e.index,
                attempts: e.attempts,
                error: e.error.to_string(),
            }),
        }
    }
    if failures.is_empty() {
        Ok(ok)
    } else {
        Err(MembwError::Jobs { failures })
    }
}

/// Run a traffic suite's checkpointed job matrix with the sweep engine
/// `mode` chooses, and collect it like [`collect_jobs`]. `job(i, mode)`
/// computes cell `i`; `cell(i)` names it.
///
/// This is the one place stack-mode output is checked against the
/// direct-simulation oracle: when `mode` is [`SweepMode::Stack`] and
/// [`membw_sweep::verify_requested`], every job is rerun serially under
/// [`SweepMode::Direct`] and recorded as a `sweep-exact` audit check
/// that passes only if the two results are bit-identical.
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any job failed.
pub(crate) fn sweep_jobs<T, F>(
    label: &str,
    key: &str,
    n: usize,
    mode: SweepMode,
    audit: &mut Auditor,
    job: F,
    cell: impl Fn(usize) -> String,
) -> Result<Vec<T>, MembwError>
where
    T: Send + Serialize + Deserialize,
    F: Fn(usize, SweepMode) -> T + Sync,
{
    let verify = mode == SweepMode::Stack && membw_sweep::verify_requested();
    checked_jobs(label, key, n, mode, verify, audit, job, cell)
}

/// [`sweep_jobs`] with the cross-check switch passed in.
#[allow(clippy::too_many_arguments)]
fn checked_jobs<T, F>(
    label: &str,
    key: &str,
    n: usize,
    mode: SweepMode,
    verify: bool,
    audit: &mut Auditor,
    job: F,
    cell: impl Fn(usize) -> String,
) -> Result<Vec<T>, MembwError>
where
    T: Send + Serialize + Deserialize,
    F: Fn(usize, SweepMode) -> T + Sync,
{
    let raw = membw_runner::checkpointed(label, key, n, |i| job(i, mode));
    let out = collect_jobs(label, raw, &cell)?;
    if verify {
        for (i, got) in out.iter().enumerate() {
            let (got, want) = (got.to_value(), job(i, SweepMode::Direct).to_value());
            audit.sweep_exact(&cell(i), bit_identical(&got, &want), || {
                format!(
                    "stack sweep diverged from direct simulation: {} vs {}",
                    serde_json::to_string(&got).unwrap_or_default(),
                    serde_json::to_string(&want).unwrap_or_default()
                )
            });
        }
    }
    Ok(out)
}

/// Structural equality that compares every float by its bit pattern.
fn bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_identical(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && bit_identical(x, y))
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membw_runner::JobError;

    #[test]
    fn collect_passes_clean_batches_through() {
        let results: Vec<Result<u32, JobFailure>> = vec![Ok(1), Ok(2), Ok(3)];
        let out = collect_jobs("t", results, |i| format!("job{i}")).expect("clean");
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn collect_gathers_every_failure_with_names() {
        let results: Vec<Result<u32, JobFailure>> = vec![
            Ok(1),
            Err(JobFailure {
                index: 1,
                attempts: 2,
                error: JobError::Panicked("boom".into()),
            }),
            Err(JobFailure {
                index: 2,
                attempts: 1,
                error: JobError::TimedOut(std::time::Duration::from_secs(3)),
            }),
        ];
        let err = collect_jobs("table8", results, |i| format!("bench{i}")).unwrap_err();
        let jobs = err.failed_jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].job, "bench1");
        assert_eq!(jobs[0].attempts, 2);
        assert!(jobs[0].error.contains("boom"));
        assert_eq!(jobs[1].job, "bench2");
        let msg = err.to_string();
        assert!(msg.contains("2 job(s) failed"), "{msg}");
        assert!(msg.contains("bench1"), "{msg}");
    }

    #[test]
    fn invariant_violations_name_target_and_cell() {
        let e = MembwError::InvariantViolation {
            violations: vec![crate::audit::Violation {
                target: "table8".to_string(),
                cell: "compress @ 16KB".to_string(),
                invariant: "inefficiency",
                detail: "G = 0.7 < 1".to_string(),
            }],
        };
        let msg = e.to_string();
        assert!(msg.contains("1 paper invariant(s) violated"), "{msg}");
        assert!(msg.contains("table8"), "{msg}");
        assert!(msg.contains("compress @ 16KB"), "{msg}");
        assert_eq!(e.invariant_violations().len(), 1);
        assert!(e.failed_jobs().is_empty());
    }

    /// A fake sweep job: cell `i` is `[i, i / 3]`, except that direct
    /// mode answers one ulp away at cell `bad`.
    fn fake_job(bad: Option<usize>) -> impl Fn(usize, SweepMode) -> Vec<f64> + Sync {
        move |i, mode| {
            let x = i as f64 / 3.0;
            let x = if mode == SweepMode::Direct && Some(i) == bad {
                f64::from_bits(x.to_bits() + 1)
            } else {
                x
            };
            vec![i as f64, x]
        }
    }

    #[test]
    fn cross_check_flags_a_one_ulp_divergence_by_cell() {
        let mut audit = crate::audit::Auditor::strict("unit");
        let out = checked_jobs(
            "unit-diverge",
            "unit/diverge",
            4,
            SweepMode::Stack,
            true,
            &mut audit,
            fake_job(Some(2)),
            |i| format!("cell{i}"),
        )
        .expect("no job fails");
        assert_eq!(out[2], vec![2.0, 2.0 / 3.0], "stack results are returned");
        let err = audit.finish().unwrap_err();
        let v = err.invariant_violations();
        assert_eq!(v.len(), 1, "{err}");
        assert_eq!(v[0].invariant, "sweep-exact");
        assert_eq!(v[0].cell, "cell2");
    }

    #[test]
    fn agreeing_cross_check_adds_one_check_per_job() {
        let mut audit = crate::audit::Auditor::strict("unit");
        let before = audit.checks();
        checked_jobs(
            "unit-agree",
            "unit/agree",
            5,
            SweepMode::Stack,
            true,
            &mut audit,
            fake_job(None),
            |i| format!("cell{i}"),
        )
        .expect("no job fails");
        assert_eq!(audit.checks(), before + 5);
        assert!(audit.finish().is_ok());
    }

    #[test]
    fn direct_mode_runs_no_cross_check() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let job = fake_job(Some(1));
        let mut audit = crate::audit::Auditor::strict("unit");
        let out = sweep_jobs(
            "unit-direct",
            "unit/direct",
            3,
            SweepMode::Direct,
            &mut audit,
            |i, mode| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                job(i, mode)
            },
            |i| format!("cell{i}"),
        )
        .expect("no job fails");
        assert_eq!(out.len(), 3);
        assert_eq!(calls.into_inner(), 3, "each job runs once");
        assert_eq!(audit.checks(), 0);
    }

    #[test]
    fn io_errors_name_the_path_and_context() {
        let e = MembwError::io(
            "create JSON directory",
            "/no/such/dir",
            std::io::Error::from(std::io::ErrorKind::PermissionDenied),
        );
        let msg = e.to_string();
        assert!(msg.contains("create JSON directory"), "{msg}");
        assert!(msg.contains("/no/such/dir"), "{msg}");
    }
}
