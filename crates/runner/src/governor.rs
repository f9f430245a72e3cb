//! Global memory governor: keeps a whole `repro` invocation inside a
//! byte budget by shedding *speed*, never *results*.
//!
//! # State machine
//!
//! The governor has two levels and never steps back within a run, so a
//! budgeted run's degradation is stable and auditable from the event
//! log:
//!
//! ```text
//! Normal ──▶ Throttled
//! ```
//!
//! * **Normal** — no interference; jobs are admitted as the run engine
//!   schedules them.
//! * **Throttled** — new job admission serializes (at most one job in
//!   flight at a time) so the peak working set fits the budget. A lone
//!   job is always admitted — the governor can slow the run down
//!   arbitrarily but can never wedge it.
//!
//! The governor throttles once *projected* usage exceeds the budget,
//! where projected usage is jobs in flight × the largest per-job arena
//! observed so far (the MTC next-use index and the LRU sweep tables
//! report theirs through [`Governor::observe_arena_bytes`]). The
//! transition is logged loudly to stderr (`governor: …`) and kept for
//! the end-of-run summary.
//!
//! Serialized admission preserves each job's pure-function contract,
//! so stdout stays byte-identical to an unbudgeted run — the CI smoke
//! diffs it.
//!
//! # Ambient installation
//!
//! The governor a batch answers to is its
//! [`RunContext`](crate::RunContext)'s `governor` field. `repro
//! --mem-budget` installs a budgeted one in the process-wide context;
//! tests scope a context with their own. The run engine admits every
//! job through the batch's governor.

use crate::cancel::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Environment variable naming the invocation-wide memory budget in
/// mebibytes (same meaning as `repro --mem-budget MB`).
pub const MEM_BUDGET_MB_ENV: &str = "MEMBW_MEM_BUDGET_MB";

const MIB: u64 = 1024 * 1024;
/// "No budget" sentinel in `budget_bytes`.
const UNLIMITED: u64 = u64::MAX;

fn level_name(throttled: bool) -> &'static str {
    if throttled {
        "throttled"
    } else {
        "normal"
    }
}

/// Point-in-time governor accounting for the stderr summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorStats {
    /// Configured budget in bytes (`None` = unlimited).
    pub budget_bytes: Option<u64>,
    /// Current level name (`normal` or `throttled`).
    pub level: &'static str,
    /// Largest single per-job arena observed (the per-job working-set
    /// estimate).
    pub arena_estimate_bytes: u64,
    /// Times a job waited for serialized admission under `Throttled`.
    pub throttled_admissions: u64,
    /// Escalation events so far.
    pub events: u64,
}

/// See the `governor` module docs for the state machine.
pub struct Governor {
    /// Budget in bytes; `UNLIMITED` disables the governor entirely.
    budget_bytes: u64,
    /// Whether admission serializes (monotonic within a run).
    throttled: AtomicBool,
    /// Max observed arena size (per-job working-set estimate).
    arena_estimate: AtomicU64,
    /// Jobs that waited for serialized admission.
    throttled_admissions: AtomicU64,
    /// Jobs currently admitted (mirrors the mutexed count for lock-free
    /// projection reads).
    inflight_mirror: AtomicU64,
    /// Admission gate: count of jobs in flight.
    admission: Mutex<u64>,
    /// Signalled when a job retires.
    retired: Condvar,
    /// Escalation event log (bounded; also mirrored to stderr live).
    events: Mutex<Vec<String>>,
}

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Governor")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Governor {
    /// A governor with no budget: every consultation is a cheap no-op.
    pub fn unlimited() -> Self {
        Governor {
            budget_bytes: UNLIMITED,
            throttled: AtomicBool::new(false),
            arena_estimate: AtomicU64::new(0),
            throttled_admissions: AtomicU64::new(0),
            inflight_mirror: AtomicU64::new(0),
            admission: Mutex::new(0),
            retired: Condvar::new(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A governor budgeted at `mb` mebibytes (0 = strictest: full
    /// degradation from the first job).
    pub fn with_budget_mb(mb: u64) -> Self {
        Governor {
            budget_bytes: mb.saturating_mul(MIB),
            ..Self::unlimited()
        }
    }

    /// Whether a budget is configured at all — the fast-path gate every
    /// consultation checks first.
    pub fn limited(&self) -> bool {
        self.budget_bytes != UNLIMITED
    }

    fn is_throttled(&self) -> bool {
        self.throttled.load(Ordering::Relaxed)
    }

    /// Throttle once projected usage (`inflight` jobs × the largest
    /// arena observed) exceeds the budget. Monotonic: concurrent
    /// callers race to throttle, and only the winner logs.
    fn maybe_escalate(&self, inflight: u64) {
        if !self.limited() || self.is_throttled() {
            return;
        }
        let budget = self.budget_bytes;
        let estimate = self.arena_estimate.load(Ordering::Relaxed);
        let projected = inflight.saturating_mul(estimate);
        if projected <= budget {
            return;
        }
        if self
            .throttled
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let msg = format!(
                "governor: {} -> {}: projected {:.1} MiB over {} MiB budget \
                 ({} in flight x {:.1} MiB est.)",
                level_name(false),
                level_name(true),
                projected as f64 / MIB as f64,
                budget / MIB,
                inflight,
                estimate as f64 / MIB as f64,
            );
            eprintln!("{msg}");
            let mut log = self.events.lock().unwrap_or_else(PoisonError::into_inner);
            log.push(msg);
        }
    }

    /// Admit one job, honouring the level: under `Throttled`,
    /// admission serializes (waits until no other job is in flight),
    /// polling `cancel` so a drain is never blocked on the gate. The
    /// returned guard retires the job on drop.
    pub fn admit(self: &Arc<Self>, cancel: &CancelToken) -> AdmissionGuard {
        if !self.limited() {
            return AdmissionGuard { gov: None };
        }
        let mut inflight = self
            .admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        loop {
            self.maybe_escalate(*inflight + 1);
            // Always admit a lone job; and never gate a cancelled run —
            // its jobs fail fast at the pre-dispatch check anyway.
            if !self.is_throttled() || *inflight == 0 || cancel.is_cancelled() {
                break;
            }
            waited = true;
            let (guard, _timeout) = self
                .retired
                .wait_timeout(inflight, Duration::from_millis(25))
                .unwrap_or_else(PoisonError::into_inner);
            inflight = guard;
        }
        if waited {
            self.throttled_admissions.fetch_add(1, Ordering::Relaxed);
        }
        *inflight += 1;
        self.inflight_mirror.store(*inflight, Ordering::Relaxed);
        drop(inflight);
        AdmissionGuard {
            gov: Some(Arc::clone(self)),
        }
    }

    /// The MTC next-use index and the LRU sweep tables report their
    /// size; the largest one becomes the per-job working-set estimate.
    pub fn observe_arena_bytes(&self, bytes: u64) {
        if !self.limited() {
            return;
        }
        self.arena_estimate.fetch_max(bytes, Ordering::Relaxed);
        self.maybe_escalate(self.inflight_mirror.load(Ordering::Relaxed));
    }

    /// Snapshot the governor accounting.
    pub fn stats(&self) -> GovernorStats {
        let budget = self.budget_bytes;
        GovernorStats {
            budget_bytes: (budget != UNLIMITED).then_some(budget),
            level: level_name(self.is_throttled()),
            arena_estimate_bytes: self.arena_estimate.load(Ordering::Relaxed),
            throttled_admissions: self.throttled_admissions.load(Ordering::Relaxed),
            events: self
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
        }
    }

    /// The escalation event log (in order; also printed live).
    pub fn events(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// RAII admission slot from [`Governor::admit`]; dropping it retires
/// the job and wakes throttled waiters.
pub struct AdmissionGuard {
    gov: Option<Arc<Governor>>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        if let Some(gov) = self.gov.take() {
            let mut inflight = gov.admission.lock().unwrap_or_else(PoisonError::into_inner);
            *inflight = inflight.saturating_sub(1);
            gov.inflight_mirror.store(*inflight, Ordering::Relaxed);
            drop(inflight);
            gov.retired.notify_all();
        }
    }
}

/// Strictly parse a mebibyte budget (for `--mem-budget` and
/// `MEMBW_MEM_BUDGET_MB`): a bare non-negative integer. 0 is legal and
/// means "strictest" — degrade everything from the start.
pub fn parse_mem_budget_mb(raw: &str) -> Result<u64, String> {
    let trimmed = raw.trim();
    trimmed.parse::<u64>().map_err(|_| {
        format!(
            "invalid {MEM_BUDGET_MB_ENV} value {raw:?}: \
             expected a non-negative integer mebibyte count (0 = strictest)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_is_inert() {
        let g = Arc::new(Governor::unlimited());
        assert!(!g.limited());
        g.observe_arena_bytes(1 << 40);
        assert_eq!(g.stats().level, "normal");
        let _a = g.admit(&CancelToken::new());
        let _b = g.admit(&CancelToken::new());
    }

    #[test]
    fn escalation_ladder_is_monotonic_and_ordered() {
        let g = Arc::new(Governor::with_budget_mb(10));
        g.observe_arena_bytes(4 * MIB);
        // Two 4 MiB jobs project to 8 MiB and fit the 10 MiB budget.
        let a = g.admit(&CancelToken::new());
        let b = g.admit(&CancelToken::new());
        assert_eq!(g.stats().level, "normal");
        assert!(g.events().is_empty());
        // A job reporting a 6 MiB arena projects 2 x 6 = 12 MiB: throttle.
        g.observe_arena_bytes(6 * MIB);
        assert_eq!(g.stats().level, "throttled");
        // Retiring every job never steps back down, and a smaller arena
        // leaves the estimate at its maximum.
        drop((a, b));
        g.observe_arena_bytes(MIB);
        let _lone = g.admit(&CancelToken::new());
        let s = g.stats();
        assert_eq!((s.level, s.arena_estimate_bytes), ("throttled", 6 * MIB));
        let events = g.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(events[0].contains("normal -> throttled"), "{events:?}");
        assert!(events[0].contains("2 in flight x 6.0 MiB"), "{events:?}");
    }

    #[test]
    fn zero_budget_degrades_fully_but_always_admits() {
        let g = Arc::new(Governor::with_budget_mb(0));
        g.observe_arena_bytes(MIB);
        let t = CancelToken::new();
        let first = g.admit(&t);
        assert_eq!(g.stats().level, "throttled");
        assert_eq!(g.stats().events, 1);
        // A second admission must wait for the first to retire; retire
        // it from another thread and require the gate to open.
        let g2 = Arc::clone(&g);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            drop(first);
        });
        let second = g2.admit(&t);
        handle.join().unwrap();
        drop(second);
        assert!(g.stats().throttled_admissions >= 1);
    }

    #[test]
    fn cancelled_run_is_never_gated() {
        let g = Arc::new(Governor::with_budget_mb(0));
        g.observe_arena_bytes(MIB);
        let t = CancelToken::new();
        let _held = g.admit(&t);
        t.cancel(crate::CancelReason::Interrupted);
        // Would deadlock if the gate ignored cancellation.
        let _second = g.admit(&t);
    }

    #[test]
    fn budget_parser_accepts_integers_and_names_the_variable() {
        assert_eq!(parse_mem_budget_mb("64"), Ok(64));
        assert_eq!(parse_mem_budget_mb(" 0 "), Ok(0));
        let err = parse_mem_budget_mb("lots").unwrap_err();
        assert!(err.contains(MEM_BUDGET_MB_ENV), "{err}");
        assert!(parse_mem_budget_mb("-3").is_err());
        assert!(parse_mem_budget_mb("").is_err());
    }
}
