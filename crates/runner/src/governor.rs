//! Global memory governor: keeps a whole `repro` invocation inside a
//! byte budget by shedding *speed*, never *results*.
//!
//! # State machine
//!
//! The governor walks a monotonic escalation ladder; it never
//! de-escalates within a run, so a budgeted run's degradation sequence
//! is stable and auditable from the event log:
//!
//! ```text
//! Normal ──▶ CacheShrunk ──▶ Streaming ──▶ Throttled
//! ```
//!
//! * **Normal** — no interference; the trace cache uses its configured
//!   `MEMBW_TRACE_CACHE_MB` budget.
//! * **CacheShrunk** — the trace-cache byte cap is clamped to half the
//!   governor budget; the cache's existing LRU eviction does the work.
//! * **Streaming** — the cache cap drops to zero: replays degrade to
//!   record-streaming (every job regenerates its trace), which PR 3's
//!   determinism contract guarantees is byte-identical on stdout.
//! * **Throttled** — new job admission serializes (at most one job in
//!   flight at a time) so peak working-set, not just cache residency,
//!   fits the budget. A lone job is always admitted — the ladder can
//!   slow the run down arbitrarily but can never wedge it.
//!
//! Escalation triggers whenever *projected* usage at the current level
//! exceeds the budget, where projected usage is the cache residency the
//! level would allow plus (jobs in flight × the largest trace arena
//! observed so far) as the per-job working-set estimate. Every
//! transition is logged loudly to stderr (`governor: …`) and kept for
//! the end-of-run summary.
//!
//! Because all three degradations preserve each job's pure-function
//! contract, stdout stays byte-identical to an unbudgeted run — the CI
//! smoke diffs it.
//!
//! # Ambient installation
//!
//! The governor a batch answers to is its
//! [`RunContext`](crate::RunContext)'s `governor` field. `repro
//! --mem-budget` installs a budgeted one in the process-wide context;
//! tests scope a context with their own. The run engine admits every
//! job through the batch's governor, and the trace cache consults the
//! current context's governor on every lookup.

use crate::cancel::CancelToken;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Environment variable naming the invocation-wide memory budget in
/// mebibytes (same meaning as `repro --mem-budget MB`).
pub const MEM_BUDGET_MB_ENV: &str = "MEMBW_MEM_BUDGET_MB";

const MIB: u64 = 1024 * 1024;
/// "No budget" sentinel in `budget_bytes`.
const UNLIMITED: u64 = u64::MAX;

/// Escalation ladder levels (values of `Governor::level`).
const NORMAL: u8 = 0;
const CACHE_SHRUNK: u8 = 1;
const STREAMING: u8 = 2;
const THROTTLED: u8 = 3;

fn level_name(level: u8) -> &'static str {
    match level {
        NORMAL => "normal",
        CACHE_SHRUNK => "cache-shrunk",
        STREAMING => "streaming",
        _ => "throttled",
    }
}

/// Point-in-time governor accounting for the stderr summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorStats {
    /// Configured budget in bytes (`None` = unlimited).
    pub budget_bytes: Option<u64>,
    /// Current escalation level name (`normal`, `cache-shrunk`,
    /// `streaming`, `throttled`).
    pub level: &'static str,
    /// Trace-cache resident bytes last reported by the cache.
    pub cache_resident_bytes: u64,
    /// Largest single trace arena observed (the per-job working-set
    /// estimate).
    pub arena_estimate_bytes: u64,
    /// Evictions the governor forced beyond the cache's own budget.
    pub forced_evictions: u64,
    /// Times a job waited for serialized admission under `Throttled`.
    pub throttled_admissions: u64,
    /// Escalation events so far.
    pub events: u64,
}

/// See the `governor` module docs for the state machine.
pub struct Governor {
    /// Budget in bytes; `UNLIMITED` disables the governor entirely.
    budget_bytes: u64,
    /// Current ladder level (monotonic within a run).
    level: AtomicU8,
    /// Last cache residency report.
    cache_resident: AtomicU64,
    /// Max observed arena size (per-job working-set estimate).
    arena_estimate: AtomicU64,
    /// Evictions forced beyond the cache's configured budget.
    forced_evictions: AtomicU64,
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
            level: AtomicU8::new(NORMAL),
            cache_resident: AtomicU64::new(0),
            arena_estimate: AtomicU64::new(0),
            forced_evictions: AtomicU64::new(0),
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

    fn level_now(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    /// Cache residency the ladder level would permit, given the actual
    /// residency `resident`.
    fn cache_allowance(&self, level: u8, resident: u64) -> u64 {
        let budget = self.budget_bytes;
        match level {
            NORMAL => resident,
            CACHE_SHRUNK => resident.min(budget / 2),
            _ => 0,
        }
    }

    /// Projected bytes at `level` with `inflight` jobs running.
    fn projected(&self, level: u8, inflight: u64) -> u64 {
        let resident = self.cache_resident.load(Ordering::Relaxed);
        let estimate = self.arena_estimate.load(Ordering::Relaxed);
        self.cache_allowance(level, resident)
            .saturating_add(inflight.saturating_mul(estimate))
    }

    /// Climb the ladder while projected usage exceeds the budget.
    /// Monotonic: concurrent callers race upward only.
    fn maybe_escalate(&self, inflight: u64) {
        if !self.limited() {
            return;
        }
        let budget = self.budget_bytes;
        loop {
            let level = self.level_now();
            if level >= THROTTLED {
                return;
            }
            let projected = self.projected(level, inflight);
            if projected <= budget {
                return;
            }
            if self
                .level
                .compare_exchange(level, level + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let msg = format!(
                    "governor: {} -> {}: projected {:.1} MiB over {} MiB budget \
                     (cache {:.1} MiB resident, {} in flight x {:.1} MiB est.)",
                    level_name(level),
                    level_name(level + 1),
                    projected as f64 / MIB as f64,
                    budget / MIB,
                    self.cache_resident.load(Ordering::Relaxed) as f64 / MIB as f64,
                    inflight,
                    self.arena_estimate.load(Ordering::Relaxed) as f64 / MIB as f64,
                );
                eprintln!("{msg}");
                let mut log = self.events.lock().unwrap_or_else(PoisonError::into_inner);
                log.push(msg);
            }
        }
    }

    /// Admit one job, honouring the ladder: under `Throttled`,
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
            if self.level_now() < THROTTLED || *inflight == 0 || cancel.is_cancelled() {
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

    /// The trace cache reports its resident bytes after every insert or
    /// eviction; growth past the budget escalates the ladder.
    pub fn report_cache_resident(&self, bytes: u64) {
        if !self.limited() {
            return;
        }
        self.cache_resident.store(bytes, Ordering::Relaxed);
        self.maybe_escalate(self.inflight_mirror.load(Ordering::Relaxed));
    }

    /// The trace layer reports each recorded arena's size; the largest
    /// one becomes the per-job working-set estimate.
    pub fn observe_arena_bytes(&self, bytes: u64) {
        if !self.limited() {
            return;
        }
        self.arena_estimate.fetch_max(bytes, Ordering::Relaxed);
        self.maybe_escalate(self.inflight_mirror.load(Ordering::Relaxed));
    }

    /// The byte cap the ladder currently imposes on the trace cache,
    /// given the cache's own `configured` budget. `Normal` passes the
    /// configured cap through; `CacheShrunk` clamps it to half the
    /// governor budget; `Streaming`/`Throttled` return 0: the cache
    /// must hold nothing, and replays record-stream instead.
    pub fn cache_cap(&self, configured: u64) -> u64 {
        if !self.limited() {
            return configured;
        }
        let budget = self.budget_bytes;
        match self.level_now() {
            NORMAL => configured,
            CACHE_SHRUNK => configured.min(budget / 2),
            _ => 0,
        }
    }

    /// Count evictions the governor forced beyond the cache's own
    /// budget (reported by the cache when the effective cap shrank).
    pub fn note_forced_evictions(&self, n: u64) {
        if n > 0 {
            self.forced_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshot the governor accounting.
    pub fn stats(&self) -> GovernorStats {
        let budget = self.budget_bytes;
        GovernorStats {
            budget_bytes: (budget != UNLIMITED).then_some(budget),
            level: level_name(self.level_now()),
            cache_resident_bytes: self.cache_resident.load(Ordering::Relaxed),
            arena_estimate_bytes: self.arena_estimate.load(Ordering::Relaxed),
            forced_evictions: self.forced_evictions.load(Ordering::Relaxed),
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
        g.report_cache_resident(1 << 40);
        g.observe_arena_bytes(1 << 40);
        assert_eq!(g.cache_cap(123), 123);
        assert_eq!(g.stats().level, "normal");
        let _a = g.admit(&CancelToken::new());
        let _b = g.admit(&CancelToken::new());
    }

    #[test]
    fn escalation_ladder_is_monotonic_and_ordered() {
        let g = Arc::new(Governor::with_budget_mb(10));
        // 4 MiB cache + one 8 MiB job projected over 10 MiB: shrink the
        // cache first.
        g.observe_arena_bytes(8 * MIB);
        g.report_cache_resident(4 * MIB);
        let _slot = g.admit(&CancelToken::new());
        // The cache allowance at CacheShrunk is min(4, 10/2) = 4 MiB,
        // still over with the 8 MiB job — so the ladder runs to
        // Streaming (cache 0 + 8 MiB job fits 10 MiB).
        assert_eq!(g.stats().level, "streaming");
        assert_eq!(g.cache_cap(512 * MIB), 0);
        let events = g.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].contains("normal -> cache-shrunk"), "{events:?}");
        assert!(
            events[1].contains("cache-shrunk -> streaming"),
            "{events:?}"
        );
    }

    #[test]
    fn zero_budget_degrades_fully_but_always_admits() {
        let g = Arc::new(Governor::with_budget_mb(0));
        g.observe_arena_bytes(MIB);
        let t = CancelToken::new();
        let first = g.admit(&t);
        assert_eq!(g.stats().level, "throttled");
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
    fn cache_shrink_level_halves_the_cap() {
        let g = Arc::new(Governor::with_budget_mb(100));
        // 80 MiB resident + one 30 MiB job projects to 110 MiB: one
        // escalation (to cache-shrunk, allowance 50 + 30 = 80) suffices.
        g.observe_arena_bytes(30 * MIB);
        let _slot = g.admit(&CancelToken::new());
        g.report_cache_resident(80 * MIB);
        assert_eq!(g.stats().level, "cache-shrunk");
        assert_eq!(g.cache_cap(512 * MIB), 50 * MIB);
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
