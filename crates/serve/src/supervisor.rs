//! `membw serve --supervise`: a parent that keeps the daemon alive.
//!
//! The wire-consistency proof aborts the daemon mid-request
//! (`MEMBW_FAULT=net:crash@K`, or an operator's stray SIGKILL); the
//! result store already guarantees no answer is lost or half-served
//! across that. What was missing is *who restarts the process*. This
//! supervisor is deliberately small and deterministic:
//!
//! ```text
//!            spawn child ──────────────► RUNNING
//!                ▲                          │ child exits
//!   backoff 50ms×2^n (cap 2s)              ▼
//!   RESTARTING ◄──── crash (134/killed/1) EXITED ── 0 ──► done (exit 0)
//!        │                                  │
//!        │ M fast crashes in a row          │ 2 (config error)
//!        ▼                                  ▼
//!   GIVE UP loudly (exit 1)           propagate exit 2 (no retry loop)
//! ```
//!
//! * **Bounded deterministic backoff** — restart `n` sleeps
//!   `initial × 2^(n-1)` capped at `backoff_cap`; no jitter, so the
//!   kill-loop smoke and the wire proof see the same schedule every
//!   run.
//! * **Crash-loop detection** — a child that dies before
//!   [`SupervisorConfig::healthy_after`] counts as a *fast* crash;
//!   [`SupervisorConfig::max_fast_crashes`] consecutive fast crashes
//!   make the supervisor give up loudly with a nonzero exit instead of
//!   flapping forever. A child that stayed up past the threshold
//!   resets the streak.
//! * **Atomic takeover** — the restarted child rebinds the stale Unix
//!   socket through [`crate::net::Endpoint::listen`]'s probe-and-unlink
//!   path and republishes the pidfile via tmp→fsync→rename
//!   ([`crate::net::write_pidfile`]), so `cat sock.pid` never observes
//!   a torn PID while generations change.
//! * **Restart counter on the wire** — each child is told its restart
//!   generation through [`RESTARTS_ENV`]; the server surfaces it as the
//!   `supervisor_restarts` field of the `stats` pseudo-target, so a
//!   client can ask the service itself how many times it has died.
//!
//! Exit-code contract (the driver documents this table): child exit 0 →
//! supervisor exit 0; child exit 2 (usage/config — restarting cannot
//! help) → supervisor exit 2 immediately; crash-loop give-up → exit 1;
//! SIGTERM/SIGINT to the supervisor → forward TERM to the child, reap
//! it, exit 130.

use membw_core::runner::CancelToken;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Environment variable telling a supervised child its restart
/// generation (0 for the first spawn). The server exports it as the
/// `supervisor_restarts` stats counter.
pub const RESTARTS_ENV: &str = "MEMBW_SUPERVISOR_RESTARTS";

/// Supervision policy. The defaults are what `repro serve --supervise`
/// runs with; tests tighten them to keep wall-clock down.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Give up after this many *consecutive* fast crashes.
    pub max_fast_crashes: u32,
    /// A child alive at least this long counts as having been healthy,
    /// resetting the fast-crash streak.
    pub healthy_after: Duration,
    /// First restart delay; doubles per consecutive fast crash.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_fast_crashes: 5,
            healthy_after: Duration::from_secs(5),
            backoff_initial: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl SupervisorConfig {
    /// The deterministic delay before restart number `n` (1-based):
    /// `initial × 2^(n-1)`, saturating at [`Self::backoff_cap`].
    pub fn backoff(&self, n: u32) -> Duration {
        let doublings = n.saturating_sub(1).min(16);
        let delay = self.backoff_initial.saturating_mul(1u32 << doublings);
        delay.min(self.backoff_cap)
    }
}

/// How one child generation ended, as the supervisor classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildEnd {
    /// Clean exit 0: the daemon finished (drained) on purpose.
    Clean,
    /// Exit 2: configuration/usage error — a restart would just repeat
    /// it, so the supervisor propagates instead of looping.
    Config,
    /// Anything else (SIGABRT 134, SIGKILL, panic exit 101, …).
    Crash(i32),
}

fn classify(code: Option<i32>) -> ChildEnd {
    match code {
        Some(0) => ChildEnd::Clean,
        Some(2) => ChildEnd::Config,
        // None = killed by signal with no exit code (SIGKILL/SIGABRT
        // reported signal-side); fold into the crash lane with the
        // shell convention placeholder.
        Some(c) => ChildEnd::Crash(c),
        None => ChildEnd::Crash(-1),
    }
}

/// Politely stop `child`: forward SIGTERM (via `kill`, the workspace
/// has no libc binding), then reap it. Falls back to a hard kill if
/// TERM could not be delivered.
fn terminate(child: &mut Child) -> Option<i32> {
    let delivered = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !delivered {
        let _ = child.kill();
    }
    match child.wait() {
        Ok(status) => status.code(),
        Err(_) => None,
    }
}

/// Sleep `total` in cancel-aware slices; true if cancelled mid-sleep.
fn backoff_sleep(total: Duration, cancel: &CancelToken) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if cancel.is_cancelled() {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// Run the supervision loop until the child exits cleanly, a config
/// error makes restarting pointless, the crash-loop detector trips, or
/// `cancel` fires (SIGTERM/SIGINT to the supervisor — forwarded to the
/// child so it drains through its own signal path).
///
/// `make_cmd` builds the child command for restart generation `n`
/// (0 = first spawn); the supervisor adds [`RESTARTS_ENV`] itself. A
/// closure (rather than a fixed `Command`) keeps the hook the wire
/// proof needs: its generation-0 child carries `MEMBW_FAULT=net:crash@K`
/// while generation 1+ runs clean, which is exactly "the fault was
/// transient, the supervisor healed the service".
///
/// Returns the supervisor's exit code per the module-level table.
pub fn supervise(
    mut make_cmd: impl FnMut(u64) -> Command,
    cfg: &SupervisorConfig,
    cancel: &CancelToken,
) -> i32 {
    let mut restarts: u64 = 0;
    let mut fast_crashes: u32 = 0;
    loop {
        let mut cmd = make_cmd(restarts);
        cmd.env(RESTARTS_ENV, restarts.to_string());
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("supervisor: failed to spawn daemon: {e}");
                return 1;
            }
        };
        let born = Instant::now();
        eprintln!(
            "supervisor: daemon pid {} up (generation {restarts})",
            child.id()
        );

        // Wait for exit or cancellation, polling both every ~20ms.
        let code = loop {
            if cancel.is_cancelled() {
                eprintln!("supervisor: draining — forwarding SIGTERM to daemon");
                let code = terminate(&mut child);
                // The child drained through its own signal path; the
                // supervisor reports the interrupted-exit convention.
                let _ = code;
                return 130;
            }
            match child.try_wait() {
                Ok(Some(status)) => break status.code(),
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => {
                    eprintln!("supervisor: lost track of daemon: {e}");
                    break None;
                }
            }
        };

        match classify(code) {
            ChildEnd::Clean => {
                eprintln!("supervisor: daemon exited cleanly; done");
                return 0;
            }
            ChildEnd::Config => {
                eprintln!(
                    "supervisor: daemon exited with a configuration error (exit 2); \
                     restarting would repeat it — giving up"
                );
                return 2;
            }
            ChildEnd::Crash(c) => {
                let lifetime = born.elapsed();
                let fast = lifetime < cfg.healthy_after;
                if fast {
                    fast_crashes += 1;
                } else {
                    fast_crashes = 1; // this crash starts a new streak
                }
                let code_str = if c == -1 {
                    "killed by signal".to_string()
                } else {
                    format!("exit {c}")
                };
                if fast_crashes >= cfg.max_fast_crashes {
                    eprintln!(
                        "supervisor: daemon crashed ({code_str}) after {:.3}s — \
                         {fast_crashes} fast crashes in a row (limit {}); giving up",
                        lifetime.as_secs_f64(),
                        cfg.max_fast_crashes
                    );
                    return 1;
                }
                restarts += 1;
                let delay = cfg.backoff(fast_crashes);
                eprintln!(
                    "supervisor: daemon crashed ({code_str}) after {:.3}s — \
                     restart {restarts} in {}ms",
                    lifetime.as_secs_f64(),
                    delay.as_millis()
                );
                if backoff_sleep(delay, cancel) {
                    eprintln!("supervisor: drain requested during backoff; done");
                    return 130;
                }
            }
        }
    }
}

/// Read this process's restart generation from [`RESTARTS_ENV`]
/// (0 when unsupervised or first generation). Strict like every other
/// env knob: garbage is an error naming the variable.
///
/// # Errors
///
/// A non-numeric value.
pub fn restarts_from_env() -> Result<u64, String> {
    match std::env::var(RESTARTS_ENV) {
        Err(_) => Ok(0),
        Ok(v) => v
            .parse::<u64>()
            .map_err(|_| format!("invalid {RESTARTS_ENV}={v:?}: expected a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            max_fast_crashes: 3,
            healthy_after: Duration::from_secs(3600), // everything is "fast"
            backoff_initial: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let cfg = SupervisorConfig::default();
        assert_eq!(cfg.backoff(1), Duration::from_millis(50));
        assert_eq!(cfg.backoff(2), Duration::from_millis(100));
        assert_eq!(cfg.backoff(3), Duration::from_millis(200));
        assert_eq!(cfg.backoff(6), Duration::from_millis(1600));
        assert_eq!(cfg.backoff(7), Duration::from_secs(2), "cap");
        assert_eq!(cfg.backoff(60), Duration::from_secs(2), "no overflow");
    }

    #[test]
    fn clean_exit_ends_supervision_with_zero() {
        let cancel = CancelToken::new();
        let code = supervise(
            |_| {
                let mut c = Command::new("true");
                c.stdout(std::process::Stdio::null());
                c
            },
            &cfg(),
            &cancel,
        );
        assert_eq!(code, 0);
    }

    #[test]
    fn config_error_propagates_without_looping() {
        let spawned = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = spawned.clone();
        let cancel = CancelToken::new();
        let code = supervise(
            move |_| {
                seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut c = Command::new("sh");
                c.args(["-c", "exit 2"]);
                c
            },
            &cfg(),
            &cancel,
        );
        assert_eq!(code, 2);
        assert_eq!(
            spawned.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exit 2 must not be retried"
        );
    }

    #[test]
    fn crash_loop_gives_up_after_m_fast_crashes() {
        let spawned = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = spawned.clone();
        let cancel = CancelToken::new();
        let code = supervise(
            move |restarts| {
                seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                // The make_cmd hook sees monotonically increasing
                // generations.
                assert_eq!(restarts, seen.load(std::sync::atomic::Ordering::SeqCst) - 1);
                let mut c = Command::new("sh");
                c.args(["-c", "exit 7"]);
                c
            },
            &cfg(),
            &cancel,
        );
        assert_eq!(code, 1, "crash loop must give up loudly");
        assert_eq!(
            spawned.load(std::sync::atomic::Ordering::SeqCst),
            3,
            "exactly max_fast_crashes generations"
        );
    }

    #[test]
    fn transient_crash_is_healed() {
        // Generation 0 crashes; generation 1 exits cleanly. The
        // supervisor must end 0 with exactly two spawns — the shape the
        // wire proof relies on for crash@K-then-recover.
        let spawned = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = spawned.clone();
        let cancel = CancelToken::new();
        let code = supervise(
            move |restarts| {
                seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut c = Command::new("sh");
                if restarts == 0 {
                    c.args(["-c", "exit 134"]);
                } else {
                    c.args(["-c", "exit 0"]);
                }
                c
            },
            &cfg(),
            &cancel,
        );
        assert_eq!(code, 0);
        assert_eq!(spawned.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn restarts_env_parses_strictly() {
        std::env::remove_var(RESTARTS_ENV);
        assert_eq!(restarts_from_env().unwrap(), 0);
        std::env::set_var(RESTARTS_ENV, "3");
        assert_eq!(restarts_from_env().unwrap(), 3);
        std::env::set_var(RESTARTS_ENV, "many");
        let e = restarts_from_env().unwrap_err();
        assert!(e.contains(RESTARTS_ENV), "{e}");
        std::env::remove_var(RESTARTS_ENV);
    }
}
