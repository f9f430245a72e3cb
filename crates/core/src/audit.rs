//! Runtime invariant auditor: the paper's identities, checked on every
//! run instead of only in the test suite.
//!
//! The decomposition of §3 is only meaningful while its defining
//! inequalities hold (`T ≥ T_I ≥ T_P ≥ 0`, Eq. 1–4, and the fraction
//! closure `f_P + f_L + f_B = 1`), and Table 8's inefficiency is only a
//! lower-bound statement while `G = D_cache / D_MTC ≥ 1` (Eq. 6) — i.e.
//! while the MTC really moves no more bytes than any real cache of the
//! same capacity (§5). Every `run_*` entry point feeds an [`Auditor`]
//! with its cells before returning, so a regression, a miscompiled hot
//! loop, or a corrupt replayed artifact is caught at run time, in the
//! run it poisons, naming the exact (benchmark, experiment) cell.
//!
//! Three levels, selected by `repro --audit {off,warn,strict}`:
//!
//! * **off** — checks are skipped entirely;
//! * **warn** (default) — violations print structured warnings on
//!   stderr (stdout stays byte-identical) and the run proceeds;
//! * **strict** — violations become
//!   [`MembwError::InvariantViolation`](crate::MembwError) and the
//!   target fails.
//!
//! The invariants enforced, with their paper anchors:
//!
//! | id | invariant | paper |
//! |----|-----------|-------|
//! | `time-order` | `T ≥ T_I ≥ T_P ≥ 0`, `T_P > 0` | Eq. 1–4 |
//! | `fraction-closure` | `f_P + f_L + f_B ≈ 1`, each in `[0, 1]` | Eq. 2–4 |
//! | `traffic-ratio` | every reported `R > 0` and finite | Eq. 5, Table 7 |
//! | `inefficiency` | `G ≥ 1` | Eq. 6, Table 8 |
//! | `mtc-bound` | MTC traffic ≤ any real cache's traffic at equal capacity | §5 |
//! | `finite` / `positive` | reported scalars are finite (and positive where required) | — |
//! | `sweep-exact` | one-pass sweep-engine cells equal direct simulation (`MEMBW_SWEEP_VERIFY=1`) | — |
//!
//! The integration suites (`tests/decomposition_invariants.rs`,
//! `tests/mtc_bounds.rs`) call the same checks through
//! [`Auditor::strict`], so test-time and run-time invariants cannot
//! drift apart.

use crate::error::MembwError;
use crate::runner::counters::{self, Counter};
use membw_sim::Decomposition;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// How hard the auditor reacts to a violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditLevel {
    /// Skip all checks.
    Off,
    /// Check everything; report violations on stderr and keep going.
    #[default]
    Warn,
    /// Check everything; violations fail the target with
    /// [`MembwError::InvariantViolation`].
    Strict,
}

impl AuditLevel {
    /// The CLI spelling (`off` / `warn` / `strict`).
    pub fn as_str(self) -> &'static str {
        match self {
            AuditLevel::Off => "off",
            AuditLevel::Warn => "warn",
            AuditLevel::Strict => "strict",
        }
    }
}

impl std::str::FromStr for AuditLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(AuditLevel::Off),
            "warn" => Ok(AuditLevel::Warn),
            "strict" => Ok(AuditLevel::Strict),
            other => Err(format!(
                "unknown audit level '{other}' (expected off|warn|strict)"
            )),
        }
    }
}

/// Process-wide level set by `repro --audit` (encoded; 0 = Off,
/// 1 = Warn, 2 = Strict). Defaults to Warn.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(1);

thread_local! {
    /// Thread-local override installed by [`with_level`] (tests compare
    /// levels side by side without touching process state).
    static TL_LEVEL: Cell<Option<AuditLevel>> = const { Cell::new(None) };
}

fn encode(level: AuditLevel) -> u8 {
    match level {
        AuditLevel::Off => 0,
        AuditLevel::Warn => 1,
        AuditLevel::Strict => 2,
    }
}

fn decode(v: u8) -> AuditLevel {
    match v {
        0 => AuditLevel::Off,
        2 => AuditLevel::Strict,
        _ => AuditLevel::Warn,
    }
}

/// Set the process-wide audit level (`repro --audit LEVEL`).
pub fn set_level(level: AuditLevel) {
    GLOBAL_LEVEL.store(encode(level), Ordering::SeqCst);
}

/// The effective audit level on this thread.
pub fn configured_level() -> AuditLevel {
    TL_LEVEL
        .with(Cell::get)
        .unwrap_or_else(|| decode(GLOBAL_LEVEL.load(Ordering::SeqCst)))
}

/// Run `f` with the audit level forced to `level` on this thread,
/// restoring the previous override afterwards.
pub fn with_level<R>(level: AuditLevel, f: impl FnOnce() -> R) -> R {
    let prev = TL_LEVEL.with(|c| c.replace(Some(level)));
    struct Restore(Option<AuditLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_LEVEL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// One violated invariant: which target, which matrix cell, which
/// identity, and the measured values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The `run_*` target being audited (`"fig3"`, `"table8"`).
    pub target: String,
    /// The matrix cell (`"compress/F"`, `"swm @ 16KB"`).
    pub cell: String,
    /// Invariant id (`"time-order"`, `"inefficiency"`).
    pub invariant: &'static str,
    /// Human-readable measured-vs-expected detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: cell {}: {}: {}",
            self.target, self.cell, self.invariant, self.detail
        )
    }
}

/// Collects invariant checks for one `run_*` invocation.
///
/// Construct with [`Auditor::new`] (honours the configured level) or
/// [`Auditor::strict`] (tests), feed it cells, then [`Auditor::finish`].
#[derive(Debug)]
pub struct Auditor {
    target: String,
    level: AuditLevel,
    checks: u64,
    violations: Vec<Violation>,
}

/// Slack for floating-point identities: the decomposition fractions are
/// computed from exact cycle counts, so anything beyond rounding noise
/// is a real violation.
const EPS: f64 = 1e-6;

impl Auditor {
    /// An auditor for `target` at the configured level.
    pub fn new(target: impl Into<String>) -> Self {
        Self::at(target, configured_level())
    }

    /// An auditor pinned to [`AuditLevel::Strict`] — the test suites use
    /// this so their assertions are exactly the runtime checks.
    pub fn strict(target: impl Into<String>) -> Self {
        Self::at(target, AuditLevel::Strict)
    }

    /// An auditor at an explicit level.
    pub fn at(target: impl Into<String>, level: AuditLevel) -> Self {
        Self {
            target: target.into(),
            level,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// `true` if this auditor performs no checks.
    pub fn is_off(&self) -> bool {
        self.level == AuditLevel::Off
    }

    /// Record one invariant check. `detail` is only rendered on
    /// failure, so passing checks cost no formatting.
    pub fn check(
        &mut self,
        cell: &str,
        invariant: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        if self.is_off() {
            return;
        }
        self.checks += 1;
        if ok {
            return;
        }
        let v = Violation {
            target: self.target.clone(),
            cell: cell.to_string(),
            invariant,
            detail: detail(),
        };
        if self.level == AuditLevel::Warn {
            eprintln!("audit[warn] {v}");
        }
        self.violations.push(v);
    }

    /// Eq. 1–4: `T ≥ T_I ≥ T_P > 0`, fraction closure, fractions in
    /// range — the §3 identities for one decomposition cell.
    pub fn decomposition(&mut self, cell: &str, d: &Decomposition) {
        if self.is_off() {
            return;
        }
        self.check(cell, "time-order", d.t >= d.t_i && d.t_i >= d.t_p, || {
            format!(
                "T ≥ T_I ≥ T_P violated (Eq. 1–4): T={} T_I={} T_P={}",
                d.t, d.t_i, d.t_p
            )
        });
        self.check(cell, "time-order", d.t_p > 0, || {
            format!("T_P must be positive (Eq. 2), got {}", d.t_p)
        });
        let sum = d.f_p + d.f_l + d.f_b;
        self.check(cell, "fraction-closure", (sum - 1.0).abs() <= EPS, || {
            format!(
                "f_P + f_L + f_B = {sum} (Eq. 2–4 require 1): f_P={} f_L={} f_B={}",
                d.f_p, d.f_l, d.f_b
            )
        });
        for (name, f) in [("f_P", d.f_p), ("f_L", d.f_l), ("f_B", d.f_b)] {
            self.check(
                cell,
                "fraction-closure",
                (-EPS..=1.0 + EPS).contains(&f),
                || format!("{name} = {f} outside [0, 1]"),
            );
        }
        self.check(cell, "positive", d.uops > 0, || {
            "decomposition executed zero uops".to_string()
        });
    }

    /// Eq. 5 / Table 7: a reported traffic ratio must be finite and
    /// positive (a zero or negative ratio means the instrument broke,
    /// not that the cache was perfect — oversized caches are reported
    /// as `None`/`<<<`, never as 0).
    pub fn traffic_ratio(&mut self, cell: &str, r: f64) {
        self.check(cell, "traffic-ratio", r.is_finite() && r > 0.0, || {
            format!("traffic ratio R = {r} must be finite and > 0 (Eq. 5)")
        });
    }

    /// Eq. 6 / Table 8: `G = D_cache / D_MTC ≥ 1`.
    pub fn inefficiency(&mut self, cell: &str, g: f64) {
        self.check(
            cell,
            "inefficiency",
            g.is_finite() && g >= 1.0 - EPS,
            || format!("G = {g} < 1 (Eq. 6: the MTC is a traffic lower bound)"),
        );
    }

    /// §5: the MTC moves no more bytes than a real cache of the same
    /// capacity on the same trace.
    pub fn mtc_bound(&mut self, cell: &str, mtc_traffic: u64, cache_traffic: u64) {
        self.check(cell, "mtc-bound", mtc_traffic <= cache_traffic, || {
            format!(
                "MTC traffic {mtc_traffic} exceeds the equal-capacity cache's {cache_traffic} (§5)"
            )
        });
    }

    /// Sweep-engine cross-check (`MEMBW_SWEEP_VERIFY=1`): a cell
    /// computed by the one-pass stack engine must reproduce direct
    /// per-configuration simulation exactly.
    pub fn sweep_exact(&mut self, cell: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.check(cell, "sweep-exact", ok, detail);
    }

    /// A reported scalar that must be finite and strictly positive.
    pub fn positive(&mut self, cell: &str, what: &str, v: f64) {
        self.check(cell, "positive", v.is_finite() && v > 0.0, || {
            format!("{what} = {v} must be finite and > 0")
        });
    }

    /// A reported scalar that must be finite.
    pub fn finite(&mut self, cell: &str, what: &str, v: f64) {
        self.check(cell, "finite", v.is_finite(), || {
            format!("{what} = {v} must be finite")
        });
    }

    /// A fraction-like scalar that must sit in `[0, 1]` (± rounding).
    pub fn unit_fraction(&mut self, cell: &str, what: &str, v: f64) {
        self.check(
            cell,
            "fraction-closure",
            v.is_finite() && (-EPS..=1.0 + EPS).contains(&v),
            || format!("{what} = {v} outside [0, 1]"),
        );
    }

    /// Number of checks evaluated so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Close out the audit: add the counts to the process-wide
    /// [`counters`] and, under [`AuditLevel::Strict`], fail on any violation.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::InvariantViolation`] carrying every
    /// recorded violation when the level is strict and at least one
    /// check failed.
    pub fn finish(self) -> Result<(), MembwError> {
        if self.is_off() {
            return Ok(());
        }
        counters::add(Counter::AuditTargets, 1);
        counters::add(Counter::AuditChecks, self.checks);
        counters::add(Counter::AuditViolations, self.violations.len() as u64);
        if self.level == AuditLevel::Strict && !self.violations.is_empty() {
            return Err(MembwError::InvariantViolation {
                violations: self.violations,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_decomposition() -> Decomposition {
        Decomposition {
            t_p: 100,
            t_i: 150,
            t: 200,
            f_p: 0.5,
            f_l: 0.25,
            f_b: 0.25,
            full_mem: Default::default(),
            uops: 400,
        }
    }

    #[test]
    fn levels_parse_and_roundtrip() {
        for l in [AuditLevel::Off, AuditLevel::Warn, AuditLevel::Strict] {
            assert_eq!(l.as_str().parse::<AuditLevel>().unwrap(), l);
        }
        assert!("loud".parse::<AuditLevel>().is_err());
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let base = configured_level();
        let inside = with_level(AuditLevel::Strict, configured_level);
        assert_eq!(inside, AuditLevel::Strict);
        assert_eq!(configured_level(), base);
    }

    #[test]
    fn healthy_cells_pass_strict() {
        let mut a = Auditor::strict("t");
        a.decomposition("bench/A", &healthy_decomposition());
        a.traffic_ratio("bench @ 1KB", 0.51);
        a.inefficiency("bench @ 1KB", 3.4);
        a.mtc_bound("bench @ 1KB", 100, 340);
        assert!(a.violations().is_empty());
        a.finish().expect("healthy");
    }

    #[test]
    fn strict_mode_fails_with_named_cell() {
        let mut a = Auditor::strict("table8");
        a.inefficiency("compress @ 16KB", 0.7);
        let err = a.finish().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("table8"), "{msg}");
        assert!(msg.contains("compress @ 16KB"), "{msg}");
        assert!(msg.contains("inefficiency"), "{msg}");
    }

    #[test]
    fn warn_mode_records_but_does_not_fail() {
        let mut a = Auditor::at("fig3", AuditLevel::Warn);
        let mut bad = healthy_decomposition();
        bad.t_i = 999; // T_I > T
        a.decomposition("swm/F", &bad);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].invariant, "time-order");
        a.finish().expect("warn never fails the run");
    }

    #[test]
    fn off_mode_checks_nothing() {
        let mut a = Auditor::at("fig3", AuditLevel::Off);
        a.inefficiency("x", f64::NAN);
        a.traffic_ratio("x", -3.0);
        assert_eq!(a.checks(), 0);
        assert!(a.violations().is_empty());
        a.finish().expect("off");
    }

    #[test]
    fn broken_identities_are_each_caught() {
        let mut a = Auditor::strict("t");
        let mut d = healthy_decomposition();
        d.f_b = 0.9; // closure broken
        a.decomposition("c", &d);
        assert!(a
            .violations()
            .iter()
            .any(|v| v.invariant == "fraction-closure"));
        let mut a = Auditor::strict("t");
        a.mtc_bound("c", 500, 400);
        assert_eq!(a.violations().len(), 1);
        let mut a = Auditor::strict("t");
        a.traffic_ratio("c", 0.0);
        a.traffic_ratio("c", f64::INFINITY);
        assert_eq!(a.violations().len(), 2);
    }

    #[test]
    fn finish_adds_to_the_audit_counters() {
        let audit = || {
            [
                Counter::AuditChecks,
                Counter::AuditViolations,
                Counter::AuditTargets,
            ]
            .map(counters::get)
        };
        let before = audit();
        let mut a = Auditor::strict("sum");
        a.positive("c", "x", 1.0);
        a.positive("c", "y", -1.0);
        let _ = a.finish();
        let after = audit();
        assert!(after[0] >= before[0] + 2);
        assert!(after[1] > before[1]);
        assert!(after[2] > before[2]);
    }
}
