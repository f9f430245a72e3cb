//! Sweep-mode selection — the one place a traffic suite's engine is
//! chosen — and the runtime cross-check switch.

use crate::lru::{direct_reference, sweep_lru, SweepSpec};
use membw_cache::CacheStats;
use membw_mtc::factors::{factor_gap, factor_gaps, FactorGap, TABLE10_FACTORS};
use membw_mtc::{min_sweep, MinCache, MinConfig};
use membw_trace::Workload;

/// How a traffic suite computes its capacity axis.
///
/// The suites never branch on the mode themselves: they call
/// [`SweepMode::lru`], [`SweepMode::min`] and [`SweepMode::factor_gaps`],
/// so the direct-simulation oracle exists once, here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// One-pass stack-distance sweep engine (default): one trace pass
    /// yields every capacity.
    #[default]
    Stack,
    /// Independent direct simulation per capacity (the pre-engine
    /// behavior, kept as the cross-check oracle).
    Direct,
}

impl SweepMode {
    /// Stable lowercase name, used in checkpoint keys and CLI output.
    pub fn key(self) -> &'static str {
        match self {
            SweepMode::Stack => "stack",
            SweepMode::Direct => "direct",
        }
    }

    /// Parse a `--sweep` argument value.
    ///
    /// # Errors
    ///
    /// Returns the offending string if it is not `stack` or `direct`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "stack" => Ok(SweepMode::Stack),
            "direct" => Ok(SweepMode::Direct),
            other => Err(format!(
                "unknown sweep mode '{other}' (expected stack|direct)"
            )),
        }
    }

    /// LRU cache statistics for `spec` at every capacity (`None` where
    /// the geometry is invalid): one [`sweep_lru`] pass over
    /// `workload`, or one [`direct_reference`] simulation per capacity.
    pub fn lru(
        self,
        spec: &SweepSpec,
        capacities: &[u64],
        workload: &dyn Workload,
    ) -> Vec<Option<CacheStats>> {
        match self {
            SweepMode::Stack => sweep_lru(spec, capacities, workload),
            SweepMode::Direct => capacities
                .iter()
                .map(|&cap| direct_reference(spec, cap, workload))
                .collect(),
        }
    }

    /// **min** cache statistics for every configuration: one
    /// [`min_sweep`] over `workload` (two streamed passes), or one
    /// [`MinCache::simulate_workload`] per configuration.
    pub fn min(self, cfgs: &[MinConfig], workload: &dyn Workload) -> Vec<CacheStats> {
        match self {
            SweepMode::Stack => min_sweep(cfgs, workload),
            SweepMode::Direct => cfgs
                .iter()
                .map(|cfg| MinCache::simulate_workload(cfg, workload))
                .collect(),
        }
    }

    /// Every Table 10 factor gap for `workload` at `capacity_bytes`, one
    /// entry per [`TABLE10_FACTORS`] row: one shared-index
    /// [`factor_gaps`] shot, or one [`factor_gap`] measurement per row.
    pub fn factor_gaps<W: Workload + ?Sized>(
        self,
        workload: &W,
        capacity_bytes: u64,
    ) -> Vec<Option<FactorGap>> {
        match self {
            SweepMode::Stack => factor_gaps(workload, capacity_bytes),
            SweepMode::Direct => TABLE10_FACTORS
                .iter()
                .map(|spec| factor_gap(spec, workload, capacity_bytes))
                .collect(),
        }
    }
}

impl std::fmt::Display for SweepMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Environment variable that turns on the runtime stack-vs-direct
/// cross-check (`1` = on, `0`/unset = off). When on, core's one
/// sweep-batch helper (`membw_core::error::sweep_jobs`) reruns every
/// stack-mode job under [`SweepMode::Direct`] and routes any divergence
/// through the auditor as an `InvariantViolation`.
pub const SWEEP_VERIFY_ENV: &str = "MEMBW_SWEEP_VERIFY";

/// Parse a [`SWEEP_VERIFY_ENV`] value.
///
/// # Errors
///
/// Returns a usage message for anything but `0` or `1`.
pub fn parse_verify(s: &str) -> Result<bool, String> {
    match s {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(format!("{SWEEP_VERIFY_ENV} must be 0 or 1, got '{other}'")),
    }
}

/// `true` if the runtime sweep cross-check is requested via
/// [`SWEEP_VERIFY_ENV`]. Malformed values read as off (`repro` and
/// `repro serve` reject them up front).
pub fn verify_requested() -> bool {
    std::env::var(SWEEP_VERIFY_ENV)
        .ok()
        .and_then(|v| parse_verify(&v).ok())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_modes() {
        assert_eq!(SweepMode::parse("stack").unwrap(), SweepMode::Stack);
        assert_eq!(SweepMode::parse("direct").unwrap(), SweepMode::Direct);
        assert!(SweepMode::parse("fast").is_err());
        assert_eq!(SweepMode::default(), SweepMode::Stack);
        assert_eq!(SweepMode::Stack.key(), "stack");
    }

    #[test]
    fn parses_verify_values() {
        assert_eq!(parse_verify("1"), Ok(true));
        assert_eq!(parse_verify("0"), Ok(false));
        assert!(parse_verify("yes").is_err());
    }
}
