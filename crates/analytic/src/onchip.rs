//! §6 / Figure 5: unified processor/DRAM modules.
//!
//! The paper's long-term prediction: "off-chip communication is so
//! expensive that all of the system memory resides on the processor chip
//! (or module)… Off-chip accesses thus simply become communication with
//! another processor, and accesses to remote data have more in common
//! with a page fault than with a cache miss." This module provides the
//! simple average-access-cost algebra behind that argument, so the
//! `future_system` example can locate the crossover where a
//! unified module beats a conventional processor + off-chip-DRAM system.

use serde::{Deserialize, Serialize};

/// A conventional system: on-chip cache in front of off-chip DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConventionalSystem {
    /// Cache hit time in ns.
    pub hit_ns: f64,
    /// Off-chip access latency in ns (pin crossing + DRAM).
    pub offchip_ns: f64,
    /// Pin bandwidth in bytes/ns (GB/s).
    pub pin_bw: f64,
    /// Cache line size in bytes (transfer unit).
    pub line_bytes: f64,
}

impl ConventionalSystem {
    /// Average access time for `miss_ratio`, including the transfer time
    /// a line occupies the pins (the bandwidth term the paper insists
    /// on).
    ///
    /// # Panics
    ///
    /// Panics if `miss_ratio` is outside `[0, 1]`.
    pub fn avg_access_ns(&self, miss_ratio: f64) -> f64 {
        assert!((0.0..=1.0).contains(&miss_ratio), "miss ratio in [0,1]");
        let transfer = self.line_bytes / self.pin_bw;
        self.hit_ns + miss_ratio * (self.offchip_ns + transfer)
    }

    /// The utilization-adjusted access time: queueing inflates the
    /// off-chip term as offered traffic approaches pin bandwidth
    /// (M/M/1-style `1/(1-ρ)` growth).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not within `[0, 1)`.
    pub fn avg_access_ns_at_load(&self, miss_ratio: f64, utilization: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&utilization),
            "utilization in [0,1) — at 1.0 the queue diverges"
        );
        let transfer = self.line_bytes / self.pin_bw / (1.0 - utilization);
        assert!((0.0..=1.0).contains(&miss_ratio), "miss ratio in [0,1]");
        self.hit_ns + miss_ratio * (self.offchip_ns + transfer)
    }
}

/// A unified processor/memory module (Figure 5): SRAM cache banks among
/// on-chip DRAM banks, with remote modules reachable over a board-level
/// interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnifiedModule {
    /// Cache (SRAM) hit time in ns.
    pub hit_ns: f64,
    /// On-chip DRAM access in ns (no pin crossing).
    pub onchip_dram_ns: f64,
    /// Remote-module access in ns ("more in common with a page fault").
    pub remote_ns: f64,
    /// Fraction of memory accesses whose data lives on this module.
    pub local_fraction: f64,
}

impl UnifiedModule {
    /// Average access time for `miss_ratio` misses out of the SRAM.
    ///
    /// # Panics
    ///
    /// Panics if `miss_ratio` or `local_fraction` is outside `[0, 1]`.
    pub fn avg_access_ns(&self, miss_ratio: f64) -> f64 {
        assert!((0.0..=1.0).contains(&miss_ratio), "miss ratio in [0,1]");
        assert!(
            (0.0..=1.0).contains(&self.local_fraction),
            "local fraction in [0,1]"
        );
        let miss_cost = self.local_fraction * self.onchip_dram_ns
            + (1.0 - self.local_fraction) * self.remote_ns;
        self.hit_ns + miss_ratio * miss_cost
    }

    /// Smallest local fraction at which this module beats `conventional`
    /// at the given load, or `None` if even 100 % locality loses.
    pub fn break_even_locality(
        &self,
        conventional: &ConventionalSystem,
        miss_ratio: f64,
        utilization: f64,
    ) -> Option<f64> {
        let target = conventional.avg_access_ns_at_load(miss_ratio, utilization);
        // avg = hit + m*(f*on + (1-f)*remote) <= target, solve for f.
        let m = miss_ratio;
        if m == 0.0 {
            return if self.hit_ns <= target {
                Some(0.0)
            } else {
                None
            };
        }
        let need = (target - self.hit_ns) / m; // allowed miss cost
        let span = self.remote_ns - self.onchip_dram_ns;
        if span <= 0.0 {
            return if self.onchip_dram_ns <= need {
                Some(0.0)
            } else {
                None
            };
        }
        let f = (self.remote_ns - need) / span;
        if f <= 0.0 {
            Some(0.0)
        } else if f <= 1.0 {
            Some(f)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conventional() -> ConventionalSystem {
        ConventionalSystem {
            hit_ns: 2.0,
            offchip_ns: 90.0,
            pin_bw: 0.8, // 800 MB/s
            line_bytes: 32.0,
        }
    }

    fn unified(local: f64) -> UnifiedModule {
        UnifiedModule {
            hit_ns: 2.0,
            onchip_dram_ns: 25.0,
            remote_ns: 400.0,
            local_fraction: local,
        }
    }

    #[test]
    fn fully_local_module_beats_conventional() {
        let c = conventional().avg_access_ns(0.05);
        let u = unified(1.0).avg_access_ns(0.05);
        assert!(u < c, "{u} vs {c}");
    }

    #[test]
    fn mostly_remote_module_loses() {
        let c = conventional().avg_access_ns(0.05);
        let u = unified(0.0).avg_access_ns(0.05);
        assert!(u > c, "{u} vs {c}");
    }

    #[test]
    fn queueing_inflates_the_conventional_system() {
        let c = conventional();
        let idle = c.avg_access_ns_at_load(0.05, 0.0);
        let busy = c.avg_access_ns_at_load(0.05, 0.9);
        assert!(busy > idle * 1.5, "{busy} vs {idle}");
        assert!((c.avg_access_ns(0.05) - idle).abs() < 1e-12);
    }

    #[test]
    fn break_even_locality_moves_with_load() {
        let u = unified(0.5);
        let relaxed = u
            .break_even_locality(&conventional(), 0.05, 0.0)
            .expect("beatable when idle");
        let stressed = u
            .break_even_locality(&conventional(), 0.05, 0.95)
            .expect("beatable under load");
        // The more the pins queue, the less locality the unified module
        // needs — the paper's argument for the design.
        assert!(stressed <= relaxed, "{stressed} vs {relaxed}");
        // Verify the break-even point actually breaks even.
        let mut at = u;
        at.local_fraction = relaxed;
        let c = conventional().avg_access_ns_at_load(0.05, 0.0);
        assert!((at.avg_access_ns(0.05) - c).abs() < 1e-6);
    }

    #[test]
    fn zero_miss_ratio_compares_hit_times() {
        let u = unified(0.0);
        assert_eq!(u.break_even_locality(&conventional(), 0.0, 0.0), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "miss ratio")]
    fn rejects_bad_miss_ratio() {
        let _ = conventional().avg_access_ns(1.5);
    }
}
