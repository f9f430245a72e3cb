//! Banked DRAM with open-page row buffers.
//!
//! Table 4 assumes "infinite banks", and §2.3 argues DRAM chips are
//! "unlikely to become a long-term performance bottleneck" thanks to
//! EDO/synchronous/Rambus parts. This model makes that assumption
//! testable: finite banks serialize same-bank accesses, and an open row
//! buffer makes consecutive same-row accesses cheaper — so `repro dram`
//! can measure how far from "infinite" a real part may be before the
//! conclusion changes.

use serde::{Deserialize, Serialize};

/// DRAM timing/geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of banks; `0` means infinite (the paper's Table 4).
    pub banks: u32,
    /// Full access latency in CPU cycles (row activate + column).
    pub access_cycles: u64,
    /// Row-buffer hit latency in CPU cycles (column access only).
    pub row_hit_cycles: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Bank-interleave granularity in bytes (consecutive chunks of this
    /// size go to consecutive banks).
    pub interleave_bytes: u64,
}

impl DramConfig {
    /// The paper's Table 4 memory: 90 ns at `mhz`, infinite banks.
    pub fn infinite_banks(access_cycles: u64) -> Self {
        Self {
            banks: 0,
            access_cycles,
            row_hit_cycles: access_cycles / 3,
            row_bytes: 2048,
            interleave_bytes: 64,
        }
    }

    /// A finite-banked part with open-page policy.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero (use [`DramConfig::infinite_banks`]) or
    /// sizes are not powers of two.
    pub fn banked(banks: u32, access_cycles: u64, row_hit_cycles: u64) -> Self {
        assert!(banks > 0, "use infinite_banks for the paper's model");
        Self {
            banks,
            access_cycles,
            row_hit_cycles,
            row_bytes: 2048,
            interleave_bytes: 64,
        }
    }
}

/// Runtime DRAM state: per-bank busy-until and open row.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    busy_until: Vec<u64>,
    open_row: Vec<Option<u64>>,
    accesses: u64,
    row_hits: u64,
    bank_wait_cycles: u64,
}

impl Dram {
    /// Build an idle DRAM.
    pub fn new(cfg: DramConfig) -> Self {
        let n = cfg.banks.max(1) as usize;
        Self {
            cfg,
            busy_until: vec![0; n],
            open_row: vec![None; n],
            accesses: 0,
            row_hits: 0,
            bank_wait_cycles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn bank_of(&self, addr: u64) -> usize {
        if self.cfg.banks == 0 {
            0
        } else {
            ((addr / self.cfg.interleave_bytes) % u64::from(self.cfg.banks)) as usize
        }
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / self.cfg.row_bytes
    }

    /// Request the data at `addr` at cycle `now`; returns the cycle the
    /// bank delivers it.
    pub fn access(&mut self, now: u64, addr: u64) -> u64 {
        self.accesses += 1;
        if self.cfg.banks == 0 {
            // Infinite banks: pure latency, every access a "row miss"
            // (conservative, matching the paper's flat 90 ns).
            return now + self.cfg.access_cycles;
        }
        let bank = self.bank_of(addr);
        let row = self.row_of(addr);
        let start = now.max(self.busy_until[bank]);
        self.bank_wait_cycles += start - now;
        let latency = if self.open_row[bank] == Some(row) {
            self.row_hits += 1;
            self.cfg.row_hit_cycles
        } else {
            self.open_row[bank] = Some(row);
            self.cfg.access_cycles
        };
        let done = start + latency;
        self.busy_until[bank] = done;
        done
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Row-buffer hits (always 0 with infinite banks).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Cycles spent waiting for busy banks.
    pub fn bank_wait_cycles(&self) -> u64 {
        self.bank_wait_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_banks_are_flat_latency() {
        let mut d = Dram::new(DramConfig::infinite_banks(27));
        assert_eq!(d.access(0, 0), 27);
        assert_eq!(d.access(0, 0), 27, "no serialization");
        assert_eq!(d.access(100, 1 << 30), 127);
        assert_eq!(d.bank_wait_cycles(), 0);
    }

    #[test]
    fn same_bank_accesses_serialize() {
        let mut d = Dram::new(DramConfig::banked(4, 27, 9));
        // Same bank (same interleave chunk), different rows.
        let t1 = d.access(0, 0);
        let t2 = d.access(0, 4096 * 4); // bank 0 again (16KB = 64 chunks, 64%4=0)
        assert_eq!(t1, 27);
        assert!(t2 > t1, "bank busy: {t2}");
        assert!(d.bank_wait_cycles() > 0);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(DramConfig::banked(4, 27, 9));
        let t1 = d.access(0, 0);
        let t2 = d.access(0, 64); // next chunk → bank 1
        assert_eq!(t1, 27);
        assert_eq!(t2, 27, "parallel banks");
    }

    #[test]
    fn open_row_hits_are_faster() {
        let mut d = Dram::new(DramConfig::banked(2, 27, 9));
        let t1 = d.access(0, 0); // opens row 0 of bank 0
        let t2 = d.access(t1, 0); // row hit
        assert_eq!(t2 - t1, 9);
        assert_eq!(d.row_hits(), 1);
        // A different row in the same bank closes the page.
        let t3 = d.access(t2, 4096); // row 2, bank 0 (4096/64=64 chunks, 64%2=0)
        assert_eq!(t3 - t2, 27);
    }

    #[test]
    fn burst_to_one_bank_queues_linearly() {
        let mut d = Dram::new(DramConfig::banked(2, 20, 5));
        let mut last = 0;
        for i in 0..8u64 {
            // All to bank 0, alternating rows → no row hits.
            last = d.access(0, i * 128 * 2 * 2048);
        }
        assert_eq!(last, 8 * 20, "fully serialized");
    }
}
