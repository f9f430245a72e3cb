//! Machine configurations: the paper's experiments A–F (Tables 4–5).

use crate::dram::DramConfig;
use membw_cache::{Associativity, CacheConfig, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// The six latency-tolerance configurations of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Experiment {
    A,
    B,
    C,
    D,
    E,
    F,
}

impl Experiment {
    /// All six experiments in order.
    pub const ALL: [Experiment; 6] = [
        Experiment::A,
        Experiment::B,
        Experiment::C,
        Experiment::D,
        Experiment::E,
        Experiment::F,
    ];

    /// Single-letter label.
    pub fn label(&self) -> &'static str {
        match self {
            Experiment::A => "A",
            Experiment::B => "B",
            Experiment::C => "C",
            Experiment::D => "D",
            Experiment::E => "E",
            Experiment::F => "F",
        }
    }
}

/// Core model used by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreKind {
    /// Four-wide in-order superscalar (experiments A–C).
    InOrder,
    /// RUU-based out-of-order with speculative loads (experiments D–F).
    OutOfOrder,
}

/// Which memory model a run uses (the three runs of §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryMode {
    /// Every access completes in one cycle (measures `T_P`).
    Perfect,
    /// Real latencies, infinitely-wide contention-free paths (`T_I`).
    LatencyOnly,
    /// Full system with finite buses and queueing (`T`).
    Full,
}

/// Memory-hierarchy parameters (Table 4 plus the per-experiment block
/// sizes and cache-blocking flags of Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// L1 data capacity in bytes.
    pub l1_bytes: u64,
    /// L1 block size in bytes.
    pub l1_block: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 block size in bytes.
    pub l2_block: u64,
    /// L2 associativity (the paper: 4-way).
    pub l2_ways: u32,
    /// L1/L2 bus width in bytes (the paper: 128 bits = 16).
    pub bus1_width: u64,
    /// L1/L2 bus cycle in CPU cycles.
    pub bus1_ratio: u64,
    /// L2/memory bus width in bytes (the paper: 64 bits = 8).
    pub bus2_width: u64,
    /// L2/memory bus cycle in CPU cycles.
    pub bus2_ratio: u64,
    /// L2 access latency in CPU cycles (30 ns at the CPU clock).
    pub l2_latency: u64,
    /// Main-memory access latency in CPU cycles (90 ns).
    pub mem_latency: u64,
    /// DRAM bank/row model (Table 4: infinite banks by default).
    pub dram: DramConfig,
    /// `true` for a blocking L1 (misses serialize; hits still serviced).
    pub blocking: bool,
    /// MSHR count for a lockup-free L1.
    pub mshrs: usize,
    /// Tagged sequential prefetch in the L1 (experiments E–F).
    pub tagged_prefetch: bool,
    /// Write-buffer entries; 0 = infinite (Table 4's assumption).
    pub write_buffer_entries: usize,
    /// Instruction-cache capacity in bytes; 0 disables I-side modeling
    /// (the default — the paper's QPT traces are data-only, §4.1, and
    /// the synthetic uop streams carry only loop-site PCs).
    ///
    /// Setting this (e.g. 64 KiB per Table 4's SPEC95 I-cache) gates
    /// fetch on a modeled I-cache whose misses share the L2 and buses
    /// with data traffic.
    pub icache_bytes: u64,
}

impl MemorySpec {
    /// Functional L1 configuration.
    pub fn l1_config(&self) -> CacheConfig {
        CacheConfig::builder(self.l1_bytes, self.l1_block)
            .associativity(Associativity::Ways(1))
            .replacement(ReplacementPolicy::Lru)
            .tagged_prefetch(self.tagged_prefetch)
            .build()
            .expect("table-4 L1 geometry is valid")
    }

    /// Functional I-cache configuration (`None` when disabled).
    pub fn icache_config(&self) -> Option<CacheConfig> {
        if self.icache_bytes == 0 {
            return None;
        }
        Some(
            CacheConfig::builder(self.icache_bytes, 32)
                .associativity(Associativity::Ways(1))
                .replacement(ReplacementPolicy::Lru)
                .build()
                .expect("icache geometry is valid"),
        )
    }

    /// Functional L2 configuration.
    pub fn l2_config(&self) -> CacheConfig {
        CacheConfig::builder(self.l2_bytes, self.l2_block)
            .associativity(Associativity::Ways(self.l2_ways))
            .replacement(ReplacementPolicy::Lru)
            .build()
            .expect("table-4 L2 geometry is valid")
    }
}

/// A full machine: core + memory + predictor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Which experiment this is.
    pub experiment: Experiment,
    /// Core model.
    pub core: CoreKind,
    /// Issue (and fetch/commit) width.
    pub issue_width: u32,
    /// RUU slots (out-of-order only).
    pub ruu_slots: usize,
    /// Load/store-queue entries (also caps in-flight memory ops for the
    /// in-order core's two load/store units).
    pub lsq_entries: usize,
    /// Branch-predictor table entries.
    pub bpred_entries: usize,
    /// Cycles from mispredicted-branch resolution to fetch restart.
    pub mispredict_penalty: u64,
    /// Processor clock in MHz (used to derive the latency cycles below).
    pub cpu_mhz: u64,
    /// Memory-hierarchy parameters.
    pub mem: MemorySpec,
}

/// The [`MachineSpec`] fields a core reads: everything but `mem`,
/// `experiment` and `cpu_mhz`.
///
/// With [`MemoryMode::Perfect`] the memory system ignores its
/// [`MemorySpec`], so two machines with equal keys have equal `T_P` and
/// uop counts on any workload; see [`decompose_group`].
///
/// [`decompose_group`]: crate::decompose::decompose_group
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreKey {
    core: CoreKind,
    issue_width: u32,
    ruu_slots: usize,
    lsq_entries: usize,
    bpred_entries: usize,
    mispredict_penalty: u64,
}

fn ns_to_cycles(ns: u64, mhz: u64) -> u64 {
    // cycles = ns * GHz = ns * mhz / 1000, rounded up.
    (ns * mhz).div_ceil(1000)
}

impl MachineSpec {
    /// The fields of this machine its core reads.
    pub fn core_key(&self) -> CoreKey {
        // Exhaustive, so a new field must be sorted onto one side.
        let MachineSpec {
            experiment: _,
            core,
            issue_width,
            ruu_slots,
            lsq_entries,
            bpred_entries,
            mispredict_penalty,
            cpu_mhz: _,
            mem: _,
        } = *self;
        CoreKey {
            core,
            issue_width,
            ruu_slots,
            lsq_entries,
            bpred_entries,
            mispredict_penalty,
        }
    }

    /// The SPEC92-era configuration of experiment `e` (Tables 4–5):
    /// 128 KiB L1, 1 MiB 4-way L2, 300 MHz (400 MHz for F), bus/CPU clock
    /// ratio 3.
    pub fn spec92(e: Experiment) -> Self {
        let mhz = match e {
            Experiment::F => 400,
            _ => 300,
        };
        let (l1_block, l2_block) = match e {
            Experiment::B => (64, 128),
            _ => (32, 64),
        };
        let blocking = matches!(e, Experiment::A | Experiment::B);
        let prefetch = matches!(e, Experiment::E | Experiment::F);
        let (core, ruu, lsq) = match e {
            Experiment::A | Experiment::B | Experiment::C => (CoreKind::InOrder, 0, 8),
            Experiment::D | Experiment::E => (CoreKind::OutOfOrder, 16, 8),
            Experiment::F => (CoreKind::OutOfOrder, 64, 32),
        };
        let bpred = match e {
            Experiment::A | Experiment::B | Experiment::C => 8192,
            _ => 16384,
        };
        MachineSpec {
            experiment: e,
            core,
            issue_width: 4,
            ruu_slots: ruu,
            lsq_entries: lsq,
            bpred_entries: bpred,
            mispredict_penalty: 3,
            cpu_mhz: mhz,
            mem: MemorySpec {
                l1_bytes: 128 * 1024,
                l1_block,
                l2_bytes: 1024 * 1024,
                l2_block,
                l2_ways: 4,
                bus1_width: 16,
                bus1_ratio: 3,
                bus2_width: 8,
                bus2_ratio: 3,
                l2_latency: ns_to_cycles(30, mhz),
                mem_latency: ns_to_cycles(90, mhz),
                dram: DramConfig::infinite_banks(ns_to_cycles(90, mhz)),
                blocking,
                mshrs: 8,
                tagged_prefetch: prefetch,
                write_buffer_entries: 0,
                icache_bytes: 0,
            },
        }
    }

    /// The SPEC95-era configuration of experiment `e` (Tables 4–5):
    /// 64 KiB L1 D-cache, 2 MiB 4-way L2, 300 MHz (600 MHz for F),
    /// bus/CPU clock ratio 4, larger windows.
    pub fn spec95(e: Experiment) -> Self {
        let mhz = match e {
            Experiment::F => 600,
            _ => 300,
        };
        let (l1_block, l2_block) = match e {
            Experiment::B => (64, 128),
            _ => (32, 64),
        };
        let blocking = matches!(e, Experiment::A | Experiment::B);
        let prefetch = matches!(e, Experiment::E | Experiment::F);
        let (core, ruu, lsq) = match e {
            Experiment::A | Experiment::B | Experiment::C => (CoreKind::InOrder, 0, 32),
            Experiment::D | Experiment::E => (CoreKind::OutOfOrder, 64, 32),
            Experiment::F => (CoreKind::OutOfOrder, 128, 64),
        };
        let bpred = match e {
            Experiment::A | Experiment::B | Experiment::C => 8192,
            _ => 16384,
        };
        MachineSpec {
            experiment: e,
            core,
            issue_width: 4,
            ruu_slots: ruu,
            lsq_entries: lsq,
            bpred_entries: bpred,
            mispredict_penalty: 3,
            cpu_mhz: mhz,
            mem: MemorySpec {
                l1_bytes: 64 * 1024,
                l1_block,
                l2_bytes: 2 * 1024 * 1024,
                l2_block,
                l2_ways: 4,
                bus1_width: 16,
                bus1_ratio: 4,
                bus2_width: 8,
                bus2_ratio: 4,
                l2_latency: ns_to_cycles(30, mhz),
                mem_latency: ns_to_cycles(90, mhz),
                dram: DramConfig::infinite_banks(ns_to_cycles(90, mhz)),
                blocking,
                mshrs: 8,
                tagged_prefetch: prefetch,
                write_buffer_entries: 0,
                icache_bytes: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec92_a_matches_tables() {
        let m = MachineSpec::spec92(Experiment::A);
        assert_eq!(m.core, CoreKind::InOrder);
        assert!(m.mem.blocking);
        assert_eq!(m.mem.l1_block, 32);
        assert_eq!(m.mem.l2_block, 64);
        assert_eq!(m.mem.l1_bytes, 128 * 1024);
        assert_eq!(m.mem.l2_bytes, 1024 * 1024);
        assert_eq!(m.mem.l2_latency, 9, "30 ns at 300 MHz");
        assert_eq!(m.mem.mem_latency, 27, "90 ns at 300 MHz");
        assert!(!m.mem.tagged_prefetch);
    }

    #[test]
    fn spec92_b_doubles_blocks() {
        let m = MachineSpec::spec92(Experiment::B);
        assert_eq!(m.mem.l1_block, 64);
        assert_eq!(m.mem.l2_block, 128);
    }

    #[test]
    fn spec92_f_is_most_aggressive() {
        let m = MachineSpec::spec92(Experiment::F);
        assert_eq!(m.core, CoreKind::OutOfOrder);
        assert_eq!(m.cpu_mhz, 400);
        assert_eq!(m.ruu_slots, 64);
        assert!(m.mem.tagged_prefetch);
        assert!(!m.mem.blocking);
        assert_eq!(m.mem.l2_latency, 12, "30 ns at 400 MHz");
    }

    #[test]
    fn spec95_scales_windows_and_clock() {
        let d = MachineSpec::spec95(Experiment::D);
        assert_eq!(d.ruu_slots, 64);
        let f = MachineSpec::spec95(Experiment::F);
        assert_eq!(f.ruu_slots, 128);
        assert_eq!(f.cpu_mhz, 600);
        assert_eq!(f.mem.mem_latency, 54, "90 ns at 600 MHz");
        assert_eq!(f.mem.l1_bytes, 64 * 1024);
        assert_eq!(f.mem.l2_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn cache_configs_build() {
        for e in Experiment::ALL {
            let m = MachineSpec::spec92(e);
            let _ = m.mem.l1_config();
            let _ = m.mem.l2_config();
            let m = MachineSpec::spec95(e);
            let _ = m.mem.l1_config();
            let _ = m.mem.l2_config();
        }
    }

    #[test]
    fn core_keys_group_abc_and_de() {
        for spec in [MachineSpec::spec92, MachineSpec::spec95] {
            let key = |e| spec(e).core_key();
            assert_eq!(key(Experiment::A), key(Experiment::B));
            assert_eq!(key(Experiment::A), key(Experiment::C));
            assert_eq!(key(Experiment::D), key(Experiment::E));
            assert_ne!(key(Experiment::C), key(Experiment::D));
            assert_ne!(key(Experiment::E), key(Experiment::F));
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Experiment::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
