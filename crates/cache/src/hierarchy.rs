//! Multi-level cache hierarchies.

use crate::cache::{BelowRequest, Cache};
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use membw_trace::MemRef;

/// A stack of caches (level 0 nearest the processor) in front of memory.
///
/// Each level's below-traffic is presented to the next level down;
/// whatever the last level emits is counted as memory traffic. This is
/// the structure behind the paper's multi-level traffic ratios (Eq. 4)
/// and effective pin bandwidth (Eq. 5).
///
/// # Example
///
/// ```
/// use membw_cache::{CacheConfig, Hierarchy};
/// use membw_trace::{pattern::Strided, Workload};
///
/// let l1 = CacheConfig::builder(1024, 32).build()?;
/// let l2 = CacheConfig::builder(8192, 64).build()?;
/// let mut h = Hierarchy::new(vec![l1, l2]);
/// Strided::reads(0, 4, 2048).repeat(2).for_each_mem_ref(&mut |r| { h.access(r); });
/// h.flush();
/// // The 8 KiB L2 holds the entire 8 KiB sweep; round two hits in L2.
/// let ratios = h.traffic_ratios();
/// assert!(ratios[1] < ratios[0]);
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    memory_traffic: u64,
    flushed: bool,
    /// Reusable transfer buffers: the per-access cascade is heap-free
    /// once these reach their steady-state capacity.
    pending: Vec<BelowRequest>,
    next: Vec<BelowRequest>,
}

impl Hierarchy {
    /// Build a hierarchy from per-level configurations, level 0 first.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        assert!(!configs.is_empty(), "hierarchy needs at least one level");
        Self {
            levels: configs.into_iter().map(Cache::new).collect(),
            memory_traffic: 0,
            flushed: false,
            pending: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The cache at `level` (0 = closest to the processor).
    pub fn level(&self, level: usize) -> &Cache {
        &self.levels[level]
    }

    /// Present one processor reference; returns `true` if it hit in L1.
    pub fn access(&mut self, r: MemRef) -> bool {
        let outcome = self.levels[0].access(r);
        let hit = outcome.hit;
        let mut pending = std::mem::take(&mut self.pending);
        let mut next = std::mem::take(&mut self.next);
        pending.clear();
        pending.extend_from_slice(outcome.below());
        for lvl in 1..self.levels.len() {
            next.clear();
            for &req in &pending {
                let o = self.levels[lvl].access(below_to_ref(req));
                next.extend_from_slice(o.below());
            }
            std::mem::swap(&mut pending, &mut next);
        }
        self.memory_traffic += pending.iter().map(|b| b.bytes).sum::<u64>();
        self.pending = pending;
        self.next = next;
        hit
    }

    /// Flush every level, cascading write-backs downward. Idempotent.
    pub fn flush(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        for lvl in 0..self.levels.len() {
            let (mut pending, _) = self.levels[lvl].flush_collect();
            for nxt in lvl + 1..self.levels.len() {
                let mut next = Vec::new();
                for req in pending {
                    let o = self.levels[nxt].access(below_to_ref(req));
                    next.extend_from_slice(o.below());
                }
                pending = next;
            }
            self.memory_traffic += pending.iter().map(|b| b.bytes).sum::<u64>();
        }
    }

    /// Per-level statistics snapshot.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.levels.iter().map(|c| *c.stats()).collect()
    }

    /// Bytes that reached memory (below the last level).
    pub fn memory_traffic(&self) -> u64 {
        self.memory_traffic
    }

    /// Traffic ratio `R_i` per level (Eq. 4): traffic below level `i`
    /// divided by traffic above it.
    ///
    /// Levels that received no traffic report a ratio of 0.
    pub fn traffic_ratios(&self) -> Vec<f64> {
        self.levels
            .iter()
            .map(|c| c.stats().traffic_ratio().unwrap_or(0.0))
            .collect()
    }
}

fn below_to_ref(req: BelowRequest) -> MemRef {
    let size = u16::try_from(req.bytes).expect("below-request fits in one transfer");
    if req.is_fetch() {
        MemRef::read(req.addr, size)
    } else {
        MemRef::write(req.addr, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(l1: u64, l2: u64) -> Hierarchy {
        Hierarchy::new(vec![
            CacheConfig::builder(l1, 32).build().unwrap(),
            CacheConfig::builder(l2, 64).build().unwrap(),
        ])
    }

    #[test]
    fn l2_filters_l1_misses() {
        let mut h = h(256, 4096);
        // Sweep 2 KiB twice: L1 (256B) misses both rounds; L2 (4 KiB)
        // holds everything and hits on the second round.
        for round in 0..2 {
            for w in 0..512u64 {
                h.access(MemRef::read(w * 4, 4));
            }
            let _ = round;
        }
        h.flush();
        let stats = h.stats();
        assert_eq!(stats[0].read_misses, 128, "64 blocks × 2 rounds");
        // L2 cold-misses 32 blocks of 64B in round one, hits in round two.
        assert_eq!(stats[1].read_misses, 32);
        assert_eq!(stats[1].read_hits, 96);
        assert_eq!(h.memory_traffic(), 32 * 64);
    }

    #[test]
    fn level_request_bytes_match_upper_traffic() {
        let mut h = h(256, 2048);
        for i in 0..1000u64 {
            let addr = (i * 52) % 8192;
            if i % 3 == 0 {
                h.access(MemRef::write(addr & !3, 4));
            } else {
                h.access(MemRef::read(addr & !3, 4));
            }
        }
        h.flush();
        let stats = h.stats();
        assert_eq!(
            stats[0].traffic_below(),
            stats[1].request_bytes,
            "L1's below traffic is exactly what L2 sees from above"
        );
    }

    #[test]
    fn memory_traffic_matches_last_level_traffic_below() {
        let mut h = h(256, 2048);
        for i in 0..2000u64 {
            h.access(MemRef::read((i * 4096) % (1 << 20), 4));
        }
        h.flush();
        let stats = h.stats();
        assert_eq!(h.memory_traffic(), stats[1].traffic_below());
    }

    #[test]
    fn flush_is_idempotent() {
        let mut h = h(256, 2048);
        h.access(MemRef::write(0, 4));
        h.flush();
        let t1 = h.memory_traffic();
        h.flush();
        assert_eq!(h.memory_traffic(), t1);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_hierarchy_panics() {
        let _ = Hierarchy::new(vec![]);
    }
}
