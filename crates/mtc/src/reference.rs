//! Executable specification of the **min** cache: the original
//! `BTreeSet`-ordered implementation.
//!
//! [`crate::min::MinCache`] replaced this structure with a lazy-deletion
//! max-heap for speed. The two make *identical* decisions — victim
//! selection is the lexicographic maximum of `(next_use, block)` in
//! both — so this slower, obviously-correct version is kept as the
//! oracle for the `min_equivalence` property test and as the baseline
//! in the `table8_inefficiency` benchmark. Do not optimise it.

use crate::min::{MinConfig, MinWritePolicy};
use crate::nextuse::NextUseIndex;
use membw_cache::CacheStats;
use membw_trace::MemRef;
use std::collections::BTreeSet;
use std::collections::HashMap;

/// The pre-overhaul **min** cache: residency in a `HashMap` (SipHash),
/// victim order in a `BTreeSet<(next_use, block)>` whose maximum is the
/// min-victim.
#[derive(Debug)]
pub struct ReferenceMinCache {
    cfg: MinConfig,
    /// block -> (next_use, dirty)
    resident: HashMap<u64, (u64, bool)>,
    /// (next_use, block), ordered so the maximum is the min-victim.
    queue: BTreeSet<(u64, u64)>,
    stats: CacheStats,
}

impl ReferenceMinCache {
    /// An empty cache.
    pub fn new(cfg: MinConfig) -> Self {
        Self {
            cfg,
            resident: HashMap::new(),
            queue: BTreeSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// Simulate an entire reference stream including the end-of-run
    /// flush, and return the final counters.
    pub fn simulate(cfg: &MinConfig, refs: &[MemRef]) -> CacheStats {
        let index = NextUseIndex::build(refs, cfg.block_size);
        let mut cache = Self::new(*cfg);
        for (i, r) in refs.iter().enumerate() {
            cache.access(*r, r.block(cfg.block_size), index.next_use(i));
        }
        cache.flush()
    }

    fn furthest(&self) -> Option<(u64, u64)> {
        self.queue.iter().next_back().copied()
    }

    fn evict(&mut self, block: u64, next: u64) {
        let (_, dirty) = self
            .resident
            .remove(&block)
            .expect("evicted block is resident");
        let removed = self.queue.remove(&(next, block));
        debug_assert!(removed, "queue entry tracks residency");
        if dirty {
            self.stats.bytes_written_back += self.cfg.block_size;
        }
    }

    fn insert(&mut self, block: u64, next: u64, dirty: bool) {
        self.resident.insert(block, (next, dirty));
        self.queue.insert((next, block));
    }

    /// Present one access; see `MinCache::access`.
    pub fn access(&mut self, r: MemRef, block: u64, next_use: u64) -> bool {
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        let is_read = r.kind.is_read();
        if is_read {
            self.stats.reads += 1;
        } else {
            self.stats.writes += 1;
        }

        if let Some(&(cur_next, dirty)) = self.resident.get(&block) {
            self.queue.remove(&(cur_next, block));
            let dirty = dirty || !is_read;
            self.insert(block, next_use, dirty);
            if is_read {
                self.stats.read_hits += 1;
            } else {
                self.stats.write_hits += 1;
            }
            return true;
        }

        if is_read {
            self.stats.read_misses += 1;
        } else {
            self.stats.write_misses += 1;
        }

        let full = self.resident.len() as u64 >= self.cfg.capacity_blocks();
        let allocate = if !full {
            true
        } else if self.cfg.bypass {
            match self.furthest() {
                Some((worst_next, _)) => next_use < worst_next,
                None => true,
            }
        } else {
            true
        };

        match (is_read, self.cfg.write) {
            (true, _) => {
                self.stats.bytes_fetched += self.cfg.block_size;
                if allocate {
                    if full {
                        let (n, b) = self.furthest().expect("full cache has entries");
                        self.evict(b, n);
                    }
                    self.insert(block, next_use, false);
                }
            }
            (false, MinWritePolicy::Allocate) => {
                if allocate {
                    self.stats.bytes_fetched += self.cfg.block_size;
                    if full {
                        let (n, b) = self.furthest().expect("full cache has entries");
                        self.evict(b, n);
                    }
                    self.insert(block, next_use, true);
                } else {
                    self.stats.bytes_written_through += u64::from(r.size);
                }
            }
            (false, MinWritePolicy::Validate) => {
                if allocate {
                    if full {
                        let (n, b) = self.furthest().expect("full cache has entries");
                        self.evict(b, n);
                    }
                    self.insert(block, next_use, true);
                } else {
                    self.stats.bytes_written_through += u64::from(r.size);
                }
            }
        }
        false
    }

    /// Write back all dirty blocks and return the final counters.
    pub fn flush(&mut self) -> CacheStats {
        let dirty_blocks = self.resident.values().filter(|(_, d)| *d).count() as u64;
        self.stats.bytes_flushed += dirty_blocks * self.cfg.block_size;
        self.resident.clear();
        self.queue.clear();
        self.stats
    }
}
