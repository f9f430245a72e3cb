//! Victim caching (Jouppi \[24\]): a small fully-associative buffer that
//! catches conflict evictions from a direct-mapped cache.
//!
//! The paper cites victim caches among the techniques that trade hardware
//! for conflict misses; the `ablation` target uses this model to ask how
//! much of the cache/MTC traffic gap associativity alone closes.

use crate::cache::Cache;
use crate::config::{CacheConfig, WriteAllocate, WritePolicy};
use crate::stats::CacheStats;
use membw_trace::{AccessKind, MemRef};
use std::collections::VecDeque;

/// A direct-mapped (or any) main cache backed by a small FIFO victim
/// buffer holding recently evicted blocks.
///
/// Victim hits promote the block back into the main cache (swapping with
/// the displaced line) at zero below-traffic cost; blocks that age out of
/// the buffer write back their dirty words.
///
/// # Example
///
/// ```
/// use membw_cache::{CacheConfig, VictimCache};
/// use membw_trace::MemRef;
///
/// let cfg = CacheConfig::builder(256, 32).build()?;
/// let mut vc = VictimCache::new(cfg, 4);
/// vc.access(MemRef::read(0, 4));     // miss
/// vc.access(MemRef::read(256, 4));   // conflict-evicts block 0 into buffer
/// vc.access(MemRef::read(0, 4));     // victim hit: no new memory traffic
/// assert_eq!(vc.victim_hits(), 1);
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct VictimCache {
    main: Cache,
    buffer: VecDeque<(u64, u64)>, // (block_addr, dirty_word_mask)
    capacity: usize,
    stats: CacheStats,
    victim_hits: u64,
    full_mask: u64,
}

impl VictimCache {
    /// Build a victim-cached configuration with a buffer of
    /// `victim_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not write-back write-allocate (the only policy
    /// combination the promotion path supports), or if `victim_blocks`
    /// is 0.
    pub fn new(cfg: CacheConfig, victim_blocks: usize) -> Self {
        assert!(
            cfg.write_policy() == WritePolicy::WriteBack
                && cfg.write_allocate() == WriteAllocate::Allocate,
            "victim cache requires write-back write-allocate"
        );
        assert!(victim_blocks > 0, "victim buffer needs at least one block");
        let wpb = cfg.words_per_block();
        let full_mask = if wpb >= 64 {
            u64::MAX
        } else {
            (1u64 << wpb) - 1
        };
        Self {
            main: Cache::new(cfg),
            buffer: VecDeque::with_capacity(victim_blocks),
            capacity: victim_blocks,
            stats: CacheStats::default(),
            victim_hits: 0,
            full_mask,
        }
    }

    /// Combined statistics (main cache + buffer, counted here).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses that missed the main cache but hit the victim buffer.
    pub fn victim_hits(&self) -> u64 {
        self.victim_hits
    }

    /// Push a displaced line into the buffer, writing back whatever falls
    /// out the far end.
    fn demote(&mut self, block_addr: u64, dirty: u64) {
        self.buffer.push_back((block_addr, dirty));
        if self.buffer.len() > self.capacity {
            let (_, old_dirty) = self.buffer.pop_front().expect("buffer non-empty");
            if old_dirty != 0 {
                self.stats.bytes_written_back += self.main.config().block_size();
            }
        }
    }

    /// Present one access.
    ///
    /// Returns `true` on a main-cache or victim-buffer hit.
    ///
    /// # Panics
    ///
    /// Panics if the access straddles a block boundary (split upstream).
    pub fn access(&mut self, r: MemRef) -> bool {
        let block_size = self.main.config().block_size();
        assert!(
            r.fits_in_block(block_size),
            "straddling access must be split before a victim cache"
        );
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        let is_read = r.kind == AccessKind::Read;
        if is_read {
            self.stats.reads += 1;
        } else {
            self.stats.writes += 1;
        }

        if self.main.probe_touch(r) {
            if is_read {
                self.stats.read_hits += 1;
            } else {
                self.stats.write_hits += 1;
            }
            return true;
        }

        let block_addr = r.addr & !(block_size - 1);
        let need = self.main.word_mask(r);
        let write_dirty = if is_read { 0 } else { need };

        if let Some(pos) = self.buffer.iter().position(|(a, _)| *a == block_addr) {
            // Victim hit: promote, swap displaced line into the buffer.
            let (_, dirty) = self.buffer.remove(pos).expect("position valid");
            self.victim_hits += 1;
            if is_read {
                self.stats.read_hits += 1;
            } else {
                self.stats.write_hits += 1;
            }
            let displaced = self
                .main
                .swap_in(block_addr, self.full_mask, dirty | write_dirty);
            if let Some((addr, d)) = displaced {
                self.demote(addr, d);
            }
            return true;
        }

        // True miss: fetch the block from below.
        if is_read {
            self.stats.read_misses += 1;
        } else {
            self.stats.write_misses += 1;
        }
        self.stats.bytes_fetched += block_size;
        let displaced = self.main.swap_in(block_addr, self.full_mask, write_dirty);
        if let Some((addr, d)) = displaced {
            self.demote(addr, d);
        }
        false
    }

    /// Flush the main cache and buffer, counting dirty write-backs, and
    /// return the final statistics.
    pub fn flush(&mut self) -> CacheStats {
        let block_size = self.main.config().block_size();
        for (addr, dirty) in self.main.drain_lines() {
            let _ = addr;
            if dirty != 0 {
                self.stats.bytes_flushed += block_size;
            }
        }
        while let Some((_, dirty)) = self.buffer.pop_front() {
            if dirty != 0 {
                self.stats.bytes_flushed += block_size;
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(size: u64, blocks: usize) -> VictimCache {
        VictimCache::new(CacheConfig::builder(size, 32).build().unwrap(), blocks)
    }

    #[test]
    fn conflict_ping_pong_is_absorbed() {
        // Two blocks mapping to the same direct-mapped set, alternating.
        let mut v = vc(256, 4);
        let mut plain = Cache::new(CacheConfig::builder(256, 32).build().unwrap());
        let mut victim_traffic = 0;
        for i in 0..100u64 {
            let addr = if i % 2 == 0 { 0 } else { 256 };
            v.access(MemRef::read(addr, 4));
            plain.access(MemRef::read(addr, 4));
        }
        victim_traffic += v.flush().traffic_below();
        let plain_stats = plain.flush();
        assert_eq!(v.stats().demand_misses(), 2, "only the two cold misses");
        assert_eq!(plain_stats.demand_misses(), 100, "plain cache thrashes");
        assert!(victim_traffic < plain_stats.traffic_below() / 10);
    }

    #[test]
    fn dirty_blocks_write_back_once_aged_out() {
        let mut v = vc(64, 1); // 2-block main, 1-block buffer
        v.access(MemRef::write(0, 4)); // miss, dirty in main
        v.access(MemRef::read(64, 4)); // conflicts: dirty block 0 demoted
        v.access(MemRef::read(128, 4)); // demotes block 64; block 0 ages out dirty
        assert_eq!(v.stats().bytes_written_back, 32);
        let s = v.flush();
        assert_eq!(s.bytes_written_back, 32);
    }

    #[test]
    fn victim_hit_preserves_dirty_data() {
        let mut v = vc(64, 2);
        v.access(MemRef::write(0, 4)); // dirty
        v.access(MemRef::read(64, 4)); // demote dirty block 0
        assert!(v.access(MemRef::read(0, 4)), "victim hit promotes");
        let s = v.flush();
        // The dirty word must still be written back at flush.
        assert_eq!(s.bytes_flushed, 32);
    }

    #[test]
    fn write_hits_set_dirty_in_main() {
        let mut v = vc(256, 2);
        v.access(MemRef::read(0, 4));
        assert!(v.access(MemRef::write(4, 4)));
        let s = v.flush();
        assert_eq!(s.bytes_flushed, 32);
    }

    #[test]
    fn wide_main_cache_with_buffer_is_one_larger_lru_cache() {
        use crate::config::Associativity;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // A fully-associative LRU main cache of N blocks plus a B-block
        // victim buffer keeps the N + B most recently used blocks, so it
        // must count exactly like one N + B block LRU cache. N = 64 is
        // above the index threshold: every promotion (`swap_in`), probe
        // (`probe_touch`) and flush (`drain_lines`) runs on the block
        // index, and a stale entry would show up as a wrong hit.
        let fa = |blocks: u64| {
            CacheConfig::builder(blocks * 32, 32)
                .associativity(Associativity::Full)
                .build()
                .unwrap()
        };
        let mut v = VictimCache::new(fa(64), 64);
        let mut plain = Cache::new(fa(128));
        let mut rng = SmallRng::seed_from_u64(11);
        for round in 0..3 {
            for _ in 0..5000 {
                let addr = rng.gen_range(0..300u64) * 32 + rng.gen_range(0..8u64) * 4;
                let r = if rng.gen_range(0..3u32) == 0 {
                    MemRef::write(addr, 4)
                } else {
                    MemRef::read(addr, 4)
                };
                v.access(r);
                plain.access(r);
            }
            assert_eq!(v.flush(), plain.flush(), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "write-back write-allocate")]
    fn rejects_write_through() {
        let cfg = CacheConfig::builder(256, 32)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let _ = VictimCache::new(cfg, 2);
    }
}
