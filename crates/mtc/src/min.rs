//! Two-pass Belady **min** cache simulation with bypass and
//! write-validate.
//!
//! # Hot-loop structure
//!
//! Victim selection is a *max* query over `(next_use, block)` pairs, hit
//! upkeep is a re-key, and eviction is a delete-max. The original
//! implementation (preserved as [`crate::reference::ReferenceMinCache`])
//! kept every resident pair in a `BTreeSet`, paying two tree edits per
//! hit and a tree walk per miss. [`MinCache`] instead uses a
//! **lazy-deletion binary max-heap**: hits only *push* the re-keyed pair
//! and leave the stale one in place; the victim query pops entries whose
//! priority disagrees with the residency map until the top is current.
//! Since a block's successive next-use keys strictly increase (each is a
//! later trace position, then [`crate::nextuse::NEVER`]), a stale pair
//! can never collide with a live one, and the lexicographic
//! `(next_use, block)` heap order reproduces the `BTreeSet` maximum
//! exactly — including the tie-break on block number — so both
//! implementations produce identical counters on any trace (enforced by
//! the `min_equivalence` property test). The residency map itself is
//! keyed with [`membw_trace::FastHashMap`] rather than SipHash.
//!
//! # Memory
//!
//! A hit-heavy stream would leave one stale pair per hit in the heap.
//! Once the heap holds more than `2·resident + 1024` pairs it is
//! compacted to the live pairs only, so it stays proportional to the
//! cache, not the trace; the live set (and so every victim) is
//! unchanged. [`MinCache::simulate_workload`] also keeps the reference
//! stream itself out of memory: it generates the workload twice and
//! holds only the 8-byte next-use link per reference in between.

use crate::nextuse::NextUseIndex;
use membw_cache::CacheStats;
use membw_trace::{FastHashMap, MemRef, Workload};
use std::collections::BinaryHeap;

/// Stale heap pairs tolerated beyond twice the resident count before
/// [`MinCache`] compacts its heap.
pub(crate) const HEAP_SLACK: usize = 1024;

/// Write-allocation policy of a **min** cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinWritePolicy {
    /// Write misses fetch the block before writing (write-allocate).
    Allocate,
    /// Write misses allocate by overwriting, with no fetch
    /// (write-validate [Jouppi 25]). Requires one-word blocks.
    Validate,
}

/// Configuration of a **min**-replacement, fully-associative cache.
///
/// The paper's MTC (§5.2) is [`MinConfig::mtc`]: one-word blocks, bypass,
/// write-validate, write-back. The Table 10 factor experiments also use
/// **min** caches with 32-byte blocks and write-allocate — build those
/// with [`MinConfig::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinConfig {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Transfer/address block size in bytes.
    pub block_size: u64,
    /// Write-miss policy.
    pub write: MinWritePolicy,
    /// Whether low-priority misses may bypass allocation.
    pub bypass: bool,
}

impl MinConfig {
    /// A general **min** cache.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two, the block does not divide
    /// the capacity, or write-validate is requested with multi-word
    /// blocks.
    pub fn new(capacity_bytes: u64, block_size: u64, write: MinWritePolicy, bypass: bool) -> Self {
        assert!(
            capacity_bytes.is_power_of_two() && block_size.is_power_of_two(),
            "sizes must be powers of two"
        );
        assert!(block_size >= 4, "blocks are at least one word");
        assert!(
            capacity_bytes >= block_size,
            "capacity must hold at least one block"
        );
        assert!(
            write == MinWritePolicy::Allocate || block_size == 4,
            "write-validate min caches use one-word blocks (as in the paper)"
        );
        Self {
            capacity_bytes,
            block_size,
            write,
            bypass,
        }
    }

    /// The paper's minimal-traffic cache of `capacity_bytes`: fully
    /// associative, 4-byte blocks, **min** replacement, bypass,
    /// write-validate, write-back.
    pub fn mtc(capacity_bytes: u64) -> Self {
        Self::new(capacity_bytes, 4, MinWritePolicy::Validate, true)
    }

    /// Number of blocks the cache holds.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_bytes / self.block_size
    }
}

/// A fully-associative cache managed by Belady's **min** policy.
///
/// Use [`MinCache::simulate_workload`] for a generated stream and
/// [`MinCache::simulate`] for one already in memory; the incremental API
/// ([`MinCache::new`] + [`MinCache::access`] + [`MinCache::flush`])
/// exists for callers that interleave their own bookkeeping.
#[derive(Debug)]
pub struct MinCache {
    cfg: MinConfig,
    /// block -> (next_use, dirty). A heap entry is *live* iff its
    /// next-use key matches this map's current value for the block.
    resident: FastHashMap<u64, (u64, bool)>,
    /// Max-heap of (next_use, block) with lazy deletion: hits and
    /// evictions leave stale entries behind, discarded when they
    /// surface at the top or when the heap outgrows
    /// `2·resident + HEAP_SLACK`.
    heap: BinaryHeap<(u64, u64)>,
    stats: CacheStats,
}

impl MinCache {
    /// An empty **min** cache.
    pub fn new(cfg: MinConfig) -> Self {
        Self {
            cfg,
            resident: FastHashMap::default(),
            heap: BinaryHeap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Configuration of this cache.
    pub fn config(&self) -> &MinConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Simulate an entire reference stream (two passes: next-use build,
    /// then **min** replay) including the end-of-run flush, and return the
    /// final counters.
    pub fn simulate(cfg: &MinConfig, refs: &[MemRef]) -> CacheStats {
        let index = NextUseIndex::build(refs, cfg.block_size);
        Self::simulate_with_index(cfg, refs, &index)
    }

    /// Simulate `workload`'s reference stream without holding it: pass 1
    /// generates it to build the next-use index (8 bytes per reference),
    /// pass 2 generates it again and replays it through the cache. The
    /// counters equal [`MinCache::simulate`] over
    /// [`Workload::collect_mem_refs`].
    ///
    /// # Panics
    ///
    /// Panics if the two passes yield different numbers of references
    /// (a [`Workload`] must emit the identical stream every time).
    pub fn simulate_workload(cfg: &MinConfig, workload: &dyn Workload) -> CacheStats {
        let index = NextUseIndex::from_stream(cfg.block_size, |f| workload.for_each_mem_ref(f));
        membw_runner::RunContext::current()
            .governor
            .observe_arena_bytes(index.len() as u64 * 8);
        let mut cache = Self::new(*cfg);
        index.replay(workload, |r, block, next_use| {
            cache.access(r, block, next_use);
        });
        cache.flush()
    }

    /// Simulate an entire reference stream against a *prebuilt* next-use
    /// index, including the end-of-run flush. Callers sweeping several
    /// capacities at one block size share the index build — the dominant
    /// cost of a **min** pass at MTC (one-word) granularity — instead of
    /// paying it once per capacity (see
    /// [`min_sweep`](crate::optstack::min_sweep)).
    ///
    /// # Panics
    ///
    /// Panics if the index was built at a different block size or over a
    /// different number of references.
    pub fn simulate_with_index(
        cfg: &MinConfig,
        refs: &[MemRef],
        index: &NextUseIndex,
    ) -> CacheStats {
        assert_eq!(
            index.block_size(),
            cfg.block_size,
            "next-use index block size must match the cache configuration"
        );
        assert_eq!(
            index.len(),
            refs.len(),
            "next-use index must cover the reference stream"
        );
        let mut cache = Self::new(*cfg);
        // Poll the ambient cancel token on the scan so a drain or
        // deadline stops a long MTC pass within milliseconds.
        let ctx = membw_runner::RunContext::current();
        let cancel = &ctx.cancel;
        for (i, r) in refs.iter().enumerate() {
            if i.is_multiple_of(8192) {
                cancel.check();
            }
            cache.access(*r, r.block(cfg.block_size), index.next_use(i));
        }
        cache.flush()
    }

    /// Furthest-future resident entry, if any. Pops stale heap tops
    /// (lazy deletion) until the maximum is live, then peeks it.
    fn furthest(&mut self) -> Option<(u64, u64)> {
        while let Some(&(next, block)) = self.heap.peek() {
            match self.resident.get(&block) {
                Some(&(cur, _)) if cur == next => return Some((next, block)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Evict the current min-victim.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    fn evict_victim(&mut self) {
        let (_, block) = self.furthest().expect("full cache has entries");
        self.heap.pop();
        let (_, dirty) = self
            .resident
            .remove(&block)
            .expect("evicted block is resident");
        if dirty {
            self.stats.bytes_written_back += self.cfg.block_size;
        }
    }

    fn insert(&mut self, block: u64, next: u64, dirty: bool) {
        self.resident.insert(block, (next, dirty));
        self.heap.push((next, block));
        if self.heap.len() > 2 * self.resident.len() + HEAP_SLACK {
            let resident = &self.resident;
            self.heap.retain(
                |&(next, block)| matches!(resident.get(&block), Some(&(cur, _)) if cur == next),
            );
        }
    }

    /// Present one access. `block` is `r.block(block_size)` and
    /// `next_use` comes from a [`NextUseIndex`] built at this cache's
    /// block size.
    ///
    /// Returns `true` on a hit.
    pub fn access(&mut self, r: MemRef, block: u64, next_use: u64) -> bool {
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        let is_read = r.kind.is_read();
        if is_read {
            self.stats.reads += 1;
        } else {
            self.stats.writes += 1;
        }

        if let Some(&(_, dirty)) = self.resident.get(&block) {
            // Hit: re-key the priority to this access's next use. The
            // old heap entry goes stale in place (a block's next-use
            // keys strictly increase, so it can never shadow the new
            // one) and is discarded when it reaches the top.
            let dirty = dirty || !is_read;
            self.insert(block, next_use, dirty);
            if is_read {
                self.stats.read_hits += 1;
            } else {
                self.stats.write_hits += 1;
            }
            return true;
        }

        // Miss.
        if is_read {
            self.stats.read_misses += 1;
        } else {
            self.stats.write_misses += 1;
        }

        // Decide whether to allocate: bypass when the incoming block's
        // next use is further than every resident block's (it would be
        // its own min-victim).
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
                // The datum crosses the pins whether or not it is kept.
                self.stats.bytes_fetched += self.cfg.block_size;
                if allocate {
                    if full {
                        self.evict_victim();
                    }
                    self.insert(block, next_use, false);
                }
            }
            (false, MinWritePolicy::Allocate) => {
                if allocate {
                    // Fetch-on-write, then dirty.
                    self.stats.bytes_fetched += self.cfg.block_size;
                    if full {
                        self.evict_victim();
                    }
                    self.insert(block, next_use, true);
                } else {
                    // Bypassed write goes straight to memory.
                    self.stats.bytes_written_through += u64::from(r.size);
                }
            }
            (false, MinWritePolicy::Validate) => {
                if allocate {
                    // Allocate by overwriting: no fetch at all.
                    if full {
                        self.evict_victim();
                    }
                    self.insert(block, next_use, true);
                } else {
                    self.stats.bytes_written_through += u64::from(r.size);
                }
            }
        }
        false
    }

    /// Write back all dirty blocks (counted as flush traffic) and return
    /// the final counters.
    pub fn flush(&mut self) -> CacheStats {
        let dirty_blocks = self.resident.values().filter(|(_, d)| *d).count() as u64;
        self.stats.bytes_flushed += dirty_blocks * self.cfg.block_size;
        self.resident.clear();
        self.heap.clear();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membw_cache::{Associativity, Cache, CacheConfig};
    use membw_trace::{VecWorkload, Workload};

    fn reads(words: &[u64]) -> Vec<MemRef> {
        words.iter().map(|&w| MemRef::read(w * 4, 4)).collect()
    }

    fn lru_fa_misses(refs: &[MemRef], capacity_bytes: u64, block: u64) -> u64 {
        let cfg = CacheConfig::builder(capacity_bytes, block)
            .associativity(Associativity::Full)
            .build()
            .unwrap();
        let mut c = Cache::new(cfg);
        for &r in refs {
            c.access(r);
        }
        c.flush().demand_misses()
    }

    #[test]
    fn belady_beats_lru_on_cyclic_sweep() {
        // Cyclic sweep of 8 words with a 4-word cache: LRU thrashes
        // (100 % miss), min keeps a stable half.
        let seq: Vec<u64> = (0..80).map(|i| i % 8).collect();
        let refs = reads(&seq);
        let cfg = MinConfig::new(16, 4, MinWritePolicy::Allocate, false);
        let min_stats = MinCache::simulate(&cfg, &refs);
        let lru = lru_fa_misses(&refs, 16, 4);
        assert_eq!(lru, 80, "LRU thrashes the cyclic sweep");
        assert!(min_stats.demand_misses() < 60, "min keeps part of the loop");
        assert!(min_stats.demand_misses() >= 8, "cold misses remain");
    }

    #[test]
    fn belady_never_worse_than_lru() {
        // Deterministic pseudo-random word stream.
        let mut x = 12345u64;
        let seq: Vec<u64> = (0..2000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 64
            })
            .collect();
        let refs = reads(&seq);
        for cap in [16u64, 64, 128] {
            let cfg = MinConfig::new(cap, 4, MinWritePolicy::Allocate, false);
            let min_misses = MinCache::simulate(&cfg, &refs).demand_misses();
            assert!(
                min_misses <= lru_fa_misses(&refs, cap, 4),
                "min must not miss more than LRU at capacity {cap}"
            );
        }
    }

    #[test]
    fn bypass_never_allocates_single_use_data_over_loop() {
        // A hot 2-word loop with a cold streaming word interleaved: with
        // bypass, the stream never displaces the loop.
        let mut words = Vec::new();
        for i in 0..50u64 {
            words.push(0);
            words.push(1);
            words.push(100 + i); // used once, never again
        }
        let refs = reads(&words);
        let with_bypass =
            MinCache::simulate(&MinConfig::new(8, 4, MinWritePolicy::Allocate, true), &refs);
        // Hot words miss twice (cold), stream misses 50 times; no extra.
        assert_eq!(with_bypass.demand_misses(), 52);
        assert_eq!(with_bypass.bytes_fetched, 52 * 4);
    }

    #[test]
    fn write_validate_eliminates_write_fetch_traffic() {
        // Write-once stream: write-validate fetches nothing; the dirty
        // words flush at the end.
        let refs: Vec<MemRef> = (0..64u64).map(|w| MemRef::write(w * 4, 4)).collect();
        let wv = MinCache::simulate(
            &MinConfig::new(64, 4, MinWritePolicy::Validate, true),
            &refs,
        );
        assert_eq!(wv.bytes_fetched, 0);
        // 48 words bypass-or-evict... with bypass, once full (16 blocks),
        // later writes with no future use bypass straight to memory.
        assert_eq!(wv.traffic_below(), 64 * 4, "each written word crosses once");
        let wa = MinCache::simulate(
            &MinConfig::new(64, 4, MinWritePolicy::Allocate, false),
            &refs,
        );
        assert!(
            wa.traffic_below() > wv.traffic_below(),
            "write-allocate pays fetch-on-write"
        );
    }

    #[test]
    fn mtc_traffic_at_most_lru_cache_traffic() {
        // The headline invariant behind G >= 1 (Eq. 6), on a mixed trace.
        let mut refs = Vec::new();
        let mut x = 99u64;
        for i in 0..3000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let w = (x >> 40) % 512;
            if i % 4 == 0 {
                refs.push(MemRef::write(w * 4, 4));
            } else {
                refs.push(MemRef::read(w * 4, 4));
            }
        }
        let w = VecWorkload::new("t", refs);
        let refs = w.collect_mem_refs();
        for cap in [256u64, 1024] {
            let mtc = MinCache::simulate(&MinConfig::mtc(cap), &refs);
            let cache_cfg = CacheConfig::builder(cap, 32).build().unwrap();
            let mut c = Cache::new(cache_cfg);
            for &r in &refs {
                c.access(r);
            }
            let cs = c.flush();
            assert!(
                mtc.traffic_below() <= cs.traffic_below(),
                "MTC must not out-traffic a real cache (cap {cap})"
            );
        }
    }

    #[test]
    fn hit_rekeys_priority() {
        // Ensure re-referenced blocks move their queue position: word 0 is
        // referenced early and again at the very end; a 1-block cache with
        // an intervening distinct word must still behave sanely.
        let refs = reads(&[0, 1, 0]);
        let stats =
            MinCache::simulate(&MinConfig::new(4, 4, MinWritePolicy::Allocate, true), &refs);
        // Word 1 (never reused) bypasses; word 0 hits on its return.
        assert_eq!(stats.read_hits, 1);
        assert_eq!(stats.read_misses, 2);
    }

    #[test]
    fn flush_writes_back_only_dirty() {
        let refs = vec![MemRef::read(0, 4), MemRef::write(4, 4)];
        let stats = MinCache::simulate(&MinConfig::mtc(64), &refs);
        assert_eq!(stats.bytes_flushed, 4);
    }

    #[test]
    fn heap_stays_bounded_on_hit_heavy_stream() {
        // 200k hits over an 8-word loop: without compaction every hit
        // would leave a stale pair behind.
        let refs: Vec<MemRef> = (0..200_000u64)
            .map(|i| MemRef::read((i % 8) * 4, 4))
            .collect();
        let cfg = MinConfig::new(64, 4, MinWritePolicy::Allocate, true);
        let index = NextUseIndex::build(&refs, 4);
        let mut cache = MinCache::new(cfg);
        let mut max_heap = 0;
        for (i, r) in refs.iter().enumerate() {
            cache.access(*r, r.block(4), index.next_use(i));
            assert!(cache.heap.len() <= 2 * cache.resident.len() + HEAP_SLACK);
            max_heap = max_heap.max(cache.heap.len());
        }
        assert!(max_heap > HEAP_SLACK, "the stream must exercise compaction");
        assert_eq!(cache.flush(), MinCache::simulate(&cfg, &refs));
    }

    #[test]
    #[should_panic(expected = "one-word blocks")]
    fn validate_requires_word_blocks() {
        let _ = MinConfig::new(1024, 32, MinWritePolicy::Validate, true);
    }
}
