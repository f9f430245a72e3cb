//! One-pass multi-capacity **min** simulation: the engine behind the
//! MTC columns of Table 8 and the MTC curves of Figure 4.
//!
//! # Why a bespoke stack engine
//!
//! Bypass-aware **min** with write-validate is *not* equivalent to the
//! no-bypass OPT stack that [`OptProfile`](crate::OptProfile) maintains
//! (a bypassed block never enters any cache, so miss counts differ —
//! trace `a b a` at one block: bypass-min misses twice, OPT misses
//! three times). Advancing one exact [`MinCache`] per capacity fixes
//! that but pays `K` hash probes and `K` heap pushes per reference. The
//! engine here exploits the policy's *inclusion* structure instead and
//! does O(1) amortized work per reference regardless of how many
//! capacities are swept.
//!
//! # The inclusion structure
//!
//! Order the capacities ascending. For the replacement rule
//! [`MinCache`] implements (evict the lexicographically largest
//! `(next_use, block)`; with bypass, allocate on a full cache only when
//! the incoming next use beats the resident maximum), the following
//! invariants hold at every point of the trace, by induction:
//!
//! 1. **Inclusion** — the residents of capacity `i` are a subset of the
//!    residents of capacity `i+1`; a block's residency is therefore a
//!    *suffix* `[L..K)` of the capacity levels.
//! 2. **Fill order** — a smaller cache is never non-full while a larger
//!    one is full, so the full caches form a *prefix* of the levels.
//! 3. **Allocate suffix** — on a miss, the resident maxima are
//!    non-decreasing in capacity, so the caches that allocate form a
//!    contiguous range `[m..L)` (with bypass, `m` is the first full
//!    level whose maximum beats the incoming next use; without bypass,
//!    `m = 0`).
//! 4. **Victim runs** — the victims of the allocating full caches are
//!    the same block over consecutive runs of levels: a victim `v` of
//!    level `i` satisfies `L_v = i` (it cannot be resident lower, its
//!    key exceeds every lower maximum) and is evicted from `[i..j)`
//!    where `j` is the first level holding a live block with a larger
//!    `(next_use, block)` pair. Eviction just advances `L_v` to `j` —
//!    residency stays a suffix.
//! 5. **Dirty suffix** — writes dirty every resident level at once and
//!    newly fetched read blocks arrive clean below older dirty copies,
//!    so the dirty levels are themselves a suffix `[D..K)` with
//!    `D >= L`.
//!
//! The engine keeps one hash map entry per block (`key`, `L`, `D`), one
//! lazily-deleted max-heap per *level* holding only the blocks whose
//! lower bound is exactly that level, and per-level resident counts.
//! Hits re-key one heap entry; misses walk the O(K) level array once.
//! Per-capacity counters are recovered from histograms over `L` (hits),
//! difference arrays over level ranges (write fetches, writebacks,
//! flushes), and a suffix histogram (write-through bytes), so no
//! per-level work is done per access. Every counter equals
//! [`MinCache::simulate`] field for field at the matching capacity
//! (enforced by unit and property tests, and at suite level by
//! `MEMBW_SWEEP_VERIFY`: `membw_sweep::SweepMode::min` is the one
//! engine switch, and core's one cross-check helper,
//! `membw_core::error::sweep_jobs`, reruns stack-mode jobs through its
//! direct arm).
//!
//! # Memory
//!
//! [`min_sweep`] streams its workload twice and holds only the 8-byte
//! next-use link per reference in between. A hit leaves a stale pair in
//! its level's heap; once a heap holds more than `2·cnt + 1024` pairs
//! it is compacted to its live pairs (the rule [`MinCache`] applies to
//! its one heap), so the heaps stay proportional to the residents.

use crate::min::{MinCache, MinConfig, MinWritePolicy, HEAP_SLACK};
use crate::nextuse::NextUseIndex;
use membw_cache::CacheStats;
use membw_trace::{FastHashMap, MemRef, Workload};
use std::collections::BinaryHeap;

/// Run several **min** caches over `workload`'s reference stream in a
/// single pass, sharing one next-use index.
///
/// The stream is generated twice and never held: once to build the
/// next-use index (8 bytes per reference), once to replay it, as
/// [`MinCache::simulate_workload`] does. A collected slice of
/// references is a [`Workload`] too.
///
/// Configurations that agree on write policy and bypass (the common
/// case: a capacity sweep of one organization) run on the inclusion
/// engine above. Mixed policies fall back to advancing one exact
/// [`MinCache`] per configuration — still sharing the index build.
/// Either way each result equals [`MinCache::simulate`] counter for
/// counter at that configuration.
///
/// All configurations must share one block size (the next-use index is
/// block-size specific); mixed-block sweeps should partition by block
/// size and call once per partition.
///
/// # Panics
///
/// Panics if the configurations disagree on block size, or if the two
/// passes yield different numbers of references.
pub fn min_sweep<W: Workload + ?Sized>(cfgs: &[MinConfig], workload: &W) -> Vec<CacheStats> {
    let Some(first) = cfgs.first() else {
        return Vec::new();
    };
    let block = first.block_size;
    assert!(
        cfgs.iter().all(|c| c.block_size == block),
        "min_sweep requires a uniform block size (got mixed sizes)"
    );
    let index = NextUseIndex::from_stream(block, |f| workload.for_each_mem_ref(f));
    // The shared next-use index (8 bytes per reference) is the sweep's
    // big allocation; let the governor see it.
    membw_runner::RunContext::current()
        .governor
        .observe_arena_bytes(index.len() as u64 * 8);
    if cfgs
        .iter()
        .all(|c| c.write == first.write && c.bypass == first.bypass)
    {
        let mut sweep = InclusionSweep::new(cfgs);
        index.replay(workload, |r, block, next_use| {
            sweep.access(r, block, next_use)
        });
        sweep.finish()
    } else {
        let mut caches: Vec<MinCache> = cfgs.iter().map(|c| MinCache::new(*c)).collect();
        index.replay(workload, |r, block, next_use| {
            for cache in &mut caches {
                cache.access(r, block, next_use);
            }
        });
        caches.iter_mut().map(MinCache::flush).collect()
    }
}

/// Per-block state: current priority key and the residency / dirty
/// suffix bounds over the (ascending) capacity levels.
struct BlockState {
    /// Next-use key as of the block's latest access (strictly increases
    /// across a block's accesses, which is what makes heap entries
    /// uniquely attributable).
    key: u64,
    /// Lowest level where resident: resident in `[level..K)`.
    level: u32,
    /// Lowest dirty level: dirty in `[dirty..K)`; `K` when clean.
    dirty: u32,
}

struct InclusionSweep {
    write: MinWritePolicy,
    bypass: bool,
    block_bytes: u64,
    /// Capacity in blocks per level, ascending.
    caps: Vec<u64>,
    /// level -> position in the caller's `cfgs` order.
    order: Vec<usize>,
    state: FastHashMap<u64, BlockState>,
    /// `heaps[l]`: lazily-deleted max-heap of `(key, block)` for blocks
    /// whose `level` is exactly `l`. An entry is live iff the block's
    /// map state matches both its key and this level.
    heaps: Vec<BinaryHeap<(u64, u64)>>,
    /// `cnt[l]`: number of blocks with `level == l` (resident count of
    /// level `i` is the prefix sum through `i`).
    cnt: Vec<u64>,
    // --- per-access accounting (assembled into CacheStats at the end)
    accesses: u64,
    reads: u64,
    writes: u64,
    request_bytes: u64,
    /// `read_hit_h[L]` / `write_hit_h[L]`: accesses that hit with
    /// residency bound `L` — level `i` hits iff `L <= i` (prefix sum).
    read_hit_h: Vec<u64>,
    write_hit_h: Vec<u64>,
    /// `wt_h[m]`: write-through bytes of writes whose allocate range
    /// started at `m` — level `i` pays iff `i < m` (suffix sum).
    wt_h: Vec<u64>,
    /// Write misses that allocated at each level (difference array over
    /// the allocate range; only charged as fetches under
    /// write-allocate).
    wfetch_diff: Vec<i64>,
    /// Writeback bytes per level (difference array over dirty evicted
    /// ranges).
    wb_diff: Vec<i64>,
}

impl InclusionSweep {
    fn new(cfgs: &[MinConfig]) -> Self {
        let k = cfgs.len();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&i| cfgs[i].capacity_blocks());
        let caps: Vec<u64> = order.iter().map(|&i| cfgs[i].capacity_blocks()).collect();
        Self {
            write: cfgs[0].write,
            bypass: cfgs[0].bypass,
            block_bytes: cfgs[0].block_size,
            caps,
            order,
            state: FastHashMap::default(),
            heaps: (0..k).map(|_| BinaryHeap::new()).collect(),
            cnt: vec![0; k],
            accesses: 0,
            reads: 0,
            writes: 0,
            request_bytes: 0,
            read_hit_h: vec![0; k + 1],
            write_hit_h: vec![0; k + 1],
            wt_h: vec![0; k + 1],
            wfetch_diff: vec![0; k + 2],
            wb_diff: vec![0; k + 2],
        }
    }

    /// Live top of `heaps[l]`, discarding stale entries.
    fn live_top(&mut self, l: usize) -> Option<(u64, u64)> {
        while let Some(&(key, block)) = self.heaps[l].peek() {
            match self.state.get(&block) {
                Some(s) if s.key == key && s.level as usize == l => return Some((key, block)),
                _ => {
                    self.heaps[l].pop();
                }
            }
        }
        None
    }

    /// Push the live pair `(key, block)` of a block now at level `l`,
    /// after its state and `cnt` are updated.
    fn push(&mut self, l: usize, key: u64, block: u64) {
        self.heaps[l].push((key, block));
        self.bound_heap(l);
    }

    /// Compact `heaps[l]` to its live pairs once it holds more than
    /// `2·cnt[l] + HEAP_SLACK` pairs, [`MinCache`]'s rule. Called after
    /// every push to the heap and every drop of `cnt[l]`, with the block
    /// states current, so each heap stays proportional to its level's
    /// residents, not to the trace.
    fn bound_heap(&mut self, l: usize) {
        if self.heaps[l].len() > 2 * self.cnt[l] as usize + HEAP_SLACK {
            let state = &self.state;
            self.heaps[l].retain(|&(key, block)| {
                matches!(state.get(&block), Some(s) if s.key == key && s.level as usize == l)
            });
        }
    }

    fn access(&mut self, r: MemRef, block: u64, next_use: u64) {
        let k = self.caps.len();
        self.accesses += 1;
        self.request_bytes += u64::from(r.size);
        let is_read = r.kind.is_read();
        if is_read {
            self.reads += 1;
        } else {
            self.writes += 1;
        }

        // Residency bound: hit at [l..K), miss at [0..l).
        let l = match self.state.get_mut(&block) {
            Some(s) => {
                let l = s.level as usize;
                if is_read {
                    self.read_hit_h[l] += 1;
                } else {
                    self.write_hit_h[l] += 1;
                    s.dirty = s.level; // a write dirties every resident level
                }
                l
            }
            None => k,
        };

        // The allocate range [m..l): full levels are a prefix [0..f),
        // and with bypass only full levels whose resident maximum beats
        // the incoming key allocate (a suffix of the full prefix).
        let mut m = l;
        if l > 0 {
            // First non-full level among the missing ones.
            let mut resident = 0u64;
            let mut e_hi = l;
            for (lvl, &cap) in self.caps.iter().enumerate().take(l) {
                resident += self.cnt[lvl];
                if resident < cap {
                    e_hi = lvl;
                    break;
                }
            }
            // Running resident maximum over levels [0..=i] (pair order
            // matches MinCache's heap: lexicographic (next_use, block)).
            let mut running: Option<(u64, u64)> = None;
            if self.bypass {
                m = e_hi;
                for lvl in 0..e_hi {
                    if let Some(top) = self.live_top(lvl) {
                        running = Some(running.map_or(top, |b| b.max(top)));
                    }
                    if running.is_some_and(|(key, _)| key > next_use) {
                        m = lvl;
                        break;
                    }
                }
            } else {
                m = 0;
            }

            // Evict the full allocating levels [m..e_hi): each level's
            // victim is its resident maximum; identical victims span
            // consecutive runs (invariant 4), so each run costs one
            // state update and one heap push.
            let mut i = m;
            while i < e_hi {
                if let Some(top) = self.live_top(i) {
                    running = Some(running.map_or(top, |b| b.max(top)));
                }
                let victim = running.expect("a full level has live residents");
                // Extent of this victim: until a level holds a live
                // block with a larger (key, block) pair.
                let mut j = i + 1;
                while j < e_hi {
                    match self.live_top(j) {
                        Some(top) if top > victim => break,
                        _ => j += 1,
                    }
                }
                let (vkey, vblock) = victim;
                let s = self.state.get_mut(&vblock).expect("victim is resident");
                debug_assert_eq!(s.level as usize, i, "victim lives at the run start");
                let dirty = s.dirty as usize;
                if dirty < j {
                    self.wb_diff[dirty] += self.block_bytes as i64;
                    self.wb_diff[j] -= self.block_bytes as i64;
                }
                self.cnt[i] -= 1;
                if j < k {
                    s.level = j as u32;
                    s.dirty = s.dirty.max(j as u32);
                    self.cnt[j] += 1;
                    self.push(j, vkey, vblock);
                } else {
                    self.state.remove(&vblock);
                }
                self.bound_heap(i);
                running = None;
                i = j;
            }
        }

        // Allocation / re-key of the accessed block.
        if !is_read {
            // Write-through bytes for the bypassed levels [0..m).
            self.wt_h[m] += u64::from(r.size);
            if self.write == MinWritePolicy::Allocate && m < l {
                self.wfetch_diff[m] += 1;
                self.wfetch_diff[l] -= 1;
            }
        }
        if m < l {
            // Allocate into [m..l) (and re-key the hit levels above).
            match self.state.get_mut(&block) {
                Some(s) => {
                    self.cnt[s.level as usize] -= 1;
                    s.level = m as u32;
                    s.key = next_use;
                    if !is_read {
                        s.dirty = m as u32;
                    }
                }
                None => {
                    self.state.insert(
                        block,
                        BlockState {
                            key: next_use,
                            level: m as u32,
                            dirty: if is_read { k as u32 } else { m as u32 },
                        },
                    );
                }
            }
            self.cnt[m] += 1;
            self.push(m, next_use, block);
            if l < k {
                // The block left level `l` for `m`.
                self.bound_heap(l);
            }
        } else if l < k {
            // Pure hit: re-key in place.
            let s = self.state.get_mut(&block).expect("hit block is resident");
            s.key = next_use;
            self.push(l, next_use, block);
        }
    }

    fn finish(self) -> Vec<CacheStats> {
        let k = self.caps.len();
        // Flush: every block writes back its dirty levels [D..K).
        let mut flush_diff = vec![0i64; k + 1];
        for s in self.state.values() {
            if (s.dirty as usize) < k {
                flush_diff[s.dirty as usize] += self.block_bytes as i64;
            }
        }

        let mut out = vec![CacheStats::default(); k];
        let mut read_hits = 0u64;
        let mut write_hits = 0u64;
        let mut wfetch = 0i64;
        let mut wb = 0i64;
        let mut flush = 0i64;
        // Write-through bytes reach levels *below* the allocate start.
        let mut wt_suffix: Vec<u64> = vec![0; k + 1];
        let mut acc = 0u64;
        for lvl in (0..k).rev() {
            acc += self.wt_h[lvl + 1];
            wt_suffix[lvl] = acc;
        }
        for lvl in 0..k {
            read_hits += self.read_hit_h[lvl];
            write_hits += self.write_hit_h[lvl];
            wfetch += self.wfetch_diff[lvl];
            wb += self.wb_diff[lvl];
            flush += flush_diff[lvl];
            let read_misses = self.reads - read_hits;
            let write_misses = self.writes - write_hits;
            let mut stats = CacheStats {
                accesses: self.accesses,
                reads: self.reads,
                writes: self.writes,
                read_hits,
                read_misses,
                write_hits,
                write_misses,
                request_bytes: self.request_bytes,
                // Every read miss fetches (even bypassed ones: the
                // datum crosses the pins whether or not it is kept).
                bytes_fetched: self.block_bytes * read_misses,
                bytes_written_back: wb as u64,
                bytes_written_through: wt_suffix[lvl],
                bytes_flushed: flush as u64,
                ..CacheStats::default()
            };
            if self.write == MinWritePolicy::Allocate {
                stats.bytes_fetched += self.block_bytes * wfetch as u64;
            }
            out[self.order[lvl]] = stats;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optstack::OptProfile;

    fn reads(words: &[u64]) -> Vec<MemRef> {
        words.iter().map(|&w| MemRef::read(w * 4, 4)).collect()
    }

    fn pseudo_random_trace(n: usize, words: u64, seed: u64) -> Vec<MemRef> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let w = (x >> 33) % words;
                if i % 5 == 0 {
                    MemRef::write(w * 4, 4)
                } else {
                    MemRef::read(w * 4, 4)
                }
            })
            .collect()
    }

    /// The load-bearing test: the inclusion engine must equal the
    /// two-pass MinCache counter for counter, for every policy
    /// combination the MTC and Table 10 experiments use.
    #[test]
    fn min_sweep_matches_per_capacity_simulation() {
        for seed in [3u64, 11] {
            let refs = pseudo_random_trace(1200, 40, seed);
            for (write, bypass) in [
                (MinWritePolicy::Allocate, false),
                (MinWritePolicy::Allocate, true),
                (MinWritePolicy::Validate, true),
                (MinWritePolicy::Validate, false),
            ] {
                let cfgs: Vec<MinConfig> = [16u64, 64, 256, 1024]
                    .iter()
                    .map(|&cap| MinConfig::new(cap, 4, write, bypass))
                    .collect();
                let swept = min_sweep(&cfgs, &refs[..]);
                for (cfg, got) in cfgs.iter().zip(&swept) {
                    let want = MinCache::simulate(cfg, &refs);
                    assert_eq!(
                        *got, want,
                        "seed {seed}, {write:?} bypass={bypass}, cap {}",
                        cfg.capacity_bytes
                    );
                }
            }
        }
    }

    #[test]
    fn level_heaps_stay_bounded_on_hit_heavy_stream() {
        // 200k references cycling over 40 words with one write in five:
        // every capacity from 4 to 64 words mostly hits, and without
        // compaction each hit would leave a stale pair in its level's
        // heap.
        let refs: Vec<MemRef> = (0..200_000u64)
            .map(|i| {
                let w = (i * 7) % 40;
                if i % 5 == 0 {
                    MemRef::write(w * 4, 4)
                } else {
                    MemRef::read(w * 4, 4)
                }
            })
            .collect();
        for (write, bypass) in [
            (MinWritePolicy::Validate, true),
            (MinWritePolicy::Allocate, false),
        ] {
            let cfgs: Vec<MinConfig> = [16u64, 64, 128, 256]
                .iter()
                .map(|&cap| MinConfig::new(cap, 4, write, bypass))
                .collect();
            let index = NextUseIndex::build(&refs, 4);
            let mut sweep = InclusionSweep::new(&cfgs);
            let mut max_heap = 0;
            index.replay(&refs[..], |r, block, next_use| {
                sweep.access(r, block, next_use);
                for (heap, &cnt) in sweep.heaps.iter().zip(&sweep.cnt) {
                    assert!(heap.len() <= 2 * cnt as usize + HEAP_SLACK);
                    max_heap = max_heap.max(heap.len());
                }
            });
            assert!(max_heap > HEAP_SLACK, "the stream must exercise compaction");
            for (cfg, got) in cfgs.iter().zip(sweep.finish()) {
                assert_eq!(
                    got,
                    MinCache::simulate(cfg, &refs),
                    "{write:?} bypass={bypass}, cap {}",
                    cfg.capacity_bytes
                );
            }
        }
    }

    #[test]
    fn min_sweep_handles_unsorted_and_duplicate_capacities() {
        let refs = pseudo_random_trace(900, 32, 17);
        let cfgs: Vec<MinConfig> = [256u64, 16, 64, 16, 1024]
            .iter()
            .map(|&cap| MinConfig::mtc(cap))
            .collect();
        let swept = min_sweep(&cfgs, &refs[..]);
        for (cfg, got) in cfgs.iter().zip(&swept) {
            assert_eq!(
                *got,
                MinCache::simulate(cfg, &refs),
                "cap {}",
                cfg.capacity_bytes
            );
        }
    }

    #[test]
    fn min_sweep_mixed_policies_fall_back_exactly() {
        let refs = pseudo_random_trace(700, 24, 9);
        let cfgs = [
            MinConfig::new(64, 4, MinWritePolicy::Allocate, false),
            MinConfig::mtc(256),
        ];
        let swept = min_sweep(&cfgs, &refs[..]);
        for (cfg, got) in cfgs.iter().zip(&swept) {
            assert_eq!(*got, MinCache::simulate(cfg, &refs));
        }
    }

    #[test]
    fn min_sweep_no_bypass_agrees_with_opt_stack() {
        // Without bypass, min misses are exactly the OPT stack profile.
        let refs = pseudo_random_trace(1500, 48, 21);
        let cfgs: Vec<MinConfig> = [1usize, 4, 16, 64]
            .iter()
            .map(|&blocks| MinConfig::new(blocks as u64 * 4, 4, MinWritePolicy::Allocate, false))
            .collect();
        let swept = min_sweep(&cfgs, &refs[..]);
        let profile = OptProfile::measure(&refs, 4);
        for (cfg, stats) in cfgs.iter().zip(&swept) {
            let blocks = cfg.capacity_blocks() as usize;
            assert_eq!(stats.demand_misses(), profile.misses(blocks));
        }
    }

    #[test]
    fn min_sweep_empty_inputs() {
        assert!(min_sweep(&[], &reads(&[0, 1])[..]).is_empty());
        let cfgs = [MinConfig::mtc(64)];
        let swept = min_sweep(&cfgs, &[][..]);
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].accesses, 0);
    }

    #[test]
    #[should_panic(expected = "uniform block size")]
    fn min_sweep_rejects_mixed_block_sizes() {
        let cfgs = [
            MinConfig::new(64, 4, MinWritePolicy::Allocate, false),
            MinConfig::new(64, 32, MinWritePolicy::Allocate, false),
        ];
        let _ = min_sweep(&cfgs, &[][..]);
    }
}
