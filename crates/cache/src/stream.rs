//! Stream buffers (Jouppi \[24\], Palacharla & Kessler \[33\]).
//!
//! A small set of FIFO prefetch buffers sits beside the cache; a miss
//! that also misses every buffer head allocates a new buffer, which
//! prefetches the next `depth` sequential blocks. The paper's §2.1 lists
//! stream buffers among the latency-tolerance techniques that *increase*
//! traffic ("they prefetch unnecessary data at the end of a stream; they
//! also falsely identify streams") — this model exists so the `ablation`
//! target can measure exactly that trade.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use membw_trace::MemRef;
use std::collections::VecDeque;

/// One FIFO prefetch buffer.
#[derive(Debug, Clone)]
struct StreamBuffer {
    /// Block addresses in FIFO order (head first).
    blocks: VecDeque<u64>,
    /// Next block address to prefetch when the buffer advances.
    next: u64,
    /// Age counter for LRU reallocation of buffers.
    last_use: u64,
}

/// A cache fronted by `num_buffers` stream buffers of `depth` blocks.
///
/// Traffic accounting matches the rest of the crate: prefetched blocks
/// count as prefetch traffic whether or not they are ever used; blocks
/// promoted from a buffer into the cache cost nothing extra (the bytes
/// already crossed when prefetched).
///
/// # Example
///
/// ```
/// use membw_cache::{CacheConfig, StreamBuffers};
/// use membw_trace::MemRef;
///
/// let cfg = CacheConfig::builder(1024, 32).build()?;
/// let mut sb = StreamBuffers::new(cfg, 2, 4);
/// // A sequential sweep: after the first miss the buffers run ahead.
/// for i in 0..64u64 {
///     sb.access(MemRef::read(i * 4, 4));
/// }
/// assert!(sb.stream_hits() > 0);
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct StreamBuffers {
    cache: Cache,
    buffers: Vec<StreamBuffer>,
    depth: usize,
    clock: u64,
    stream_hits: u64,
    stats_extra_prefetch: u64,
}

impl StreamBuffers {
    /// Build around a cache of `cfg` with `num_buffers` buffers of
    /// `depth` blocks each.
    ///
    /// # Panics
    ///
    /// Panics if `num_buffers` or `depth` is zero, or if `cfg` already
    /// enables tagged prefetch (one prefetcher at a time).
    pub fn new(cfg: CacheConfig, num_buffers: usize, depth: usize) -> Self {
        assert!(num_buffers > 0 && depth > 0);
        assert!(
            !cfg.tagged_prefetch(),
            "combine stream buffers with a non-prefetching cache"
        );
        Self {
            cache: Cache::new(cfg),
            buffers: Vec::with_capacity(num_buffers),
            depth,
            clock: 0,
            stream_hits: 0,
            stats_extra_prefetch: 0,
        }
        .with_capacity(num_buffers)
    }

    fn with_capacity(mut self, n: usize) -> Self {
        self.buffers.reserve(n);
        for _ in 0..n {
            self.buffers.push(StreamBuffer {
                blocks: VecDeque::new(),
                next: u64::MAX,
                last_use: 0,
            });
        }
        self
    }

    /// Misses that were satisfied by a stream buffer.
    pub fn stream_hits(&self) -> u64 {
        self.stream_hits
    }

    /// Combined statistics: the cache's counters plus buffer prefetch
    /// traffic.
    pub fn stats(&self) -> CacheStats {
        let mut s = *self.cache.stats();
        s.bytes_prefetched += self.stats_extra_prefetch;
        s
    }

    /// Total below-traffic including buffer prefetches.
    pub fn traffic_below(&self) -> u64 {
        self.stats().traffic_below()
    }

    /// Present one access; returns `true` on a cache or buffer-head hit.
    pub fn access(&mut self, r: MemRef) -> bool {
        self.clock += 1;
        let block_size = self.cache.config().block_size();
        let block_addr = r.addr & !(block_size - 1);
        if self.cache.is_resident(r.addr) {
            return self.cache.access(r).hit;
        }

        // Check buffer heads.
        let clock = self.clock;
        let depth = self.depth;
        if let Some(buf) = self
            .buffers
            .iter_mut()
            .find(|b| b.blocks.front() == Some(&block_addr))
        {
            // Buffer hit: pop the head, advance the stream by one block.
            buf.blocks.pop_front();
            buf.blocks.push_back(buf.next);
            self.stats_extra_prefetch += block_size;
            buf.next += block_size;
            buf.last_use = clock;
            self.stream_hits += 1;
            // Install into the cache; the install fetch would be counted
            // by Cache::access, so subtract it back out (the bytes
            // crossed when the buffer prefetched them).
            let before = self.cache.stats().bytes_fetched;
            let _ = self.cache.access(r);
            let fetched = self.cache.stats().bytes_fetched - before;
            self.stats_extra_prefetch = self.stats_extra_prefetch.saturating_sub(fetched);
            return true;
        }

        // True miss: demand-fetch through the cache and (re)allocate the
        // least-recently-used buffer to the new stream.
        let outcome = self.cache.access(r);
        let lru = self
            .buffers
            .iter_mut()
            .min_by_key(|b| b.last_use)
            .expect("at least one buffer");
        lru.blocks.clear();
        let mut next = block_addr + block_size;
        for _ in 0..depth {
            lru.blocks.push_back(next);
            self.stats_extra_prefetch += block_size;
            next += block_size;
        }
        lru.next = next;
        lru.last_use = clock;
        outcome.hit
    }

    /// Flush the cache (buffers hold clean prefetched data only).
    pub fn flush(&mut self) -> CacheStats {
        self.cache.flush();
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(buffers: usize, depth: usize) -> StreamBuffers {
        let cfg = CacheConfig::builder(1024, 32).build().unwrap();
        StreamBuffers::new(cfg, buffers, depth)
    }

    #[test]
    fn sequential_stream_hits_after_first_miss() {
        let mut s = sb(2, 4);
        let mut hits = 0;
        for i in 0..32u64 {
            if s.access(MemRef::read(i * 32, 4)) {
                hits += 1;
            }
        }
        assert!(s.stream_hits() >= 28, "stream hits = {}", s.stream_hits());
        assert!(hits >= 28);
    }

    #[test]
    fn random_accesses_waste_prefetch_traffic() {
        // The §2.1 claim: false streams fetch unnecessary data.
        let mut s = sb(2, 4);
        let mut plain = Cache::new(CacheConfig::builder(1024, 32).build().unwrap());
        let mut x = 1u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = ((x >> 30) % (1 << 22)) & !31;
            s.access(MemRef::read(addr, 4));
            plain.access(MemRef::read(addr, 4));
        }
        let s_traffic = s.flush().traffic_below();
        let plain_traffic = plain.flush().traffic_below();
        assert!(
            s_traffic > plain_traffic,
            "stream buffers must add traffic on random accesses: {s_traffic} vs {plain_traffic}"
        );
    }

    #[test]
    fn interleaved_streams_use_separate_buffers() {
        let mut s = sb(2, 4);
        for i in 0..16u64 {
            s.access(MemRef::read(i * 32, 4)); // stream A
            s.access(MemRef::read(0x100000 + i * 32, 4)); // stream B
        }
        assert!(
            s.stream_hits() >= 24,
            "two buffers should track two streams, hits = {}",
            s.stream_hits()
        );
    }

    #[test]
    fn one_buffer_thrashes_on_two_streams() {
        let mut s = sb(1, 4);
        for i in 0..16u64 {
            s.access(MemRef::read(i * 32, 4));
            s.access(MemRef::read(0x100000 + i * 32, 4));
        }
        assert!(
            s.stream_hits() < 4,
            "one buffer cannot hold two streams, hits = {}",
            s.stream_hits()
        );
    }

    #[test]
    #[should_panic(expected = "non-prefetching cache")]
    fn rejects_tagged_prefetch_cache() {
        let cfg = CacheConfig::builder(1024, 32)
            .tagged_prefetch(true)
            .build()
            .unwrap();
        let _ = StreamBuffers::new(cfg, 2, 4);
    }
}
