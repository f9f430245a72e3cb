//! Timing model of the two-level memory hierarchy.
//!
//! Functional contents (hits, misses, evictions, traffic) come from the
//! `membw-cache` simulators; this module adds *time*: L2 and DRAM access
//! latencies, bus occupancy and queueing, critical-word-first returns,
//! MSHR-style lockup-free behaviour or blocking-cache serialization, and
//! an infinite write buffer (stores retire immediately; their traffic
//! still occupies the buses).

use crate::bus::Bus;
use crate::dram::{Dram, DramConfig};
use crate::machine::{MemoryMode, MemorySpec};
use membw_cache::{BelowKind, BelowRequest, Cache, CacheStats};
use membw_trace::{FastHashMap, MemRef};
use serde::{Deserialize, Serialize};

/// Aggregate counters of a [`MemSystem`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemSystemStats {
    /// Loads presented.
    pub loads: u64,
    /// Stores presented.
    pub stores: u64,
    /// Bytes that crossed the L2/memory boundary (the "pin traffic").
    pub memory_traffic: u64,
    /// CPU cycles requests spent queued for the L1/L2 bus.
    pub bus1_queued_cycles: u64,
    /// CPU cycles requests spent queued for the L2/memory bus.
    pub bus2_queued_cycles: u64,
}

/// The timed two-level hierarchy.
///
/// # Example
///
/// ```
/// use membw_sim::{Experiment, MachineSpec, MemSystem, MemoryMode};
///
/// let spec = MachineSpec::spec92(Experiment::A);
/// let mut m = MemSystem::new(&spec.mem, MemoryMode::Full);
/// let t0 = m.load(0, 0x1000);          // cold miss: goes to memory
/// let t1 = m.load(t0, 0x1000);         // now hits in one cycle
/// assert!(t0 > 30, "miss pays L2 + memory latency, got {t0}");
/// assert_eq!(t1, t0 + 1);
/// ```
#[derive(Debug)]
pub struct MemSystem {
    mode: MemoryMode,
    /// The caches; `None` under [`MemoryMode::Perfect`], whose accesses
    /// never reach them.
    caches: Option<Caches>,
    bus1: Bus,
    bus2: Bus,
    dram: Dram,
    spec: MemorySpec,
    /// `log2` of the L1 and L2 block sizes (both powers of two, as the
    /// cache configurations require).
    l1_shift: u32,
    l2_shift: u32,
    /// L1 blocks currently being filled -> cycle the fill completes.
    fill_ready: Fills,
    /// L2 blocks currently being filled -> cycle the fill completes.
    l2_fill_ready: Fills,
    /// Completion cycle of the most recent miss (blocking cache).
    last_miss_done: u64,
    /// Completion cycles of in-flight misses (lockup-free MSHRs).
    outstanding: Vec<u64>,
    /// Drain times of occupied write-buffer entries (finite buffers).
    write_buffer: Vec<u64>,
    stats: MemSystemStats,
}

impl MemSystem {
    /// Build the hierarchy described by `spec` under `mode`.
    pub fn new(spec: &MemorySpec, mode: MemoryMode) -> Self {
        let caches = (mode != MemoryMode::Perfect).then(|| Caches {
            l1: Cache::new(spec.l1_config()),
            icache: spec.icache_config().map(Cache::new),
            l2: Cache::new(spec.l2_config()),
        });
        Self::with_caches(spec, mode, caches)
    }

    /// A fresh run of `prev`'s hierarchy under `mode`: equal to
    /// `MemSystem::new` with `prev`'s spec, but the caches are emptied
    /// in place instead of allocated anew. Buses, DRAM and in-flight
    /// state start fresh.
    pub fn reusing(prev: MemSystem, mode: MemoryMode) -> Self {
        match prev.caches {
            Some(mut caches) if mode != MemoryMode::Perfect => {
                caches.reset();
                Self::with_caches(&prev.spec, mode, Some(caches))
            }
            _ => Self::new(&prev.spec, mode),
        }
    }

    fn with_caches(spec: &MemorySpec, mode: MemoryMode, caches: Option<Caches>) -> Self {
        let (bus1, bus2) = match mode {
            MemoryMode::Full => (
                Bus::new(spec.bus1_width, spec.bus1_ratio),
                Bus::new(spec.bus2_width, spec.bus2_ratio),
            ),
            _ => (Bus::infinite(), Bus::infinite()),
        };
        let dram = match mode {
            MemoryMode::Full => Dram::new(spec.dram),
            _ => Dram::new(DramConfig::infinite_banks(spec.dram.access_cycles)),
        };
        Self {
            mode,
            caches,
            bus1,
            bus2,
            dram,
            spec: *spec,
            l1_shift: spec.l1_block.trailing_zeros(),
            l2_shift: spec.l2_block.trailing_zeros(),
            fill_ready: Fills::default(),
            l2_fill_ready: Fills::default(),
            last_miss_done: 0,
            outstanding: Vec::new(),
            write_buffer: Vec::new(),
            stats: MemSystemStats::default(),
        }
    }

    /// The run mode.
    pub fn mode(&self) -> MemoryMode {
        self.mode
    }

    /// Aggregate counters (memory traffic, queueing).
    pub fn stats(&self) -> MemSystemStats {
        let mut s = self.stats;
        s.bus1_queued_cycles = self.bus1.queued_cycles();
        s.bus2_queued_cycles = self.bus2.queued_cycles();
        s
    }

    /// L1 functional counters (all zero under [`MemoryMode::Perfect`]).
    pub fn l1_stats(&self) -> CacheStats {
        self.caches
            .as_ref()
            .map(|c| *c.l1.stats())
            .unwrap_or_default()
    }

    fn caches(&mut self) -> &mut Caches {
        self.caches
            .as_mut()
            .expect("perfect memory never reaches the caches")
    }

    /// Present an instruction fetch of the 32-byte block at `pc` issued
    /// at `now`; returns the cycle the block is available. Returns `now`
    /// when I-side modeling is disabled or memory is perfect.
    pub fn ifetch(&mut self, now: u64, pc: u64) -> u64 {
        let Some(ic) = self.caches.as_mut().and_then(|c| c.icache.as_mut()) else {
            return now;
        };
        let outcome = ic.access(MemRef::read(pc & !31, 4));
        if outcome.hit {
            return now;
        }
        let mut ready = now;
        for &req in outcome.below() {
            if req.is_fetch() {
                ready = self.fetch_from_l2(now, req);
            }
            // I-cache lines are never dirty; no write-backs occur.
        }
        ready
    }

    /// Present a load issued at `now`; returns its data-ready cycle.
    pub fn load(&mut self, now: u64, addr: u64) -> u64 {
        self.stats.loads += 1;
        if self.mode == MemoryMode::Perfect {
            return now + 1;
        }
        self.access(now, MemRef::read(addr, 4), true)
    }

    /// Present a store issued at `now`; returns its retire cycle.
    ///
    /// With the paper's infinite write buffer (the default), stores
    /// retire one cycle after issue regardless of hit/miss; miss traffic
    /// still occupies MSHRs and buses. With a finite buffer
    /// ([`MemorySpec::write_buffer_entries`] > 0), a store that finds
    /// the buffer full stalls until the oldest entry drains.
    pub fn store(&mut self, now: u64, addr: u64) -> u64 {
        self.stats.stores += 1;
        if self.mode == MemoryMode::Perfect {
            return now + 1;
        }
        let drains_at = self.access(now, MemRef::write(addr, 4), false);
        if self.spec.write_buffer_entries == 0 || self.mode != MemoryMode::Full {
            return now + 1;
        }
        // Finite buffer: occupy an entry until the store's below-L1
        // activity completes; a full buffer backpressures the core.
        self.write_buffer.retain(|&d| d > now);
        let mut retire = now + 1;
        if self.write_buffer.len() >= self.spec.write_buffer_entries {
            let earliest = self
                .write_buffer
                .iter()
                .copied()
                .min()
                .expect("full buffer is non-empty");
            retire = retire.max(earliest + 1);
            self.write_buffer.retain(|&d| d > earliest);
        }
        self.write_buffer.push(drains_at.max(now + 1));
        retire
    }

    /// Core of the timing model. Returns the data-ready cycle (loads).
    fn access(&mut self, now: u64, r: MemRef, wait_for_data: bool) -> u64 {
        let block = r.addr >> self.l1_shift;
        let Some(outcome) = self.caches().l1.access_unless_quiet(r) else {
            // A hit on a still-filling block waits for the fill.
            return self.fill_ready.wait(block, now + 1);
        };
        if outcome.hit {
            let ready = self.fill_ready.wait(block, now + 1);
            // Tagged prefetch can trigger on first use of a prefetched
            // block: schedule its traffic without stalling the core.
            self.schedule_async(now + 1, outcome.below());
            return ready;
        }

        // Miss. Structural constraints first.
        let mut issue = now + 1;
        if self.spec.blocking {
            issue = issue.max(self.last_miss_done);
        } else {
            self.outstanding.retain(|&c| c > issue);
            if self.outstanding.len() >= self.spec.mshrs {
                let earliest = self
                    .outstanding
                    .iter()
                    .copied()
                    .min()
                    .expect("outstanding non-empty when full");
                issue = issue.max(earliest);
                self.outstanding.retain(|&c| c > issue);
            }
        }

        let mut data_ready = issue;
        for req in outcome.below() {
            match req.kind {
                BelowKind::Fetch => {
                    data_ready = self.fetch_from_l2(issue, *req);
                }
                BelowKind::PrefetchFetch | BelowKind::Writeback | BelowKind::WriteThrough => {
                    self.schedule_one_async(issue, *req);
                }
            }
        }

        self.fill_ready.insert(block, data_ready);
        self.fill_ready.prune(now);
        self.l2_fill_ready.prune(now);
        self.last_miss_done = self.last_miss_done.max(data_ready);
        if !self.spec.blocking {
            self.outstanding.push(data_ready);
        }
        if wait_for_data {
            data_ready
        } else {
            data_ready.max(now + 1)
        }
    }

    /// Time a demand fetch from L2 (and below), returning the cycle the
    /// critical word reaches the L1.
    fn fetch_from_l2(&mut self, t: u64, req: BelowRequest) -> u64 {
        let l2_block = req.addr >> self.l2_shift;
        let size = u16::try_from(req.bytes.min(u64::from(u16::MAX))).expect("bounded");
        let outcome = self.caches().l2.access(MemRef::read(req.addr, size));
        // Request reaches L2, which takes l2_latency to respond.
        let l2_done = t + self.spec.l2_latency;
        let data_at_l2 = if outcome.hit {
            // Account for an in-progress fill of this L2 block.
            self.l2_fill_ready.wait(l2_block, l2_done)
        } else {
            let mut ready = l2_done;
            for sub in outcome.below() {
                match sub.kind {
                    BelowKind::Fetch => {
                        // DRAM access then transfer over the L2/memory
                        // bus, critical word first.
                        let mem_ready = self.dram.access(l2_done, sub.addr);
                        let grant = self.bus2.acquire(mem_ready, sub.bytes);
                        self.stats.memory_traffic += sub.bytes;
                        self.l2_fill_ready.insert(l2_block, grant.done);
                        ready = grant.first_beat;
                    }
                    _ => {
                        // L2 writebacks go to memory asynchronously.
                        self.bus2.acquire(l2_done, sub.bytes);
                        self.stats.memory_traffic += sub.bytes;
                    }
                }
            }
            ready
        };
        // Data crosses the L1/L2 bus, critical word first.
        let grant = self.bus1.acquire(data_at_l2, req.bytes);
        grant.first_beat
    }

    /// Schedule below-L1 transfers nobody waits on (write-backs,
    /// write-throughs, prefetches).
    fn schedule_async(&mut self, t: u64, reqs: &[BelowRequest]) {
        for req in reqs {
            self.schedule_one_async(t, *req);
        }
    }

    fn schedule_one_async(&mut self, t: u64, req: BelowRequest) {
        if req.is_fetch() {
            // Prefetch: full L2 path; nobody stalls on it now, but a
            // later demand hit on the block must wait for its arrival.
            let ready = self.fetch_from_l2(t, req);
            self.fill_ready.insert(req.addr >> self.l1_shift, ready);
        } else {
            // Writeback / write-through: occupy bus1, then update L2.
            let grant = self.bus1.acquire(t, req.bytes);
            let size = u16::try_from(req.bytes.min(u64::from(u16::MAX))).expect("bounded");
            let outcome = self.caches().l2.access(MemRef::write(req.addr, size));
            for sub in outcome.below() {
                self.bus2.acquire(grant.done, sub.bytes);
                self.stats.memory_traffic += sub.bytes;
            }
        }
    }
}

/// The functional caches behind a [`MemSystem`].
#[derive(Debug)]
struct Caches {
    l1: Cache,
    icache: Option<Cache>,
    l2: Cache,
}

impl Caches {
    fn reset(&mut self) {
        self.l1.reset();
        if let Some(ic) = &mut self.icache {
            ic.reset();
        }
        self.l2.reset();
    }
}

/// Completion cycles of block fills, keyed by block number.
///
/// `latest` is a watermark: the latest completion ever inserted. A
/// request ready at or after it cannot wait on any fill, so [`wait`]
/// answers without the lookup, and the answer is exact.
///
/// [`wait`]: Fills::wait
#[derive(Debug, Default)]
struct Fills {
    ready: FastHashMap<u64, u64>,
    latest: u64,
}

impl Fills {
    fn insert(&mut self, block: u64, done: u64) {
        self.ready.insert(block, done);
        self.latest = self.latest.max(done);
    }

    /// When a request ready at `at` gets `block`'s data: after any
    /// in-flight fill of the block completes.
    #[inline]
    fn wait(&self, block: u64, at: u64) -> u64 {
        if at >= self.latest {
            return at;
        }
        self.ready.get(&block).copied().unwrap_or(0).max(at)
    }

    /// Drop completed fills once the map grows large.
    fn prune(&mut self, now: u64) {
        if self.ready.len() > 65536 {
            self.ready.retain(|_, &mut c| c > now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Experiment, MachineSpec};

    fn full(e: Experiment) -> MemSystem {
        MemSystem::new(&MachineSpec::spec92(e).mem, MemoryMode::Full)
    }

    #[test]
    fn perfect_mode_is_always_one_cycle() {
        let mut spec = MachineSpec::spec92(Experiment::A).mem;
        spec.icache_bytes = 64 * 1024;
        let mut m = MemSystem::new(&spec, MemoryMode::Perfect);
        assert!(m.caches.is_none(), "perfect memory builds no cache lines");
        assert_eq!(m.ifetch(50, 0x400000), 50);
        assert_eq!(m.load(100, 0xdead000), 101);
        assert_eq!(m.store(200, 0xbeef000), 201);
        assert_eq!(m.stats().memory_traffic, 0);
        assert_eq!(m.l1_stats(), CacheStats::default());
    }

    #[test]
    fn l2_hit_is_faster_than_memory_miss() {
        let mut m = full(Experiment::A);
        // Cold miss: L1 miss, L2 miss → memory.
        let t_mem = m.load(0, 0x10000);
        // Evict from L1 by touching 4096 conflicting blocks... instead use
        // an address that shares the L2 block but a different L1 block:
        // L1 block 32B, L2 block 64B → 0x10020 is a new L1 block but the
        // same (already fetched) L2 block.
        let t_l2 = m.load(t_mem, 0x10020) - t_mem;
        assert!(t_l2 < t_mem, "L2 hit ({t_l2}) must beat memory ({t_mem})");
        assert!(t_l2 > 1, "L2 hit is not free");
    }

    #[test]
    fn store_retires_immediately_but_moves_traffic() {
        let mut m = full(Experiment::A);
        let t = m.store(0, 0x4000);
        assert_eq!(t, 1, "infinite write buffer retires stores at once");
        assert!(m.l1_stats().write_misses == 1);
        assert!(
            m.stats().memory_traffic > 0,
            "allocate fetch reached memory"
        );
    }

    #[test]
    fn blocking_cache_serializes_misses() {
        let mut blocking = full(Experiment::A); // blocking
        let mut lockup_free = full(Experiment::C); // MSHRs
                                                   // Two independent cold misses issued back-to-back.
        let b1 = blocking.load(0, 0x100000);
        let b2 = blocking.load(1, 0x200000);
        let c1 = lockup_free.load(0, 0x100000);
        let c2 = lockup_free.load(1, 0x200000);
        assert!(b2 >= b1 + b1 / 2, "second blocked miss waits");
        assert!(c2 < b2, "lockup-free overlaps misses: {c2} vs {b2}");
        assert_eq!(c1, b1, "first miss costs the same either way");
    }

    #[test]
    fn latency_only_mode_removes_queueing() {
        let spec = MachineSpec::spec92(Experiment::C).mem;
        let mut full_sys = MemSystem::new(&spec, MemoryMode::Full);
        let mut lat_sys = MemSystem::new(&spec, MemoryMode::LatencyOnly);
        // A burst of simultaneous misses: the full system queues on the
        // 64-bit memory bus, the latency-only system does not.
        let mut full_last = 0;
        let mut lat_last = 0;
        for i in 0..8u64 {
            full_last = full_last.max(full_sys.load(i, i * 0x100000));
            lat_last = lat_last.max(lat_sys.load(i, i * 0x100000));
        }
        assert!(lat_last < full_last, "{lat_last} vs {full_last}");
        assert_eq!(
            full_sys.stats().memory_traffic,
            lat_sys.stats().memory_traffic,
            "functional traffic is identical across modes"
        );
        assert_eq!(lat_sys.stats().bus2_queued_cycles, 0);
    }

    #[test]
    fn fill_watermark_answers_like_the_lookup() {
        let mut f = Fills::default();
        f.insert(1, 50);
        f.insert(2, 30);
        f.insert(1, 20); // a refill may finish earlier than the watermark
        for (block, at) in [
            (1, 10),
            (1, 25),
            (2, 10),
            (2, 40),
            (3, 10),
            (1, 50),
            (2, 60),
        ] {
            let looked_up = f.ready.get(&block).copied().unwrap_or(0).max(at);
            assert_eq!(f.wait(block, at), looked_up, "block {block} at {at}");
        }
        assert_eq!(f.latest, 50);
    }

    #[test]
    fn a_reused_hierarchy_times_like_a_fresh_one() {
        let mut spec = MachineSpec::spec92(Experiment::E).mem;
        spec.icache_bytes = 16 * 1024;
        spec.write_buffer_entries = 4;
        let drive = |m: &mut MemSystem| {
            let mut t = 0;
            let mut times = Vec::new();
            for i in 0..3000u64 {
                let addr = (i * 0x1234_5677) % (8 << 20);
                t = match i % 4 {
                    0 => m.store(t, addr),
                    1 => m.ifetch(t, addr & 0xffff),
                    _ => m.load(t, addr),
                };
                times.push(t);
            }
            (times, m.stats(), m.l1_stats())
        };
        for (first, then) in [
            (MemoryMode::LatencyOnly, MemoryMode::Full),
            (MemoryMode::Full, MemoryMode::LatencyOnly),
            (MemoryMode::Perfect, MemoryMode::Full),
            (MemoryMode::Full, MemoryMode::Perfect),
        ] {
            let mut used = MemSystem::new(&spec, first);
            drive(&mut used);
            let mut reused = MemSystem::reusing(used, then);
            let mut fresh = MemSystem::new(&spec, then);
            assert_eq!(reused.mode(), then);
            assert_eq!(
                drive(&mut reused),
                drive(&mut fresh),
                "{first:?} -> {then:?}"
            );
        }
    }

    #[test]
    fn hit_on_filling_block_waits_for_fill() {
        let mut m = full(Experiment::C);
        let t1 = m.load(0, 0x8000);
        // Second word of the same block, issued while the fill is in
        // flight: functionally a hit, but the data is not there yet.
        let t2 = m.load(1, 0x8004);
        assert!(t2 >= t1, "hit under fill cannot complete before the fill");
    }

    #[test]
    fn icache_misses_gate_fetch_and_share_the_memory_path() {
        let mut spec = MachineSpec::spec92(Experiment::C).mem;
        spec.icache_bytes = 64 * 1024;
        let mut m = MemSystem::new(&spec, MemoryMode::Full);
        // Cold I-block: costs a real trip through L2/memory.
        let t1 = m.ifetch(0, 0x1000);
        assert!(t1 > 20, "cold I-miss pays the hierarchy, got {t1}");
        // Same block again: free.
        assert_eq!(m.ifetch(t1, 0x1010), t1);
        // Disabled I-side is always free.
        let base = MachineSpec::spec92(Experiment::C).mem;
        let mut off = MemSystem::new(&base, MemoryMode::Full);
        assert_eq!(off.ifetch(5, 0x1000), 5);
        // I-traffic reached memory.
        assert!(m.stats().memory_traffic > 0);
    }

    #[test]
    fn finite_write_buffer_backpressures_store_bursts() {
        let mut spec = MachineSpec::spec92(Experiment::C).mem;
        spec.write_buffer_entries = 2;
        let mut finite = MemSystem::new(&spec, MemoryMode::Full);
        let mut infinite =
            MemSystem::new(&MachineSpec::spec92(Experiment::C).mem, MemoryMode::Full);
        // A burst of store misses to distinct blocks.
        let mut t_fin = 0;
        let mut t_inf = 0;
        for i in 0..16u64 {
            t_fin = finite.store(t_fin, i * 0x100000);
            t_inf = infinite.store(t_inf, i * 0x100000);
        }
        assert!(
            t_fin > t_inf,
            "a 2-entry buffer must stall the burst: {t_fin} vs {t_inf}"
        );
        assert_eq!(t_inf, 16, "infinite buffer retires one per cycle");
        // In latency-only mode the buffer model is disabled (bandwidth
        // effects belong to the full run).
        let mut lat = MemSystem::new(&spec, MemoryMode::LatencyOnly);
        let mut t = 0;
        for i in 0..16u64 {
            t = lat.store(t, i * 0x100000);
        }
        assert_eq!(t, 16);
    }

    #[test]
    fn prefetch_moves_traffic_without_stalling() {
        let spec = MachineSpec::spec92(Experiment::E).mem; // prefetch on
        let mut m = MemSystem::new(&spec, MemoryMode::Full);
        let t = m.load(0, 0); // miss on block 0 → prefetch block 1
        assert!(m.l1_stats().prefetch_fills >= 1);
        // First use of the prefetched block hits (after waiting for the
        // in-flight fill) and triggers the prefetch of block 2, which
        // lives in a *different L2 block* — so by the time the demand
        // stream arrives there, the memory access is already under way.
        let t2 = m.load(t, 32);
        let t3 = m.load(t2 + 30, 64);
        let no_pf_spec = MachineSpec::spec92(Experiment::D).mem;
        let mut n = MemSystem::new(&no_pf_spec, MemoryMode::Full);
        let u = n.load(0, 0);
        let u2 = n.load(u, 32);
        assert!(u2 > u + 2, "without prefetch the next block misses");
        let u3 = n.load(u2 + 30, 64);
        assert!(
            t3 - (t2 + 30) < u3 - (u2 + 30),
            "prefetch must hide part of block 2's latency: {} vs {}",
            t3 - (t2 + 30),
            u3 - (u2 + 30)
        );
        assert!(
            m.stats().memory_traffic >= n.stats().memory_traffic,
            "prefetch cannot reduce total traffic here"
        );
    }
}
