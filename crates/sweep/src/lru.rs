//! The per-set LRU stack sweep engine.
//!
//! One capacity *level* per swept size: each level keeps, for every one
//! of its sets, the resident block numbers in MRU-first order with a
//! dirty bit alongside each (the dirty-level tracking layered on the
//! LRU stack). A cache set under LRU is exactly this recency list, so
//! replaying each reference piece against every level in one trace
//! pass reproduces the direct simulator's per-capacity counters
//! verbatim: hit/miss splits, write-allocate fills, dirty-eviction
//! write-backs, write-through bytes, and the end-of-run flush.

use membw_cache::{
    Associativity, CacheConfig, CacheStats, ConfigError, ReplacementPolicy, WriteAllocate,
    WritePolicy,
};
use membw_trace::{MemRef, Workload};

/// Slots per chunk: the unit a level allocates on first touch. A chunk
/// holds whole sets, so a level with wider sets (fully associative at a
/// large capacity) takes one set per chunk, and a level smaller than a
/// chunk is one chunk.
pub const CHUNK_SLOTS: usize = 64;

/// Chunk-table entry of a chunk no reference has touched yet.
const UNTOUCHED: u32 = u32::MAX;

/// Dirty bit of a slot (bit 0; the block lives in the bits above it).
const DIRTY: u64 = 1;

/// Cancel-poll stride on the reference stream; the engine also reports
/// the bytes it holds to the memory governor at this stride.
const CANCEL_POLL: usize = 4096;

/// The organization held fixed across a capacity sweep.
///
/// Defaults match [`CacheConfig::builder`]: direct-mapped, write-back,
/// write-allocate, LRU, no prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// Transfer/address block size in bytes.
    pub block_size: u64,
    /// Associativity applied at every capacity.
    pub associativity: Associativity,
    /// Write-hit policy.
    pub write_policy: WritePolicy,
    /// Write-miss policy.
    pub write_allocate: WriteAllocate,
    /// Replacement policy (the engine represents only LRU).
    pub replacement: ReplacementPolicy,
    /// Tagged prefetch (the engine represents only `false`).
    pub tagged_prefetch: bool,
}

impl SweepSpec {
    /// A spec with the builder's defaults at `block_size`.
    pub fn new(block_size: u64) -> Self {
        Self {
            block_size,
            associativity: Associativity::Ways(1),
            write_policy: WritePolicy::WriteBack,
            write_allocate: WriteAllocate::Allocate,
            replacement: ReplacementPolicy::Lru,
            tagged_prefetch: false,
        }
    }

    /// Replace the associativity.
    pub fn associativity(mut self, a: Associativity) -> Self {
        self.associativity = a;
        self
    }

    /// Replace the write-hit policy.
    pub fn write_policy(mut self, p: WritePolicy) -> Self {
        self.write_policy = p;
        self
    }

    /// Replace the write-miss policy.
    pub fn write_allocate(mut self, p: WriteAllocate) -> Self {
        self.write_allocate = p;
        self
    }

    /// Replace the replacement policy (non-LRU falls back to direct).
    pub fn replacement(mut self, r: ReplacementPolicy) -> Self {
        self.replacement = r;
        self
    }

    /// Enable tagged prefetch (falls back to direct simulation).
    pub fn tagged_prefetch(mut self, on: bool) -> Self {
        self.tagged_prefetch = on;
        self
    }

    /// The validated [`CacheConfig`] this spec denotes at `capacity`.
    ///
    /// # Errors
    ///
    /// Whatever [`CacheConfig::builder`] rejects — callers should treat
    /// [`ConfigError::is_geometry_limit`] errors as expected point
    /// omissions and anything else as a bug worth a diagnostic.
    pub fn config_for(&self, capacity: u64) -> Result<CacheConfig, ConfigError> {
        CacheConfig::builder(capacity, self.block_size)
            .associativity(self.associativity)
            .write_policy(self.write_policy)
            .write_allocate(self.write_allocate)
            .replacement(self.replacement)
            .tagged_prefetch(self.tagged_prefetch)
            .build()
    }

    /// Why the stack engine cannot represent this spec exactly, if it
    /// cannot. `None` means the engine is exact for every capacity.
    pub fn unsupported_reason(&self) -> Option<&'static str> {
        if self.replacement != ReplacementPolicy::Lru {
            return Some("non-LRU replacement is not a stack algorithm per set");
        }
        if self.tagged_prefetch {
            return Some("tagged prefetch couples sets across accesses");
        }
        if self.write_allocate == WriteAllocate::Validate {
            return Some("write-validate tracks word-granular validity");
        }
        None
    }
}

/// Returned by [`LruSweep::new`] when the spec needs the direct
/// fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepUnsupported(pub &'static str);

impl std::fmt::Display for SweepUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stack sweep cannot represent this config: {}", self.0)
    }
}

/// One capacity level: a truncated LRU stack per set, with dirty bits,
/// stored in chunks of whole sets that are allocated on first touch, so
/// the level holds memory for the sets the trace reaches, not for its
/// capacity.
///
/// A slot holds `(block + 1) << 1 | dirty`: zero is an empty slot, so a
/// fresh chunk is all zeros, and a set is one array to search and
/// rotate. Blocks are at least 4 bytes (the builder rejects smaller
/// ones), so `block + 1 <= 2^62` and the shift cannot overflow.
#[derive(Debug)]
struct Level {
    set_mask: u64,
    ways: usize,
    ways_log2: u32,
    /// log2 of the sets one chunk holds.
    chunk_sets_log2: u32,
    /// log2 of the slots one chunk holds.
    chunk_log2: u32,
    /// Per chunk of sets: its ordinal in `slots`, or [`UNTOUCHED`].
    table: Vec<u32>,
    /// The touched chunks in first-touch order; within a chunk,
    /// set-major, MRU-first within a set.
    slots: Vec<u64>,
    read_hits: u64,
    read_misses: u64,
    write_hits: u64,
    write_misses: u64,
    /// Demand fills (each fetches one whole block).
    fills: u64,
    /// Dirty evictions (each writes back one whole block).
    writebacks: u64,
    /// Write-through / no-allocate bytes pushed below.
    through_bytes: u64,
}

impl Level {
    fn new(cfg: &CacheConfig) -> Self {
        let (sets, ways) = (cfg.num_sets(), cfg.ways());
        let chunk = (CHUNK_SLOTS as u64).max(ways).min(sets * ways);
        let chunk_sets = chunk / ways;
        Self {
            set_mask: sets - 1,
            ways: ways as usize,
            ways_log2: ways.trailing_zeros(),
            chunk_sets_log2: chunk_sets.trailing_zeros(),
            chunk_log2: chunk.trailing_zeros(),
            table: vec![UNTOUCHED; (sets / chunk_sets) as usize],
            slots: Vec::new(),
            read_hits: 0,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
            fills: 0,
            writebacks: 0,
            through_bytes: 0,
        }
    }

    /// Bytes held: the chunk table plus the chunks allocated so far.
    fn bytes(&self) -> u64 {
        (self.table.capacity() * std::mem::size_of::<u32>()
            + self.slots.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Allocate `chunk` (all slots empty) and return its ordinal.
    #[cold]
    #[inline(never)]
    fn touch(&mut self, chunk: usize) -> u32 {
        let ordinal = u32::try_from(self.slots.len() >> self.chunk_log2)
            .ok()
            .filter(|&o| o != UNTOUCHED)
            .expect("a level holds fewer than 2^32 - 1 chunks");
        self.slots
            .resize(self.slots.len() + (1 << self.chunk_log2), 0);
        self.table[chunk] = ordinal;
        ordinal
    }

    /// Present one block-aligned piece: `bn` is its block number and
    /// `key` its slot encoding, `(bn + 1) << 1`. `WAYS` is the level's
    /// way count when the caller knows it at compile time, 0 otherwise.
    #[inline(always)]
    fn access<const WAYS: usize>(
        &mut self,
        bn: u64,
        key: u64,
        is_write: bool,
        size: u64,
        wp: WritePolicy,
        wa: WriteAllocate,
    ) {
        debug_assert!(WAYS == 0 || WAYS == self.ways);
        let ways = if WAYS == 0 { self.ways } else { WAYS };
        let set = bn & self.set_mask;
        let chunk = (set >> self.chunk_sets_log2) as usize;
        let ordinal = match self.table[chunk] {
            UNTOUCHED => self.touch(chunk),
            o => o,
        };
        let in_chunk = (set & ((1 << self.chunk_sets_log2) - 1)) as usize;
        let base = ((ordinal as usize) << self.chunk_log2) + (in_chunk << self.ways_log2);
        let slots = &mut self.slots[base..base + ways];

        if let Some(way) = slots.iter().position(|&s| s & !DIRTY == key) {
            // Hit: rotate the touched block to MRU, carrying its dirty
            // bit; writes dirty it (write-back) or push through.
            if is_write {
                self.write_hits += 1;
            } else {
                self.read_hits += 1;
            }
            let mut hit = slots[way];
            for w in (1..=way).rev() {
                slots[w] = slots[w - 1];
            }
            if is_write {
                match wp {
                    WritePolicy::WriteBack => hit |= DIRTY,
                    WritePolicy::WriteThrough => self.through_bytes += size,
                }
            }
            slots[0] = hit;
            return;
        }

        // Miss.
        if is_write {
            self.write_misses += 1;
            if wa == WriteAllocate::NoAllocate {
                // Straight through; set state untouched.
                self.through_bytes += size;
                return;
            }
        } else {
            self.read_misses += 1;
        }

        // Allocate: evict LRU (empty slots drift to the tail, and an
        // empty slot is never dirty), fill at MRU.
        self.fills += 1;
        let last = ways - 1;
        if slots[last] & DIRTY != 0 {
            self.writebacks += 1;
        }
        for w in (1..=last).rev() {
            slots[w] = slots[w - 1];
        }
        let dirty = is_write && wp == WritePolicy::WriteBack;
        slots[0] = key | u64::from(dirty);
        if is_write && wp == WritePolicy::WriteThrough {
            self.through_bytes += size;
        }
    }

    /// Fold the level's counters (plus the stream-wide shared counters)
    /// into the exact per-capacity [`CacheStats`]. The end-of-run flush
    /// walks the allocated chunks only: an untouched chunk holds nothing.
    fn finish(&self, shared: &Shared, block: u64) -> CacheStats {
        let dirty_resident: u64 = self
            .slots
            .chunks_exact(1 << self.chunk_log2)
            .map(|chunk| chunk.iter().filter(|&&s| s & DIRTY != 0).count() as u64)
            .sum();
        CacheStats {
            accesses: shared.accesses,
            reads: shared.reads,
            writes: shared.writes,
            request_bytes: shared.request_bytes,
            read_hits: self.read_hits,
            read_misses: self.read_misses,
            write_hits: self.write_hits,
            write_misses: self.write_misses,
            bytes_fetched: self.fills * block,
            bytes_written_back: self.writebacks * block,
            bytes_written_through: self.through_bytes,
            bytes_flushed: dirty_resident * block,
            ..CacheStats::default()
        }
    }
}

/// Stream-wide counters, identical at every capacity (the straddle
/// split depends only on the block size, which the sweep holds fixed).
#[derive(Debug, Default)]
struct Shared {
    accesses: u64,
    reads: u64,
    writes: u64,
    request_bytes: u64,
}

/// The one-pass multi-capacity LRU engine. Most callers want
/// [`sweep_lru`], which adds the loud direct fallback.
#[derive(Debug)]
pub struct LruSweep {
    spec: SweepSpec,
    /// `(capacity index in the caller's list, level)`.
    levels: Vec<(usize, Level)>,
    n_capacities: usize,
    shared: Shared,
}

impl LruSweep {
    /// Build levels for every representable capacity.
    ///
    /// Capacities whose geometry is invalid are skipped exactly like
    /// the direct path omits them (unexpected configuration errors get
    /// a stderr diagnostic). A level starts with only its chunk table;
    /// [`LruSweep::run`] reports what the levels hold to the ambient
    /// memory governor as arena bytes while it runs.
    ///
    /// # Errors
    ///
    /// [`SweepUnsupported`] when the spec itself is outside the stack
    /// model — the caller must fall back to direct simulation.
    pub fn new(spec: &SweepSpec, capacities: &[u64]) -> Result<Self, SweepUnsupported> {
        if let Some(reason) = spec.unsupported_reason() {
            return Err(SweepUnsupported(reason));
        }
        let mut levels = Vec::with_capacity(capacities.len());
        for (i, &cap) in capacities.iter().enumerate() {
            if let Some(cfg) = config_or_skip(spec, cap) {
                levels.push((i, Level::new(&cfg)));
            }
        }
        Ok(Self {
            spec: *spec,
            levels,
            n_capacities: capacities.len(),
            shared: Shared::default(),
        })
    }

    /// Bytes the levels hold: chunk tables plus allocated chunks.
    fn bytes(&self) -> u64 {
        self.levels.iter().map(|(_, l)| l.bytes()).sum()
    }

    #[inline(always)]
    fn access_piece<const WAYS: usize>(&mut self, r: MemRef) {
        debug_assert!(r.fits_in_block(self.spec.block_size));
        self.shared.accesses += 1;
        self.shared.request_bytes += u64::from(r.size);
        let is_write = r.kind.is_write();
        if is_write {
            self.shared.writes += 1;
        } else {
            self.shared.reads += 1;
        }
        let bn = r.block(self.spec.block_size);
        let key = (bn + 1) << 1;
        let size = u64::from(r.size);
        let (wp, wa) = (self.spec.write_policy, self.spec.write_allocate);
        for (_, level) in &mut self.levels {
            level.access::<WAYS>(bn, key, is_write, size, wp, wa);
        }
    }

    /// Present one reference: split a straddling one exactly like
    /// [`membw_cache::Cache::access`] (QPT-style per-block pieces) and
    /// update every level.
    #[inline(always)]
    fn access<const WAYS: usize>(&mut self, r: MemRef) {
        let block = self.spec.block_size;
        if r.fits_in_block(block) {
            self.access_piece::<WAYS>(r);
            return;
        }
        let mut addr = r.addr;
        let end = r.addr + u64::from(r.size);
        while addr < end {
            let block_end = (addr / block + 1) * block;
            let piece = (block_end.min(end) - addr) as u16;
            self.access_piece::<WAYS>(MemRef {
                addr,
                size: piece,
                kind: r.kind,
            });
            addr += u64::from(piece);
        }
    }

    /// One pass over `workload`'s references, flush, and return one
    /// `Option<CacheStats>` per requested capacity (`None` = geometry
    /// invalid, omitted). The references are streamed, never held.
    pub fn run<W: Workload + ?Sized>(self, workload: &W) -> Vec<Option<CacheStats>> {
        // A `Ways(n)` spec gives every level `n` ways. The suites sweep
        // direct-mapped (Tables 7 and 8) and 4-way (Figure 4) levels;
        // those get a kernel with the set width fixed at compile time.
        let ways = self.levels.first().map(|(_, l)| l.ways);
        let uniform = self.levels.iter().all(|(_, l)| Some(l.ways) == ways);
        match ways.filter(|_| uniform) {
            Some(1) => self.run_with::<1, W>(workload),
            Some(4) => self.run_with::<4, W>(workload),
            _ => self.run_with::<0, W>(workload),
        }
    }

    fn run_with<const WAYS: usize, W: Workload + ?Sized>(
        mut self,
        workload: &W,
    ) -> Vec<Option<CacheStats>> {
        let ctx = membw_runner::RunContext::current();
        let (cancel, governor) = (&ctx.cancel, &ctx.governor);
        let mut n = 0usize;
        workload.for_each_mem_ref(&mut |r| {
            if n.is_multiple_of(CANCEL_POLL) {
                cancel.check();
                governor.observe_arena_bytes(self.bytes());
            }
            n += 1;
            self.access::<WAYS>(r);
        });
        governor.observe_arena_bytes(self.bytes());
        let block = self.spec.block_size;
        let mut out: Vec<Option<CacheStats>> = vec![None; self.n_capacities];
        for (i, level) in &self.levels {
            out[*i] = Some(level.finish(&self.shared, block));
        }
        out
    }
}

/// Build `spec` at `capacity`, treating geometry-limit errors as an
/// expected point omission and logging anything else.
fn config_or_skip(spec: &SweepSpec, capacity: u64) -> Option<CacheConfig> {
    match spec.config_for(capacity) {
        Ok(cfg) => Some(cfg),
        Err(e) if e.is_geometry_limit() => None,
        Err(e) => {
            eprintln!(
                "sweep: unexpected cache-config error at capacity {capacity} B \
                 (block {} B): {e}; point omitted",
                spec.block_size
            );
            None
        }
    }
}

/// Direct per-capacity simulation of `spec` over `workload`'s
/// references: the stack engine's fallback and, through
/// [`SweepMode::Direct`](crate::SweepMode), the cross-check oracle
/// (`None` where the geometry is invalid).
pub fn direct_reference<W: Workload + ?Sized>(
    spec: &SweepSpec,
    capacity: u64,
    workload: &W,
) -> Option<CacheStats> {
    let cfg = config_or_skip(spec, capacity)?;
    let mut c = membw_cache::Cache::new(cfg);
    workload.for_each_mem_ref(&mut |r| {
        c.access(r);
    });
    Some(c.flush())
}

/// Sweep `spec` over `capacities` in one pass over `workload`'s
/// references, returning the exact per-capacity counters (`None` where
/// the geometry is invalid and the point is omitted, as the direct path
/// does). A collected slice of references is a [`Workload`] too.
///
/// Specs outside the stack model fall back **loudly** to per-capacity
/// direct simulation — a stderr line names the reason — so the result
/// is exact either way.
pub fn sweep_lru<W: Workload + ?Sized>(
    spec: &SweepSpec,
    capacities: &[u64],
    workload: &W,
) -> Vec<Option<CacheStats>> {
    match LruSweep::new(spec, capacities) {
        Ok(engine) => engine.run(workload),
        Err(unsupported) => {
            eprintln!("sweep: {unsupported}; falling back to direct simulation");
            capacities
                .iter()
                .map(|&cap| direct_reference(spec, cap, workload))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membw_trace::AccessKind;

    /// Deterministic mixed trace with straddles and writes.
    fn trace(n: usize, span_blocks: u64, seed: u64) -> Vec<MemRef> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (x >> 24) % (span_blocks * 32);
                let size = [1u16, 2, 4, 8][(x >> 9) as usize % 4];
                let kind = if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                MemRef { addr, size, kind }
            })
            .collect()
    }

    fn assert_equiv(spec: &SweepSpec, capacities: &[u64], refs: &[MemRef]) {
        let swept = sweep_lru(spec, capacities, refs);
        for (&cap, got) in capacities.iter().zip(&swept) {
            let want = direct_reference(spec, cap, refs);
            assert_eq!(
                *got, want,
                "sweep diverges from direct at capacity {cap} (spec {spec:?})"
            );
        }
    }

    #[test]
    fn matches_direct_simulation_exactly() {
        let caps: Vec<u64> = (6..=14).map(|p| 1u64 << p).collect();
        for seed in [1u64, 7, 99] {
            let refs = trace(4000, 128, seed);
            for assoc in [
                Associativity::Ways(1),
                Associativity::Ways(2),
                Associativity::Ways(4),
                Associativity::Full,
            ] {
                for wp in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
                    for wa in [WriteAllocate::Allocate, WriteAllocate::NoAllocate] {
                        let spec = SweepSpec::new(32)
                            .associativity(assoc)
                            .write_policy(wp)
                            .write_allocate(wa);
                        assert_equiv(&spec, &caps, &refs);
                    }
                }
            }
        }
    }

    #[test]
    fn unsupported_specs_fall_back_to_direct() {
        let refs = trace(1000, 64, 3);
        let caps = [256u64, 1024, 4096];
        let spec = SweepSpec::new(32).replacement(ReplacementPolicy::Fifo);
        assert!(LruSweep::new(&spec, &caps).is_err());
        // The fallback still produces the direct answer.
        assert_equiv(&spec, &caps, &refs);
        let spec = SweepSpec::new(32).tagged_prefetch(true);
        assert_equiv(&spec, &caps, &refs);
    }

    #[test]
    fn validate_allocation_falls_back() {
        let refs = trace(1000, 64, 5);
        let spec = SweepSpec::new(4).write_allocate(WriteAllocate::Validate);
        assert!(spec.unsupported_reason().is_some());
        assert_equiv(&spec, &[64, 256, 1024], &refs);
    }

    #[test]
    fn invalid_geometries_are_omitted() {
        // 128B blocks, 4 ways: capacities below 512B cannot host a set.
        let refs = trace(200, 16, 9);
        let spec = SweepSpec::new(128).associativity(Associativity::Ways(4));
        let caps = [64u64, 128, 256, 512, 1024];
        let swept = sweep_lru(&spec, &caps, &refs[..]);
        assert!(swept[0].is_none() && swept[1].is_none() && swept[2].is_none());
        assert!(swept[3].is_some() && swept[4].is_some());
    }

    #[test]
    fn empty_trace_yields_zero_stats() {
        let spec = SweepSpec::new(32);
        let swept = sweep_lru(&spec, &[1024], &[][..]);
        let s = swept[0].expect("valid geometry");
        assert_eq!(s.accesses, 0);
        assert_eq!(s.traffic_below(), 0);
    }

    #[test]
    fn governor_sees_the_bytes_the_levels_hold() {
        // 256 distinct words swept out to 4 MiB at 4-B blocks: dense
        // levels would be 2^21 slots, 16 MiB at 8 B per slot.
        let refs: Vec<MemRef> = (0..4096u64)
            .map(|i| MemRef::write((i * 13 % 256) * 4, 4))
            .collect();
        let spec = SweepSpec::new(4).associativity(Associativity::Ways(4));
        let caps: Vec<u64> = (6..=22).map(|p| 1u64 << p).collect();
        let gov = std::sync::Arc::new(membw_runner::Governor::with_budget_mb(1 << 20));
        let swept = membw_runner::RunContext {
            governor: gov.clone(),
            ..membw_runner::RunContext::clone(&membw_runner::RunContext::current())
        }
        .scope(|| sweep_lru(&spec, &caps, &refs[..]));

        // The same pass by hand: what the levels hold once it is done.
        let mut engine = LruSweep::new(&spec, &caps).expect("LRU spec");
        let tables = engine.bytes();
        for &r in &refs {
            engine.access::<0>(r);
        }
        let held = engine.bytes();
        assert_eq!(gov.stats().arena_estimate_bytes, held);
        assert!(held > tables, "touched chunks count too");
        assert!(held < 1 << 20, "levels hold {held} B, not the dense 16 MiB");
        assert_eq!(engine.run(&[][..]), swept, "the hand pass is the same pass");
    }
}
