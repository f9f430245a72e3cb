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
//!
//! Levels are built smallest first, and only up to the first one that
//! has not evicted yet. Every larger level would hold the same blocks
//! with the same counters, so it is a mirror of that top level until
//! the top is about to evict for the first time; the top is then split
//! into the next level.

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
///
/// A level is built either empty (the smallest capacity) or by
/// [`Level::split`] from the next smaller level just before that one
/// first evicts.
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
    counts: Counts,
}

/// A level's own counters.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
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
            counts: Counts::default(),
        }
    }

    /// The level `cfg` denotes, built from this one, which must not have
    /// evicted yet and must be the next smaller level of the sweep.
    ///
    /// A level that has never evicted holds every block allocated so far.
    /// The larger level shares its ways (or is fully associative too), and
    /// its sets refine this level's by bit selection, so it holds the same
    /// blocks, each in the set its index bits select, in the same MRU
    /// order and with the same dirty bits, and it has counted the same
    /// hits, misses, fills and bytes. Its sets fill MRU-first from slot
    /// 0, so each block lands at the end of its set's filled prefix, found
    /// by binary search: a fully associative set of a million ways is
    /// never scanned per block.
    fn split(&self, cfg: &CacheConfig) -> Level {
        let mut next = Level {
            counts: self.counts,
            ..Level::new(cfg)
        };
        for &slot in self.slots.iter().filter(|&&s| s != 0) {
            let base = next.set_base((slot >> 1) - 1);
            let set = &mut next.slots[base..base + next.ways];
            let way = set.partition_point(|&s| s != 0);
            set[way] = slot;
        }
        next
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

    /// Offset in `slots` of block `bn`'s set, whose chunk is allocated
    /// on first touch.
    #[inline(always)]
    fn set_base(&mut self, bn: u64) -> usize {
        let set = bn & self.set_mask;
        let chunk = (set >> self.chunk_sets_log2) as usize;
        let ordinal = match self.table[chunk] {
            UNTOUCHED => self.touch(chunk),
            o => o,
        };
        let in_chunk = (set & ((1 << self.chunk_sets_log2) - 1)) as usize;
        ((ordinal as usize) << self.chunk_log2) + (in_chunk << self.ways_log2)
    }

    /// Present one piece. `WAYS` is the level's way count when the
    /// caller knows it at compile time, 0 otherwise.
    ///
    /// With `guard` set, a piece that would evict leaves the level
    /// untouched and returns `false`; otherwise it returns `true`.
    #[inline(always)]
    fn access<const WAYS: usize>(
        &mut self,
        p: Piece,
        wp: WritePolicy,
        wa: WriteAllocate,
        guard: bool,
    ) -> bool {
        debug_assert!(WAYS == 0 || WAYS == self.ways);
        let Piece {
            bn,
            key,
            is_write,
            size,
        } = p;
        let ways = if WAYS == 0 { self.ways } else { WAYS };
        let base = self.set_base(bn);
        let slots = &mut self.slots[base..base + ways];
        let c = &mut self.counts;

        if let Some(way) = slots.iter().position(|&s| s & !DIRTY == key) {
            // Hit: rotate the touched block to MRU, carrying its dirty
            // bit; writes dirty it (write-back) or push through.
            if is_write {
                c.write_hits += 1;
            } else {
                c.read_hits += 1;
            }
            let mut hit = slots[way];
            for w in (1..=way).rev() {
                slots[w] = slots[w - 1];
            }
            if is_write {
                match wp {
                    WritePolicy::WriteBack => hit |= DIRTY,
                    WritePolicy::WriteThrough => c.through_bytes += size,
                }
            }
            slots[0] = hit;
            return true;
        }

        // Miss. An allocating miss on a full set evicts its LRU block
        // (empty slots drift to the tail, and an empty slot is never
        // dirty).
        let allocate = !is_write || wa != WriteAllocate::NoAllocate;
        let last = ways - 1;
        if guard && allocate && slots[last] != 0 {
            return false;
        }
        if is_write {
            c.write_misses += 1;
        } else {
            c.read_misses += 1;
        }
        if !allocate {
            // Straight through; set state untouched.
            c.through_bytes += size;
            return true;
        }

        // Allocate: evict LRU, fill at MRU.
        c.fills += 1;
        if slots[last] & DIRTY != 0 {
            c.writebacks += 1;
        }
        for w in (1..=last).rev() {
            slots[w] = slots[w - 1];
        }
        let dirty = is_write && wp == WritePolicy::WriteBack;
        slots[0] = key | u64::from(dirty);
        if is_write && wp == WritePolicy::WriteThrough {
            c.through_bytes += size;
        }
        true
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
        let c = &self.counts;
        CacheStats {
            accesses: shared.accesses,
            reads: shared.reads,
            writes: shared.writes,
            request_bytes: shared.request_bytes,
            read_hits: c.read_hits,
            read_misses: c.read_misses,
            write_hits: c.write_hits,
            write_misses: c.write_misses,
            bytes_fetched: c.fills * block,
            bytes_written_back: c.writebacks * block,
            bytes_written_through: c.through_bytes,
            bytes_flushed: dirty_resident * block,
            ..CacheStats::default()
        }
    }
}

/// One block-aligned reference piece as every level sees it.
#[derive(Debug, Clone, Copy)]
struct Piece {
    /// Block number.
    bn: u64,
    /// Slot encoding of the block, `(bn + 1) << 1`.
    key: u64,
    is_write: bool,
    /// Bytes the piece covers.
    size: u64,
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
///
/// The representable capacities are kept smallest first, and only a
/// prefix of them is built as levels. The top built level is the first
/// that has not evicted yet; every larger capacity is an exact copy of
/// it, so it is never built and reports the top level's counters. Just
/// before a piece would make the top level evict for the first time,
/// the top is split into the next capacity (`Level::split`),
/// and again on the new top while the same piece would evict there.
#[derive(Debug)]
pub struct LruSweep {
    spec: SweepSpec,
    /// The representable capacities, fewest blocks first, one entry per
    /// geometry: its config and the indices in the caller's list that
    /// ask for it.
    configs: Vec<(CacheConfig, Vec<usize>)>,
    /// The built levels: `levels[k]` is `configs[k]`.
    levels: Vec<Level>,
    n_capacities: usize,
    shared: Shared,
}

impl LruSweep {
    /// Order the representable capacities and build the smallest.
    ///
    /// Capacities whose geometry is invalid are skipped exactly like
    /// the direct path omits them (unexpected configuration errors get
    /// a stderr diagnostic). The smallest level starts with only its
    /// chunk table, and the others hold nothing until they are built;
    /// [`LruSweep::run`] reports what the built levels hold to the
    /// ambient memory governor as arena bytes while it runs.
    ///
    /// # Errors
    ///
    /// [`SweepUnsupported`] when the spec itself is outside the stack
    /// model — the caller must fall back to direct simulation.
    pub fn new(spec: &SweepSpec, capacities: &[u64]) -> Result<Self, SweepUnsupported> {
        if let Some(reason) = spec.unsupported_reason() {
            return Err(SweepUnsupported(reason));
        }
        let mut valid: Vec<(usize, CacheConfig)> = capacities
            .iter()
            .enumerate()
            .filter_map(|(i, &cap)| Some((i, config_or_skip(spec, cap)?)))
            .collect();
        valid.sort_by_key(|(_, cfg)| cfg.num_blocks());
        let mut configs: Vec<(CacheConfig, Vec<usize>)> = Vec::new();
        for (i, cfg) in valid {
            match configs.last_mut() {
                Some((last, indices)) if *last == cfg => indices.push(i),
                _ => configs.push((cfg, vec![i])),
            }
        }
        Ok(Self {
            spec: *spec,
            levels: configs
                .iter()
                .take(1)
                .map(|(cfg, _)| Level::new(cfg))
                .collect(),
            configs,
            n_capacities: capacities.len(),
            shared: Shared::default(),
        })
    }

    /// Bytes the built levels hold: chunk tables plus allocated chunks.
    fn bytes(&self) -> u64 {
        self.levels.iter().map(Level::bytes).sum()
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
        let p = Piece {
            bn,
            key: (bn + 1) << 1,
            is_write,
            size: u64::from(r.size),
        };
        let (wp, wa) = (self.spec.write_policy, self.spec.write_allocate);
        let can_split = self.levels.len() < self.configs.len();
        let Some((top, below)) = self.levels.split_last_mut() else {
            return;
        };
        for level in below {
            level.access::<WAYS>(p, wp, wa, false);
        }
        if !top.access::<WAYS>(p, wp, wa, can_split) {
            self.split_past_first_eviction(p);
        }
    }

    /// `p` would make the top level evict for the first time: build the
    /// next capacity from the top, let the old top evict, and repeat on
    /// the new top while `p` would evict there too (one piece can be
    /// the first eviction of several levels).
    #[cold]
    #[inline(never)]
    fn split_past_first_eviction(&mut self, p: Piece) {
        let (wp, wa) = (self.spec.write_policy, self.spec.write_allocate);
        loop {
            let top = self.levels.len() - 1;
            let next = self.levels[top].split(&self.configs[top + 1].0);
            self.levels.push(next);
            self.levels[top].access::<0>(p, wp, wa, false);
            let can_split = self.levels.len() < self.configs.len();
            if self.levels[top + 1].access::<0>(p, wp, wa, can_split) {
                return;
            }
        }
    }

    /// Present one reference: split a straddling one exactly like
    /// [`membw_cache::Cache::access`] (QPT-style per-block pieces) and
    /// update every built level.
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
        match self.spec.associativity {
            Associativity::Ways(1) => self.run_with::<1, W>(workload),
            Associativity::Ways(4) => self.run_with::<4, W>(workload),
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
        self.finish()
    }

    /// The per-capacity counters as they stand: a capacity that was
    /// never built reports the top level's.
    fn finish(&self) -> Vec<Option<CacheStats>> {
        let block = self.spec.block_size;
        let built: Vec<CacheStats> = self
            .levels
            .iter()
            .map(|level| level.finish(&self.shared, block))
            .collect();
        let mut out: Vec<Option<CacheStats>> = vec![None; self.n_capacities];
        for (k, (_, indices)) in self.configs.iter().enumerate() {
            let stats = built[k.min(built.len() - 1)];
            for &i in indices {
                out[i] = Some(stats);
            }
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
        // 1 KiB (64 sets of 4 ways) holds all 256 words: it is the first
        // level that never evicts, and no larger capacity is built.
        assert_eq!(engine.levels.len(), 5);
        let per_capacity: Vec<u64> = (0..caps.len())
            .map(|k| engine.levels.get(k).map_or(0, Level::bytes))
            .collect();
        assert!(per_capacity[5..].iter().all(|&b| b == 0));
        let held = engine.bytes();
        assert_eq!(per_capacity.iter().sum::<u64>(), held);
        assert_eq!(gov.stats().arena_estimate_bytes, held);
        assert!(held > tables, "touched chunks count too");
        assert!(
            held < 64 << 10,
            "levels hold {held} B, not the dense 16 MiB"
        );
        assert_eq!(engine.run(&[][..]), swept, "the hand pass is the same pass");
    }

    #[test]
    fn one_reference_can_be_the_first_eviction_of_several_levels() {
        // Direct-mapped, 4-B blocks, 1 – 32 sets. Blocks 0 and 8 share
        // a set in every level of up to 8 sets, so the read of block 8
        // is the first eviction of the four smallest levels at once, and
        // it writes back the dirty block 0 from each of them.
        let spec = SweepSpec::new(4);
        let caps: Vec<u64> = (2..=7).map(|p| 1u64 << p).collect();
        let refs = [
            MemRef::write(0, 4),
            MemRef::read(2, 2),
            MemRef::read(32, 4),
            MemRef::write(0, 4),
            MemRef::read(64, 4),
        ];
        let mut engine = LruSweep::new(&spec, &caps).expect("LRU spec");
        for &r in &refs[..2] {
            engine.access::<1>(r);
        }
        assert_eq!(engine.levels.len(), 1, "nothing has evicted yet");
        engine.access::<1>(refs[2]);
        assert_eq!(engine.levels.len(), 5, "4 B – 32 B evict, 64 B does not");
        let after_three = engine.finish();
        for (k, got) in after_three.iter().enumerate() {
            let written_back = if k < 4 { 4 } else { 0 };
            assert_eq!(got.expect("valid").bytes_written_back, written_back, "{k}");
        }
        for &r in &refs[3..] {
            engine.access::<1>(r);
        }
        let swept = engine.finish();
        for (&cap, got) in caps.iter().zip(&swept) {
            assert_eq!(
                *got,
                direct_reference(&spec, cap, &refs[..]),
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn shuffled_and_repeated_capacities_share_their_levels() {
        let refs = trace(3000, 96, 11);
        let caps = [4096u64, 256, 64, 4096, 16384, 1024, 256, 32768];
        let spec = SweepSpec::new(16).associativity(Associativity::Ways(2));
        let engine = LruSweep::new(&spec, &caps).expect("LRU spec");
        assert_eq!(engine.configs.len(), 6, "one level per distinct capacity");
        assert_eq!(engine.configs[1].1, [1, 6]);
        assert_equiv(&spec, &caps, &refs);
    }

    #[test]
    fn a_wide_fully_associative_level_splits_in_order() {
        // 5000 distinct blocks then a reuse pass: the 4 KiB level (1024
        // ways at 4-B blocks) evicts first and every split up to 32 KiB
        // (8192 ways) copies a thousands-wide set.
        let refs: Vec<MemRef> = (0..5000u64)
            .chain((0..5000).rev())
            .enumerate()
            .map(|(i, b)| {
                if i % 4 == 0 {
                    MemRef::write(b * 4, 4)
                } else {
                    MemRef::read(b * 4, 4)
                }
            })
            .collect();
        let spec = SweepSpec::new(4).associativity(Associativity::Full);
        let caps: Vec<u64> = (12..=16).map(|p| 1u64 << p).collect();
        assert_equiv(&spec, &caps, &refs);
    }
}
