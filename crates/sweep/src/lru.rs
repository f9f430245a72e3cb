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
use membw_trace::MemRef;

/// Empty-slot marker. Real block numbers are `addr / block_size`, which
/// cannot reach `u64::MAX` for any addressable byte.
const EMPTY: u64 = u64::MAX;

/// Cancel-poll stride on the reference stream.
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

/// One capacity level: a truncated LRU stack per set, with dirty bits.
#[derive(Debug)]
struct Level {
    set_mask: u64,
    ways: usize,
    /// `num_sets * ways`, set-major, MRU-first within a set.
    blocks: Vec<u64>,
    dirty: Vec<bool>,
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
        let slots = (cfg.num_sets() * cfg.ways()) as usize;
        Self {
            set_mask: cfg.num_sets() - 1,
            ways: cfg.ways() as usize,
            blocks: vec![EMPTY; slots],
            dirty: vec![false; slots],
            read_hits: 0,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
            fills: 0,
            writebacks: 0,
            through_bytes: 0,
        }
    }

    fn bytes(&self) -> u64 {
        (self.blocks.len() * (std::mem::size_of::<u64>() + 1)) as u64
    }

    #[inline]
    fn access(&mut self, bn: u64, is_write: bool, size: u64, wp: WritePolicy, wa: WriteAllocate) {
        debug_assert_ne!(bn, EMPTY);
        let base = (bn & self.set_mask) as usize * self.ways;
        let slots = &mut self.blocks[base..base + self.ways];
        let dirt = &mut self.dirty[base..base + self.ways];

        if let Some(way) = slots.iter().position(|&b| b == bn) {
            // Hit: rotate the touched block to MRU, carrying its dirty
            // bit; writes dirty it (write-back) or push through.
            if is_write {
                self.write_hits += 1;
            } else {
                self.read_hits += 1;
            }
            let mut d = dirt[way];
            for w in (1..=way).rev() {
                slots[w] = slots[w - 1];
                dirt[w] = dirt[w - 1];
            }
            slots[0] = bn;
            if is_write {
                match wp {
                    WritePolicy::WriteBack => d = true,
                    WritePolicy::WriteThrough => self.through_bytes += size,
                }
            }
            dirt[0] = d;
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

        // Allocate: evict LRU (invalid slots drift to the tail, so a
        // non-EMPTY tail slot is the true LRU victim), fill at MRU.
        self.fills += 1;
        let last = self.ways - 1;
        if slots[last] != EMPTY && dirt[last] {
            self.writebacks += 1;
        }
        for w in (1..=last).rev() {
            slots[w] = slots[w - 1];
            dirt[w] = dirt[w - 1];
        }
        slots[0] = bn;
        dirt[0] = is_write && wp == WritePolicy::WriteBack;
        if is_write && wp == WritePolicy::WriteThrough {
            self.through_bytes += size;
        }
    }

    /// Fold the level's counters (plus the stream-wide shared counters)
    /// into the exact per-capacity [`CacheStats`].
    fn finish(&self, shared: &Shared, block: u64) -> CacheStats {
        let dirty_resident = self
            .blocks
            .iter()
            .zip(&self.dirty)
            .filter(|(&b, &d)| b != EMPTY && d)
            .count() as u64;
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
    /// a stderr diagnostic). The level arrays are reported to the
    /// ambient memory governor as arena bytes.
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
        let total: u64 = levels.iter().map(|(_, l)| l.bytes()).sum();
        membw_runner::ambient_governor().observe_arena_bytes(total);
        Ok(Self {
            spec: *spec,
            levels,
            n_capacities: capacities.len(),
            shared: Shared::default(),
        })
    }

    #[inline]
    fn access_piece(&mut self, r: MemRef) {
        debug_assert!(r.fits_in_block(self.spec.block_size));
        self.shared.accesses += 1;
        self.shared.request_bytes += u64::from(r.size);
        let is_write = r.kind.is_write();
        if is_write {
            self.shared.writes += 1;
        } else {
            self.shared.reads += 1;
        }
        let bn = r.addr / self.spec.block_size;
        let size = u64::from(r.size);
        let (wp, wa) = (self.spec.write_policy, self.spec.write_allocate);
        for (_, level) in &mut self.levels {
            level.access(bn, is_write, size, wp, wa);
        }
    }

    /// One pass over `refs`: split straddling references exactly like
    /// [`membw_cache::Cache::access`] (QPT-style per-block pieces),
    /// update every level, flush, and return one `Option<CacheStats>`
    /// per requested capacity (`None` = geometry invalid, omitted).
    pub fn run(mut self, refs: &[MemRef]) -> Vec<Option<CacheStats>> {
        let cancel = membw_runner::ambient_cancel_token();
        let block = self.spec.block_size;
        for (i, r) in refs.iter().enumerate() {
            if i % CANCEL_POLL == 0 {
                cancel.check();
            }
            if r.fits_in_block(block) {
                self.access_piece(*r);
            } else {
                let mut addr = r.addr;
                let end = r.addr + u64::from(r.size);
                while addr < end {
                    let block_end = (addr / block + 1) * block;
                    let piece = (block_end.min(end) - addr) as u16;
                    self.access_piece(MemRef {
                        addr,
                        size: piece,
                        kind: r.kind,
                    });
                    addr += u64::from(piece);
                }
            }
        }
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

/// Direct per-capacity simulation of `spec`: the stack engine's
/// fallback and, through [`SweepMode::Direct`](crate::SweepMode), the
/// cross-check oracle (`None` where the geometry is invalid).
pub fn direct_reference(spec: &SweepSpec, capacity: u64, refs: &[MemRef]) -> Option<CacheStats> {
    let cfg = config_or_skip(spec, capacity)?;
    let mut c = membw_cache::Cache::new(cfg);
    for &r in refs {
        c.access(r);
    }
    Some(c.flush())
}

/// Sweep `spec` over `capacities` in one pass, returning the exact
/// per-capacity counters (`None` where the geometry is invalid and the
/// point is omitted, as the direct path does).
///
/// Specs outside the stack model fall back **loudly** to per-capacity
/// direct simulation — a stderr line names the reason — so the result
/// is exact either way.
pub fn sweep_lru(spec: &SweepSpec, capacities: &[u64], refs: &[MemRef]) -> Vec<Option<CacheStats>> {
    match LruSweep::new(spec, capacities) {
        Ok(engine) => engine.run(refs),
        Err(unsupported) => {
            eprintln!("sweep: {unsupported}; falling back to direct simulation");
            capacities
                .iter()
                .map(|&cap| direct_reference(spec, cap, refs))
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
        let swept = sweep_lru(&spec, &caps, &refs);
        assert!(swept[0].is_none() && swept[1].is_none() && swept[2].is_none());
        assert!(swept[3].is_some() && swept[4].is_some());
    }

    #[test]
    fn empty_trace_yields_zero_stats() {
        let spec = SweepSpec::new(32);
        let swept = sweep_lru(&spec, &[1024], &[]);
        let s = swept[0].expect("valid geometry");
        assert_eq!(s.accesses, 0);
        assert_eq!(s.traffic_below(), 0);
    }
}
