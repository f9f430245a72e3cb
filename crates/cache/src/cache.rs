//! Single-level functional cache with traffic accounting.

use crate::config::{CacheConfig, WriteAllocate, WritePolicy};
use crate::replacement::{PlruBits, VictimPicker};
use crate::stats::CacheStats;
use membw_trace::{AccessKind, FastHashMap, MemRef};

/// What a below-cache transfer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BelowKind {
    /// Block (or partial-block) fetch caused by a demand miss.
    Fetch,
    /// Block fetch caused by the prefetcher.
    PrefetchFetch,
    /// Dirty data written back on eviction or flush.
    Writeback,
    /// A write propagated through (write-through or no-allocate miss).
    WriteThrough,
}

/// A transfer emitted below the cache (toward memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BelowRequest {
    /// Starting byte address of the transfer.
    pub addr: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Transfer kind.
    pub kind: BelowKind,
}

impl BelowRequest {
    /// `true` if the transfer moves data *up* (fetch), `false` if down.
    pub fn is_fetch(&self) -> bool {
        matches!(self.kind, BelowKind::Fetch | BelowKind::PrefetchFetch)
    }

    const EMPTY: BelowRequest = BelowRequest {
        addr: 0,
        bytes: 0,
        kind: BelowKind::Fetch,
    };
}

/// Inline capacity of [`AccessOutcome`].
///
/// The worst case is statically bounded: a reference straddles at most
/// two blocks (accesses are ≤ 8 bytes, blocks ≥ 16), and each piece
/// emits at most four transfers — a read miss with tagged prefetch
/// produces eviction write-back + demand fetch + prefetch-eviction
/// write-back + prefetch fetch (a write-through allocating miss produces
/// at most three: write-back + fetch + write-through).
pub const MAX_BELOW: usize = 8;

/// Outcome of a single access: hit/miss plus the transfers it generated.
///
/// The transfer list lives inline (no heap allocation on the access
/// path); overflowing [`MAX_BELOW`] is a bug and asserts.
#[derive(Debug, Clone, Copy)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    below: [BelowRequest; MAX_BELOW],
    len: u8,
}

impl Default for AccessOutcome {
    fn default() -> Self {
        Self {
            hit: false,
            below: [BelowRequest::EMPTY; MAX_BELOW],
            len: 0,
        }
    }
}

impl AccessOutcome {
    /// A hit that moved nothing below.
    const QUIET_HIT: AccessOutcome = AccessOutcome {
        hit: true,
        below: [BelowRequest::EMPTY; MAX_BELOW],
        len: 0,
    };

    /// Transfers emitted below the cache by this access, in issue order.
    pub fn below(&self) -> &[BelowRequest] {
        &self.below[..usize::from(self.len)]
    }

    /// Total bytes moved below by this access.
    pub fn bytes_below(&self) -> u64 {
        self.below().iter().map(|b| b.bytes).sum()
    }
}

/// Sink for the transfers an access (or flush) pushes below the cache.
///
/// Lets the eviction/prefetch helpers serve both the allocation-free
/// access path ([`AccessOutcome`]'s inline buffer) and the cold flush
/// path (a plain `Vec`).
pub(crate) trait PushBelow {
    fn push_below(&mut self, req: BelowRequest);
}

impl PushBelow for Vec<BelowRequest> {
    fn push_below(&mut self, req: BelowRequest) {
        self.push(req);
    }
}

impl PushBelow for AccessOutcome {
    fn push_below(&mut self, req: BelowRequest) {
        debug_assert!(
            usize::from(self.len) < MAX_BELOW,
            "one access cannot emit more than MAX_BELOW transfers"
        );
        // The index panics (release builds included) on overflow rather
        // than silently dropping traffic.
        self.below[usize::from(self.len)] = req;
        self.len += 1;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    /// Bit per 4-byte word: word holds up-to-date data.
    valid_mask: u64,
    /// Bit per 4-byte word: word is dirty.
    dirty_mask: u64,
    /// Tagged-prefetch bit: set once the line is demand-referenced.
    referenced: bool,
    last_touch: u64,
    filled_at: u64,
}

/// Sets with more ways than this find a block through a block index
/// instead of scanning every way.
///
/// The choice is a property of the geometry, not a tuning knob: the
/// paper's L1/L2 geometries (1- and 4-way) scan, while Table 9's
/// fully-associative LRU caches (up to 2048 ways at 64 KiB) index.
/// Both paths produce the same hits, victims and traffic.
pub const INDEXED_WAYS: u64 = 16;

/// A validated geometry in shift-and-mask form.
///
/// [`CacheConfig`]'s builder admits only power-of-two block sizes and
/// set counts, so `addr / block` is `addr >> block_shift`, `% sets` is
/// `& set_mask` and `/ sets` is `>> set_bits`: the same numbers without
/// a division.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    block_size: u64,
    block_shift: u32,
    set_bits: u32,
    set_mask: u64,
    ways: usize,
    /// Tree-PLRU bits are kept (power-of-two sets of at most 64 ways).
    plru: bool,
}

impl Geometry {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.num_sets();
        let ways = cfg.ways() as usize;
        Self {
            block_size: cfg.block_size(),
            block_shift: cfg.block_size().trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            ways,
            plru: ways.is_power_of_two() && ways <= 64,
        }
    }

    /// Block number of a byte address.
    #[inline]
    fn block(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    #[inline]
    fn set(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, block: u64) -> u64 {
        block >> self.set_bits
    }

    /// Block number of the line holding `tag` in `set`.
    #[inline]
    fn block_of(&self, set: usize, tag: u64) -> u64 {
        (tag << self.set_bits) | set as u64
    }

    /// Byte address of the line holding `tag` in `set`.
    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        self.block_of(set, tag) << self.block_shift
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }
}

/// Block index of a cache whose sets are wider than [`INDEXED_WAYS`].
///
/// Holds exactly the valid lines: block number → line slot, plus each
/// set's resident count so a full set skips the search for an invalid
/// way.
#[derive(Debug)]
struct WideIndex {
    slots: FastHashMap<u64, usize>,
    resident: Vec<usize>,
}

/// A single-level, functional (untimed) cache.
///
/// See the [crate docs](crate) for the traffic-accounting rules. Accesses
/// that straddle block boundaries are split QPT-style into per-block
/// sub-accesses, each counted separately.
///
/// # Example
///
/// ```
/// use membw_cache::{Cache, CacheConfig};
/// use membw_trace::MemRef;
///
/// let mut c = Cache::new(CacheConfig::builder(256, 32).build()?);
/// assert!(!c.access(MemRef::read(0, 4)).hit);   // cold miss
/// assert!(c.access(MemRef::read(28, 4)).hit);   // same block
/// assert_eq!(c.stats().bytes_fetched, 32);
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    geo: Geometry,
    lines: Vec<Line>, // num_sets * ways, set-major
    plru: Vec<PlruBits>,
    picker: VictimPicker,
    clock: u64,
    stats: CacheStats,
    full_mask: u64,
    /// Present when the sets are wider than [`INDEXED_WAYS`].
    wide: Option<WideIndex>,
}

impl Cache {
    /// Build an empty cache for `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        let geo = Geometry::new(&cfg);
        let sets = cfg.num_sets() as usize;
        let wpb = cfg.words_per_block();
        let full_mask = if wpb >= 64 {
            u64::MAX
        } else {
            (1u64 << wpb) - 1
        };
        let wide = (cfg.ways() > INDEXED_WAYS).then(|| WideIndex {
            slots: FastHashMap::default(),
            resident: vec![0; sets],
        });
        Self {
            cfg,
            geo,
            lines: vec![Line::default(); sets * geo.ways],
            plru: vec![PlruBits::default(); sets],
            picker: VictimPicker::new(cfg.replacement()),
            clock: 0,
            stats: CacheStats::default(),
            full_mask,
            wide,
        }
    }

    /// Empty the cache in place, keeping its allocations: afterwards it
    /// behaves exactly as `Cache::new(*self.config())` would. Dirty
    /// lines are dropped, not written back.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.plru.fill(PlruBits::default());
        self.picker = VictimPicker::new(self.cfg.replacement());
        self.clock = 0;
        self.stats = CacheStats::default();
        if let Some(w) = &mut self.wide {
            w.slots.clear();
            w.resident.fill(0);
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `true` if the block containing `addr` is resident (any validity).
    pub fn is_resident(&self, addr: u64) -> bool {
        let block = self.geo.block(addr);
        self.find(self.geo.set(block), block).is_some()
    }

    /// The way of `set` holding `block`, if resident.
    #[inline]
    fn find(&self, set: usize, block: u64) -> Option<usize> {
        let base = self.geo.base(set);
        match &self.wide {
            Some(w) => w.slots.get(&block).map(|&slot| slot - base),
            None => {
                let tag = self.geo.tag(block);
                self.lines[base..base + self.geo.ways]
                    .iter()
                    .position(|l| l.valid && l.tag == tag)
            }
        }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.lines[self.geo.base(set) + way].last_touch = self.clock;
        if self.geo.plru {
            self.plru[set].touch(way, self.geo.ways);
        }
    }

    /// Pick a victim way in `set`, preferring invalid lines.
    fn pick_victim(&mut self, set: usize) -> usize {
        let base = self.geo.base(set);
        let lines = &self.lines[base..base + self.geo.ways];
        let full = match &self.wide {
            Some(w) => w.resident[set] == self.geo.ways,
            None => false,
        };
        if !full {
            if let Some(w) = lines.iter().position(|l| !l.valid) {
                return w;
            }
        }
        self.picker.pick_by(self.geo.ways, &self.plru[set], |w| {
            (lines[w].last_touch, lines[w].filled_at)
        })
    }

    /// Invalidate the line in `slot`, dropping it from the block index.
    fn clear(&mut self, set: usize, slot: usize) {
        let line = std::mem::take(&mut self.lines[slot]);
        if let (Some(w), true) = (&mut self.wide, line.valid) {
            w.slots.remove(&self.geo.block_of(set, line.tag));
            w.resident[set] -= 1;
        }
    }

    /// Evict `way` of `set` if valid, emitting a write-back when dirty.
    fn evict<O: PushBelow>(&mut self, set: usize, way: usize, out: &mut O, flush: bool) {
        let slot = self.geo.base(set) + way;
        let line = self.lines[slot];
        if !line.valid {
            return;
        }
        let dirty = line.dirty_mask & line.valid_mask;
        if dirty != 0 {
            let addr = self.geo.addr_of(set, line.tag);
            let bytes = match self.cfg.write_allocate() {
                // Word-granular memory writes under write-validate.
                WriteAllocate::Validate => u64::from(dirty.count_ones()) * 4,
                // Whole-block write-back otherwise.
                _ => self.geo.block_size,
            };
            out.push_below(BelowRequest {
                addr,
                bytes,
                kind: BelowKind::Writeback,
            });
            if flush {
                self.stats.bytes_flushed += bytes;
            } else {
                self.stats.bytes_written_back += bytes;
            }
        }
        self.clear(set, slot);
    }

    /// Fill `way` of `set` with `block` (replacing whatever the line
    /// held) and return its slot; the caller sets masks afterwards.
    fn fill(&mut self, set: usize, way: usize, block: u64, referenced: bool) -> usize {
        let slot = self.geo.base(set) + way;
        self.clear(set, slot);
        if let Some(w) = &mut self.wide {
            w.slots.insert(block, slot);
            w.resident[set] += 1;
        }
        self.clock += 1;
        self.lines[slot] = Line {
            valid: true,
            tag: self.geo.tag(block),
            valid_mask: 0,
            dirty_mask: 0,
            referenced,
            last_touch: self.clock,
            filled_at: self.clock,
        };
        if self.geo.plru {
            self.plru[set].touch(way, self.geo.ways);
        }
        slot
    }

    /// Probe for a full-validity hit without any miss handling: touches
    /// the line and sets dirty bits on writes. Used by [`VictimCache`].
    ///
    /// [`VictimCache`]: crate::VictimCache
    pub(crate) fn probe_touch(&mut self, r: MemRef) -> bool {
        let block = self.geo.block(r.addr);
        let set = self.geo.set(block);
        let need = self.word_mask(r);
        let Some(way) = self.find(set, block) else {
            return false;
        };
        let line = &mut self.lines[self.geo.base(set) + way];
        if r.kind.is_write() {
            line.valid_mask |= need;
            line.dirty_mask |= need;
        } else if line.valid_mask & need != need {
            return false;
        }
        line.referenced = true;
        self.touch(set, way);
        true
    }

    /// Install a block with the given masks, returning the displaced
    /// line's `(block_addr, dirty_word_mask)` if one was evicted. No
    /// traffic is counted — the caller owns the accounting. Used by
    /// [`VictimCache`](crate::VictimCache).
    pub(crate) fn swap_in(
        &mut self,
        block_addr: u64,
        valid_mask: u64,
        dirty_mask: u64,
    ) -> Option<(u64, u64)> {
        let block = self.geo.block(block_addr);
        let set = self.geo.set(block);
        debug_assert!(self.find(set, block).is_none(), "block already resident");
        let way = self.pick_victim(set);
        let old = self.lines[self.geo.base(set) + way];
        let displaced = old.valid.then(|| {
            (
                self.geo.addr_of(set, old.tag),
                old.dirty_mask & old.valid_mask,
            )
        });
        let slot = self.fill(set, way, block, true);
        self.lines[slot].valid_mask = valid_mask;
        self.lines[slot].dirty_mask = dirty_mask;
        displaced
    }

    /// Drain all resident lines as `(block_addr, dirty_word_mask)` pairs
    /// without counting traffic. Used by
    /// [`VictimCache`](crate::VictimCache) at flush time.
    pub(crate) fn drain_lines(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for slot in 0..self.lines.len() {
            let line = self.lines[slot];
            if line.valid {
                let set = slot / self.geo.ways;
                out.push((
                    self.geo.addr_of(set, line.tag),
                    line.dirty_mask & line.valid_mask,
                ));
                self.clear(set, slot);
            }
        }
        out
    }

    /// Word-mask (within a block) covered by `r`.
    pub(crate) fn word_mask(&self, r: MemRef) -> u64 {
        let off = r.addr & (self.geo.block_size - 1);
        let first = off >> 2;
        let last = (off + u64::from(r.size).max(1) - 1) >> 2;
        let count = last - first + 1;
        let ones = if count >= 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        ones << first
    }

    /// Issue a tagged prefetch of the block after `block_addr`.
    fn prefetch_next<O: PushBelow>(&mut self, block_addr: u64, out: &mut O) {
        let next = block_addr + self.geo.block_size;
        let block = self.geo.block(next);
        let set = self.geo.set(block);
        if self.find(set, block).is_some() {
            return;
        }
        let way = self.pick_victim(set);
        self.evict(set, way, out, false);
        let slot = self.fill(set, way, block, false);
        self.lines[slot].valid_mask = self.full_mask;
        out.push_below(BelowRequest {
            addr: next,
            bytes: self.geo.block_size,
            kind: BelowKind::PrefetchFetch,
        });
        self.stats.bytes_prefetched += self.geo.block_size;
        self.stats.prefetch_fills += 1;
    }

    /// Present one access; splits block-straddling references.
    ///
    /// Returns the combined outcome (`hit` is true only if *all* pieces
    /// hit).
    pub fn access(&mut self, r: MemRef) -> AccessOutcome {
        self.access_unless_quiet(r)
            .unwrap_or(AccessOutcome::QUIET_HIT)
    }

    /// [`Cache::access`], except that a *quiet hit* — a hit that moves
    /// nothing below, the common case — answers `None` instead of an
    /// empty hit outcome, so a hot caller builds and copies no
    /// [`AccessOutcome`] for it. The cache's state and counters change
    /// exactly as under [`Cache::access`].
    #[inline]
    pub fn access_unless_quiet(&mut self, r: MemRef) -> Option<AccessOutcome> {
        if self.quiet_hit(r) {
            None
        } else {
            Some(self.access_split(r))
        }
    }

    /// Complete `r` if it is a quiet hit and return `true`; otherwise
    /// change nothing and return `false`. A read hit is quiet unless it
    /// is the first use of a line under tagged prefetch; a write hit is
    /// quiet under write-back.
    #[inline]
    fn quiet_hit(&mut self, r: MemRef) -> bool {
        let block = self.geo.block(r.addr);
        if block != self.geo.block(r.last_byte()) {
            return false;
        }
        let set = self.geo.set(block);
        let Some(way) = self.find(set, block) else {
            return false;
        };
        let need = self.word_mask(r);
        let line = &mut self.lines[self.geo.base(set) + way];
        match r.kind {
            AccessKind::Read => {
                if line.valid_mask & need != need
                    || (self.cfg.tagged_prefetch() && !line.referenced)
                {
                    return false;
                }
                self.stats.reads += 1;
                self.stats.read_hits += 1;
            }
            AccessKind::Write => {
                if self.cfg.write_policy() == WritePolicy::WriteThrough {
                    return false;
                }
                line.valid_mask |= need;
                line.dirty_mask |= need;
                self.stats.writes += 1;
                self.stats.write_hits += 1;
            }
        }
        line.referenced = true;
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        self.touch(set, way);
        true
    }

    /// The full access path: any hit or miss, split per block.
    fn access_split(&mut self, r: MemRef) -> AccessOutcome {
        if self.geo.block(r.addr) == self.geo.block(r.last_byte()) {
            return self.access_within_block(r);
        }
        // Split QPT-style into per-block pieces.
        let mut outcome = AccessOutcome {
            hit: true,
            ..AccessOutcome::default()
        };
        let mut addr = r.addr;
        let end = r.addr + u64::from(r.size);
        while addr < end {
            let block_end = (self.geo.block(addr) + 1) << self.geo.block_shift;
            let piece = (block_end.min(end) - addr) as u16;
            let sub = MemRef {
                addr,
                size: piece,
                kind: r.kind,
            };
            let o = self.access_within_block(sub);
            outcome.hit &= o.hit;
            for &req in o.below() {
                outcome.push_below(req);
            }
            addr += u64::from(piece);
        }
        outcome
    }

    #[inline]
    fn access_within_block(&mut self, r: MemRef) -> AccessOutcome {
        debug_assert!(r.fits_in_block(self.geo.block_size));
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        match r.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                self.read(r)
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                self.write(r)
            }
        }
    }

    #[inline]
    fn read(&mut self, r: MemRef) -> AccessOutcome {
        let block = self.geo.block(r.addr);
        let set = self.geo.set(block);
        let need = self.word_mask(r);
        let block_addr = r.addr & !(self.geo.block_size - 1);
        let mut out = AccessOutcome::default();

        if let Some(way) = self.find(set, block) {
            let slot = self.geo.base(set) + way;
            if self.lines[slot].valid_mask & need == need {
                // Full hit.
                self.stats.read_hits += 1;
                self.touch(set, way);
                let first_use = !self.lines[slot].referenced;
                self.lines[slot].referenced = true;
                if self.cfg.tagged_prefetch() && first_use {
                    self.prefetch_next(block_addr, &mut out);
                }
                out.hit = true;
                return out;
            }
            // Partial-validity miss (write-validate line): fetch the
            // missing words of the block.
            self.stats.read_misses += 1;
            let missing = self.full_mask & !self.lines[slot].valid_mask;
            let bytes = u64::from(missing.count_ones()) * 4;
            out.push_below(BelowRequest {
                addr: block_addr,
                bytes,
                kind: BelowKind::Fetch,
            });
            self.stats.bytes_fetched += bytes;
            self.lines[slot].valid_mask = self.full_mask;
            self.lines[slot].referenced = true;
            self.touch(set, way);
            if self.cfg.tagged_prefetch() {
                self.prefetch_next(block_addr, &mut out);
            }
            return out;
        }

        // Full miss: evict, fetch, fill.
        self.stats.read_misses += 1;
        let way = self.pick_victim(set);
        self.evict(set, way, &mut out, false);
        let slot = self.fill(set, way, block, true);
        self.lines[slot].valid_mask = self.full_mask;
        out.push_below(BelowRequest {
            addr: block_addr,
            bytes: self.geo.block_size,
            kind: BelowKind::Fetch,
        });
        self.stats.bytes_fetched += self.geo.block_size;
        if self.cfg.tagged_prefetch() {
            self.prefetch_next(block_addr, &mut out);
        }
        out
    }

    #[inline]
    fn write(&mut self, r: MemRef) -> AccessOutcome {
        let block = self.geo.block(r.addr);
        let set = self.geo.set(block);
        let need = self.word_mask(r);
        let block_addr = r.addr & !(self.geo.block_size - 1);
        let mut out = AccessOutcome::default();

        if let Some(way) = self.find(set, block) {
            // Write hit (line presence suffices; we overwrite words).
            self.stats.write_hits += 1;
            let slot = self.geo.base(set) + way;
            self.lines[slot].valid_mask |= need;
            self.lines[slot].referenced = true;
            match self.cfg.write_policy() {
                WritePolicy::WriteBack => {
                    self.lines[slot].dirty_mask |= need;
                }
                WritePolicy::WriteThrough => {
                    out.push_below(BelowRequest {
                        addr: r.addr,
                        bytes: u64::from(r.size),
                        kind: BelowKind::WriteThrough,
                    });
                    self.stats.bytes_written_through += u64::from(r.size);
                }
            }
            self.touch(set, way);
            out.hit = true;
            return out;
        }

        // Write miss.
        self.stats.write_misses += 1;
        match self.cfg.write_allocate() {
            WriteAllocate::NoAllocate => {
                out.push_below(BelowRequest {
                    addr: r.addr,
                    bytes: u64::from(r.size),
                    kind: BelowKind::WriteThrough,
                });
                self.stats.bytes_written_through += u64::from(r.size);
            }
            WriteAllocate::Allocate => {
                let way = self.pick_victim(set);
                self.evict(set, way, &mut out, false);
                let slot = self.fill(set, way, block, true);
                out.push_below(BelowRequest {
                    addr: block_addr,
                    bytes: self.geo.block_size,
                    kind: BelowKind::Fetch,
                });
                self.stats.bytes_fetched += self.geo.block_size;
                self.lines[slot].valid_mask = self.full_mask;
                match self.cfg.write_policy() {
                    WritePolicy::WriteBack => self.lines[slot].dirty_mask |= need,
                    WritePolicy::WriteThrough => {
                        out.push_below(BelowRequest {
                            addr: r.addr,
                            bytes: u64::from(r.size),
                            kind: BelowKind::WriteThrough,
                        });
                        self.stats.bytes_written_through += u64::from(r.size);
                    }
                }
            }
            WriteAllocate::Validate => {
                // Allocate without fetching; only written words valid.
                let way = self.pick_victim(set);
                self.evict(set, way, &mut out, false);
                let slot = self.fill(set, way, block, true);
                self.lines[slot].valid_mask = need;
                self.lines[slot].dirty_mask = need;
            }
        }
        out
    }

    /// Write back all dirty data (end-of-run flush, counted separately as
    /// `bytes_flushed`), empty the cache, and return the final statistics.
    ///
    /// The emitted write-backs are also returned for hierarchy plumbing.
    pub fn flush(&mut self) -> CacheStats {
        self.flush_collect().1
    }

    /// Like [`Cache::flush`], also returning the emitted write-backs.
    pub fn flush_collect(&mut self) -> (Vec<BelowRequest>, CacheStats) {
        let mut out = Vec::new();
        for slot in 0..self.lines.len() {
            let (set, way) = (slot / self.geo.ways, slot % self.geo.ways);
            self.evict(set, way, &mut out, true);
        }
        (out, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ReplacementPolicy};

    fn cfg(size: u64, block: u64) -> CacheConfig {
        CacheConfig::builder(size, block).build().unwrap()
    }

    #[test]
    fn cold_miss_then_spatial_hit() {
        let mut c = Cache::new(cfg(256, 32));
        let o = c.access(MemRef::read(0, 4));
        assert!(!o.hit);
        assert_eq!(o.below().len(), 1);
        assert_eq!(o.below()[0].bytes, 32);
        assert!(o.below()[0].is_fetch());
        assert!(c.access(MemRef::read(28, 4)).hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        // 256-byte direct-mapped, 32B blocks: addresses 0 and 256 conflict.
        let mut c = Cache::new(cfg(256, 32));
        assert!(!c.access(MemRef::read(0, 4)).hit);
        assert!(!c.access(MemRef::read(256, 4)).hit);
        assert!(!c.access(MemRef::read(0, 4)).hit, "evicted by conflict");
        // Same pattern in a 2-way cache of the same size hits.
        let cfg2 = CacheConfig::builder(256, 32)
            .associativity(Associativity::Ways(2))
            .build()
            .unwrap();
        let mut c2 = Cache::new(cfg2);
        c2.access(MemRef::read(0, 4));
        c2.access(MemRef::read(256, 4));
        assert!(c2.access(MemRef::read(0, 4)).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction_and_flush() {
        let mut c = Cache::new(cfg(64, 32)); // two blocks, direct-mapped
        c.access(MemRef::write(0, 4)); // miss: fetch 32, dirty
        assert_eq!(c.stats().bytes_fetched, 32);
        c.access(MemRef::read(64, 4)); // conflicts with block 0 (set 0)
        assert_eq!(c.stats().bytes_written_back, 32, "dirty eviction");
        c.access(MemRef::write(96, 4)); // set 1, dirty
        let stats = c.flush();
        assert_eq!(stats.bytes_flushed, 32, "flush writes back remaining dirty");
    }

    #[test]
    fn write_through_counts_every_write() {
        let c_cfg = CacheConfig::builder(256, 32)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        c.access(MemRef::write(0, 4)); // miss: allocate (fetch 32) + through 4
        c.access(MemRef::write(0, 4)); // hit: through 4
        assert_eq!(c.stats().bytes_written_through, 8);
        assert_eq!(c.stats().bytes_fetched, 32);
        let s = c.flush();
        assert_eq!(s.bytes_flushed, 0, "write-through lines are never dirty");
    }

    #[test]
    fn no_allocate_write_miss_bypasses() {
        let c_cfg = CacheConfig::builder(256, 32)
            .write_allocate(WriteAllocate::NoAllocate)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        let o = c.access(MemRef::write(0, 4));
        assert!(!o.hit);
        assert_eq!(o.below()[0].kind, BelowKind::WriteThrough);
        assert_eq!(o.below()[0].bytes, 4);
        assert!(!c.is_resident(0));
    }

    #[test]
    fn write_validate_allocates_without_fetch() {
        let c_cfg = CacheConfig::builder(256, 32)
            .write_allocate(WriteAllocate::Validate)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        let o = c.access(MemRef::write(0, 4));
        assert!(!o.hit);
        assert_eq!(o.bytes_below(), 0, "no fetch on write-validate miss");
        assert!(c.is_resident(0));
        // Reading the written word hits; reading another word of the block
        // is a partial miss fetching only the 7 missing words.
        assert!(c.access(MemRef::read(0, 4)).hit);
        let o = c.access(MemRef::read(8, 4));
        assert!(!o.hit);
        assert_eq!(o.below()[0].bytes, 28);
        // Flush writes back only the dirty word.
        let s = c.flush();
        assert_eq!(s.bytes_flushed, 4);
    }

    #[test]
    fn lru_eviction_order() {
        let c_cfg = CacheConfig::builder(128, 32)
            .associativity(Associativity::Full)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg); // 4 blocks FA LRU
        for b in 0..4u64 {
            c.access(MemRef::read(b * 32, 4));
        }
        c.access(MemRef::read(0, 4)); // touch block 0: LRU is now block 1
        c.access(MemRef::read(4 * 32, 4)); // evicts block 1
        assert!(c.is_resident(0));
        assert!(!c.is_resident(32));
        assert!(c.is_resident(64));
    }

    #[test]
    fn fifo_eviction_ignores_touches() {
        let c_cfg = CacheConfig::builder(128, 32)
            .associativity(Associativity::Full)
            .replacement(ReplacementPolicy::Fifo)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        for b in 0..4u64 {
            c.access(MemRef::read(b * 32, 4));
        }
        c.access(MemRef::read(0, 4)); // touch does not matter for FIFO
        c.access(MemRef::read(4 * 32, 4)); // evicts block 0 (first in)
        assert!(!c.is_resident(0));
        assert!(c.is_resident(32));
    }

    #[test]
    fn straddling_access_splits() {
        let mut c = Cache::new(cfg(256, 32));
        let o = c.access(MemRef::read(30, 4)); // straddles blocks 0 and 1
        assert!(!o.hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().bytes_fetched, 64);
        assert_eq!(c.stats().request_bytes, 4);
    }

    #[test]
    fn tagged_prefetch_fetches_next_block() {
        let c_cfg = CacheConfig::builder(256, 32)
            .tagged_prefetch(true)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        let o = c.access(MemRef::read(0, 4)); // miss: fetch 0, prefetch 32
        assert!(!o.hit);
        assert_eq!(c.stats().bytes_prefetched, 32);
        assert!(c.is_resident(32));
        // First use of the prefetched block triggers the next prefetch.
        let o = c.access(MemRef::read(32, 4));
        assert!(o.hit);
        assert!(c.is_resident(64));
        assert_eq!(c.stats().prefetch_fills, 2);
        // Re-touching an already-referenced block does not prefetch again.
        c.access(MemRef::read(32, 4));
        assert_eq!(c.stats().prefetch_fills, 2);
    }

    #[test]
    fn traffic_equals_sum_of_outcome_bytes() {
        let mut c = Cache::new(cfg(128, 32));
        let refs = [
            MemRef::read(0, 4),
            MemRef::write(128, 4),
            MemRef::read(256, 4),
            MemRef::write(0, 4),
            MemRef::read(128, 4),
        ];
        let mut total = 0;
        for r in refs {
            total += c.access(r).bytes_below();
        }
        let (flushed, stats) = c.flush_collect();
        total += flushed.iter().map(|b| b.bytes).sum::<u64>();
        assert_eq!(total, stats.traffic_below());
    }

    #[test]
    fn straddling_write_through_miss_fits_inline_capacity() {
        // Worst case for the inline buffer: a write-through allocating
        // write that straddles two blocks, with both victim lines dirty
        // — per piece: eviction write-back + allocate fetch + write-
        // through = 3 transfers, 6 total, within MAX_BELOW.
        let c_cfg = CacheConfig::builder(64, 32)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg); // two blocks, direct-mapped
                                       // Write-through lines are never dirty, so each straddle piece
                                       // caps at allocate fetch + write-through (the dirty-victim
                                       // worst case is exercised by the prefetch test below).
        c.access(MemRef::write(0, 4));
        c.access(MemRef::write(32, 4));
        let o = c.access(MemRef::write(94, 4)); // straddles blocks 2 and 3
        assert!(!o.hit);
        assert!(o.below().len() <= MAX_BELOW);
        let throughs = o
            .below()
            .iter()
            .filter(|b| b.kind == BelowKind::WriteThrough)
            .count();
        let fetches = o.below().iter().filter(|b| b.is_fetch()).count();
        assert_eq!(
            (throughs, fetches),
            (2, 2),
            "each piece allocates + writes through"
        );
    }

    #[test]
    fn worst_case_straddling_read_with_prefetch_fills_the_buffer() {
        // A straddling read miss in a tagged-prefetch write-back cache
        // where every victim is dirty: each piece emits eviction
        // write-back + fetch + prefetch-eviction write-back + prefetch
        // fetch = 4, so two pieces exactly fill MAX_BELOW.
        let c_cfg = CacheConfig::builder(64, 32)
            .tagged_prefetch(true)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg); // two blocks, direct-mapped
                                       // Dirty every line the straddling read (and its prefetches)
                                       // will displace.
        for set in 0..2u64 {
            c.access(MemRef::write(set * 32, 4));
        }
        // Read straddling blocks 2|3: both map onto the dirty lines.
        let o = c.access(MemRef::read(94, 4));
        assert!(!o.hit);
        assert!(o.below().len() <= MAX_BELOW, "{}", o.below().len());
        assert!(
            o.below()
                .iter()
                .filter(|b| b.kind == BelowKind::Writeback)
                .count()
                >= 2,
            "dirty victims write back"
        );
        assert!(o.bytes_below() >= 4 * 32, "at least four block moves");
    }

    #[test]
    #[should_panic]
    fn inline_buffer_overflow_asserts() {
        let mut o = AccessOutcome::default();
        for _ in 0..=MAX_BELOW {
            o.push_below(BelowRequest {
                addr: 0,
                bytes: 1,
                kind: BelowKind::Fetch,
            });
        }
    }

    /// The block index holds exactly the valid lines, at their slots,
    /// and each set's resident count matches.
    fn assert_index_exact(c: &Cache) {
        let w = c.wide.as_ref().expect("a wide-set cache");
        let mut valid = 0;
        for (slot, line) in c.lines.iter().enumerate() {
            if line.valid {
                valid += 1;
                let set = slot / c.geo.ways;
                let block = c.geo.block_of(set, line.tag);
                assert_eq!(w.slots.get(&block), Some(&slot), "block {block}");
            }
        }
        assert_eq!(w.slots.len(), valid, "index holds stale blocks");
        for (set, &n) in w.resident.iter().enumerate() {
            let base = c.geo.base(set);
            let live = c.lines[base..base + c.geo.ways]
                .iter()
                .filter(|l| l.valid)
                .count();
            assert_eq!(n, live, "resident count of set {set}");
        }
    }

    #[test]
    fn wide_sets_keep_the_block_index_exact() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // 64 blocks: fully associative (64 ways) and 2 sets of 32 ways,
        // both above the index threshold, under every policy.
        for assoc in [Associativity::Full, Associativity::Ways(32)] {
            for (seed, policy) in [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random(7),
                ReplacementPolicy::Plru,
            ]
            .into_iter()
            .enumerate()
            {
                let cfg = CacheConfig::builder(64 * 32, 32)
                    .associativity(assoc)
                    .replacement(policy)
                    .tagged_prefetch(matches!(policy, ReplacementPolicy::Fifo))
                    .build()
                    .unwrap();
                assert!(cfg.ways() > INDEXED_WAYS);
                let mut c = Cache::new(cfg);
                let mut rng = SmallRng::seed_from_u64(seed as u64);
                for step in 0..4000u64 {
                    let addr = rng.gen_range(0..200u64) * 4 * 7;
                    match rng.gen_range(0..10u32) {
                        0..=5 => {
                            let size = [4u16, 8][rng.gen_range(0..2usize)];
                            if rng.gen_range(0..2u32) == 0 {
                                c.access(MemRef::read(addr, size));
                            } else {
                                c.access(MemRef::write(addr, size));
                            }
                        }
                        6 | 7 => {
                            let r = MemRef::read(addr, 4);
                            let hit = c.probe_touch(r);
                            assert!(!hit || c.is_resident(addr));
                        }
                        _ => {
                            let block_addr = addr & !31;
                            if !c.is_resident(block_addr) {
                                let displaced = c.swap_in(block_addr, c.full_mask, 1);
                                assert!(c.is_resident(block_addr));
                                if let Some((old, _)) = displaced {
                                    assert!(!c.is_resident(old), "{old} displaced");
                                }
                            }
                        }
                    }
                    if step % 997 == 996 {
                        let drained = c.drain_lines();
                        assert!(drained.iter().all(|&(a, _)| !c.is_resident(a)));
                    } else if step % 1499 == 1498 {
                        let (wbs, _) = c.flush_collect();
                        assert!(wbs.iter().all(|b| !c.is_resident(b.addr)));
                    }
                    assert_index_exact(&c);
                }
                let _ = c.flush();
                assert_index_exact(&c);
                assert!(c.wide.as_ref().unwrap().slots.is_empty());
            }
        }
    }

    #[test]
    fn narrow_sets_scan_and_wide_sets_index() {
        let ways = |n| {
            let cfg = CacheConfig::builder(64 * 1024, 32)
                .associativity(n)
                .build()
                .unwrap();
            Cache::new(cfg).wide.is_some()
        };
        assert!(!ways(Associativity::Ways(1)));
        assert!(!ways(Associativity::Ways(INDEXED_WAYS as u32)));
        assert!(ways(Associativity::Ways(2 * INDEXED_WAYS as u32)));
        assert!(ways(Associativity::Full), "Table 9's 2048-way cache");
    }

    #[test]
    fn quiet_hits_answer_none_and_count_like_access() {
        let cfg = CacheConfig::builder(256, 32)
            .tagged_prefetch(true)
            .build()
            .unwrap();
        let mut quiet = Cache::new(cfg);
        let mut plain = Cache::new(cfg);
        let refs = [
            MemRef::read(0, 4),  // miss
            MemRef::read(4, 4),  // quiet hit
            MemRef::read(32, 4), // first use of the prefetched block: loud
            MemRef::write(8, 4), // write-back write hit: quiet
            MemRef::read(30, 4), // straddle: loud
        ];
        let quiet_at = [false, true, false, true, false];
        for (r, want) in refs.into_iter().zip(quiet_at) {
            let o = quiet.access_unless_quiet(r);
            assert_eq!(o.is_none(), want, "{r:?}");
            let p = plain.access(r);
            if let Some(o) = o {
                assert_eq!((o.hit, o.below()), (p.hit, p.below()));
            } else {
                assert!(p.hit && p.below().is_empty());
            }
            assert_eq!(quiet.stats(), plain.stats());
        }
    }

    #[test]
    fn a_reset_cache_replays_like_a_fresh_one() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let stream = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..3000)
                .map(|_| {
                    let addr = rng.gen_range(0..400u64) * 4 * 9;
                    if rng.gen_range(0..3u32) == 0 {
                        MemRef::write(addr, 4)
                    } else {
                        MemRef::read(addr, [4u16, 8][rng.gen_range(0..2usize)])
                    }
                })
                .collect::<Vec<_>>()
        };
        let configs = [
            CacheConfig::builder(1024, 32)
                .associativity(Associativity::Ways(4))
                .tagged_prefetch(true)
                .build()
                .unwrap(),
            CacheConfig::builder(1024, 32)
                .associativity(Associativity::Ways(2))
                .replacement(ReplacementPolicy::Random(11))
                .build()
                .unwrap(),
            CacheConfig::builder(64 * 32, 32)
                .associativity(Associativity::Full)
                .build()
                .unwrap(),
        ];
        assert!(configs[2].ways() > INDEXED_WAYS);
        for cfg in configs {
            let mut reused = Cache::new(cfg);
            for r in stream(1) {
                reused.access(r);
            }
            reused.reset();
            let mut fresh = Cache::new(cfg);
            for r in stream(2) {
                let (a, b) = (reused.access(r), fresh.access(r));
                assert_eq!((a.hit, a.below()), (b.hit, b.below()), "{cfg:?} {r:?}");
                assert_eq!(reused.stats(), fresh.stats());
            }
            if let Some(w) = &reused.wide {
                assert_eq!(w.slots.len(), fresh.wide.as_ref().unwrap().slots.len());
                assert_index_exact(&reused);
            }
            assert_eq!(reused.flush(), fresh.flush());
        }
    }

    #[test]
    fn small_cache_can_exceed_unity_traffic_ratio() {
        // Single-word random-ish touches with 32B blocks: each miss hauls
        // 32 bytes for a 4-byte request → R approaches 8.
        let mut c = Cache::new(cfg(1024, 32));
        for i in 0..4096u64 {
            c.access(MemRef::read((i * 4096 + i * 4) % (1 << 22), 4));
        }
        let s = c.flush();
        assert!(s.traffic_ratio().unwrap() > 1.0);
    }
}
