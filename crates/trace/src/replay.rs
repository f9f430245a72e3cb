//! Record-once / replay-many trace engine.
//!
//! The paper's methodology simulates the *identical* uop stream many
//! times: three memory models per decomposition cell (§3.1), six
//! experiments per benchmark (Figure 3), plus the trace-driven cache and
//! MTC passes. Regenerating a synthetic workload for every run wastes
//! most of a figure's wall clock on redundant generation work. This
//! module captures a workload's stream once into a compact arena
//! ([`RecordedTrace`]: a table of the trace's distinct uop shapes, one
//! variable-length shape id per uop and one variable-length address
//! delta per memory reference) and replays it as a [`Workload`], and
//! provides a process-wide [`TraceCache`] so one recording is shared
//! across the three decomposition runs, across all experiments of a
//! benchmark, and across runner threads.
//!
//! Replay is *exact*: the recorded stream is bit-for-bit the stream the
//! generator emitted, so simulation results are byte-identical whether a
//! trace was replayed or regenerated — which is what keeps the parallel
//! run engine's determinism and checkpoint/resume guarantees intact (see
//! DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use membw_trace::replay::RecordedTrace;
//! use membw_trace::{pattern::Strided, Workload};
//!
//! let live = Strided::reads(0, 4, 256).repeat(2);
//! let recorded = RecordedTrace::record(&live);
//! assert_eq!(recorded.collect_uops(), live.collect_uops());
//! assert_eq!(recorded.len(), 512);
//! ```

use crate::record::MemRef;
use crate::sink::TraceSink;
use crate::uop::{BranchInfo, OpClass, Reg, Uop};
use crate::Workload;
use membw_runner::{CancelToken, RunContext};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

// Packed uop shape (one u128 per distinct shape): everything about a
// uop except its memory address.
//   bits 0-2    operation class (8 variants)
//   bit  3      dest register present
//   bit  4      src0 register present
//   bit  5      src1 register present
//   bit  6      branch info present
//   bit  7      branch taken
//   bits 8-15   dest register
//   bits 16-23  src0 register
//   bits 24-31  src1 register
//   bits 32-47  memory reference size (0 for non-memory uops)
//   bits 64-127 branch pc (0 without branch info)
const CLASS_MASK: u128 = 0b111;
const HAS_DEST: u128 = 1 << 3;
const HAS_SRC0: u128 = 1 << 4;
const HAS_SRC1: u128 = 1 << 5;
const HAS_BRANCH: u128 = 1 << 6;
const BRANCH_TAKEN: u128 = 1 << 7;
const SIZE_SHIFT: u32 = 32;
const PC_SHIFT: u32 = 64;

/// How many uops the recorder and both replay walks handle between
/// polls of the ambient cancel token.
const CANCEL_POLL_UOPS: usize = 8192;

/// Fold `bytes` into a running 64-bit FNV-1a hash.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Content checksum of a trace arena: FNV-1a over the name, the uop and
/// reference counts, and every payload region, each region prefixed by
/// its length so boundary shifts between regions cannot cancel out.
fn arena_checksum(t: &RecordedTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in [t.name.len(), t.len, t.mem_refs, t.shapes.len()] {
        fnv1a(&mut h, &(n as u64).to_le_bytes());
    }
    fnv1a(&mut h, t.name.as_bytes());
    for s in &t.shapes {
        fnv1a(&mut h, &s.to_le_bytes());
    }
    for region in [&t.ids, &t.addrs] {
        fnv1a(&mut h, &(region.len() as u64).to_le_bytes());
        fnv1a(&mut h, region);
    }
    h
}

fn class_code(c: OpClass) -> u128 {
    match c {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAdd => 2,
        OpClass::FpMul => 3,
        OpClass::FpDiv => 4,
        OpClass::Load => 5,
        OpClass::Store => 6,
        OpClass::Branch => 7,
    }
}

fn code_class(code: u128) -> OpClass {
    match code {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAdd,
        3 => OpClass::FpMul,
        4 => OpClass::FpDiv,
        5 => OpClass::Load,
        6 => OpClass::Store,
        _ => OpClass::Branch,
    }
}

/// Append `v` as unsigned LEB128: seven bits per byte, low bits first,
/// the high bit set on every byte but the last.
fn push_leb128(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-map a signed delta so small magnitudes of either sign get
/// small codes (0, -1, 1, -2, … → 0, 1, 2, 3, …).
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Sequential LEB128 reader over one payload region.
struct Leb128<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Leb128<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let mut v = 0;
        // A u64 needs at most ten bytes; stop at the tenth so a damaged
        // stream cannot overflow the shift.
        for shift in (0..64).step_by(7) {
            let b = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }
}

/// The uop a packed shape describes, with a zero address if it is a
/// memory uop.
fn unpack(s: u128) -> Uop {
    let class = code_class(s & CLASS_MASK);
    let reg = |present: u128, shift: u32| (s & present != 0).then_some((s >> shift) as Reg);
    Uop {
        class,
        dest: reg(HAS_DEST, 8),
        srcs: [reg(HAS_SRC0, 16), reg(HAS_SRC1, 24)],
        mem: match class {
            OpClass::Load => Some(MemRef::read(0, (s >> SIZE_SHIFT) as u16)),
            OpClass::Store => Some(MemRef::write(0, (s >> SIZE_SHIFT) as u16)),
            _ => None,
        },
        branch: (s & HAS_BRANCH != 0).then_some(BranchInfo {
            pc: (s >> PC_SHIFT) as u64,
            taken: s & BRANCH_TAKEN != 0,
        }),
    }
}

/// Walks a trace's shape ids and address deltas in program order.
pub(crate) struct Decoder<'a> {
    /// `shapes`, unpacked once per walk so each uop is a table copy.
    templates: Vec<Uop>,
    ids: Leb128<'a>,
    addrs: Leb128<'a>,
    addr: u64,
}

impl<'a> Decoder<'a> {
    pub(crate) fn new(t: &'a RecordedTrace) -> Self {
        Self {
            templates: t.shapes.iter().map(|&s| unpack(s)).collect(),
            ids: Leb128::new(&t.ids),
            addrs: Leb128::new(&t.addrs),
            addr: 0,
        }
    }

    /// The next uop's template: its address is still zero.
    #[inline]
    fn template(&mut self) -> &Uop {
        &self.templates[self.ids.next() as usize]
    }

    /// The next memory reference's address.
    #[inline]
    fn addr(&mut self) -> u64 {
        self.addr = self.addr.wrapping_add(unzigzag(self.addrs.next()) as u64);
        self.addr
    }

    #[inline]
    pub(crate) fn uop(&mut self) -> Uop {
        let mut u = *self.template();
        if let Some(m) = &mut u.mem {
            m.addr = self.addr();
        }
        u
    }

    #[inline]
    fn mem_ref(&mut self) -> Option<MemRef> {
        let mut m = self.template().mem?;
        m.addr = self.addr();
        Some(m)
    }
}

/// A workload's uop stream, captured once into a compact arena of three
/// payload regions:
///
/// - `shapes`: the trace's distinct uop shapes (class, registers,
///   memory size, branch pc and outcome), one packed `u128` each, in
///   first-seen order;
/// - `ids`: one LEB128 index into `shapes` per uop, so a trace with
///   fewer than 128 shapes spends one byte per uop and the scheme has
///   no cap on the shape count;
/// - `addrs`: one zigzag-LEB128 delta per memory reference, from the
///   previous reference's address (the first from 0).
///
/// Loop kernels are few static instructions over strided streams, so
/// the suite's test-scale traces cost 1.8–3.2 bytes per uop (DESIGN.md
/// §9.1).
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    name: String,
    /// Distinct packed shapes (see the layout constants above).
    shapes: Vec<u128>,
    /// One LEB128 shape index per uop.
    ids: Vec<u8>,
    /// One zigzag-LEB128 address delta per memory reference.
    addrs: Vec<u8>,
    /// Number of uops (`ids` holds one code each).
    len: usize,
    /// Number of memory references (`addrs` holds one code each).
    mem_refs: usize,
    /// FNV-1a content checksum sealed at recording time; [`verify`]
    /// recomputes it to detect in-memory corruption of a cached arena
    /// before it is replayed into results.
    ///
    /// [`verify`]: RecordedTrace::verify
    checksum: u64,
}

impl RecordedTrace {
    /// Capture `workload`'s full stream.
    ///
    /// Well-formedness (memory uops carry a `mem` whose kind matches
    /// the class, as the [`Uop`] constructors guarantee) is checked in
    /// debug builds.
    pub fn record<W: Workload + ?Sized>(workload: &W) -> Self {
        let mut sink = RecordingSink::new(workload.name());
        workload.generate(&mut sink);
        sink.finish()
    }

    /// Number of uops recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of data-memory references recorded.
    pub fn num_mem_refs(&self) -> usize {
        self.mem_refs
    }

    /// Resident size of the arena in bytes (used for the [`TraceCache`]
    /// budget).
    pub fn arena_bytes(&self) -> u64 {
        (self.shapes.capacity() * size_of::<u128>()
            + self.ids.capacity()
            + self.addrs.capacity()
            + self.name.capacity()
            + size_of::<Self>()) as u64
    }

    /// The content checksum sealed when recording finished.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recompute the arena checksum and compare it against the sealed
    /// one. `false` means the arena was altered after recording and
    /// must not be replayed.
    pub fn verify(&self) -> bool {
        arena_checksum(self) == self.checksum
    }

    /// Flip one bit of the arena's payload (shape table, id stream or
    /// address stream), leaving the sealed checksum untouched — a
    /// corruption injector for integrity tests and the mutation-fuzz
    /// harness. `bit` is reduced modulo the payload size, so any `u64`
    /// seed indexes a valid bit. No-op on an empty trace.
    #[doc(hidden)]
    pub fn corrupt_bit(&mut self, bit: u64) {
        let shape_bits = self.shapes.len() as u64 * 128;
        let id_bits = self.ids.len() as u64 * 8;
        let addr_bits = self.addrs.len() as u64 * 8;
        let total = shape_bits + id_bits + addr_bits;
        if total == 0 {
            return;
        }
        let mut bit = bit % total;
        if bit < shape_bits {
            self.shapes[(bit / 128) as usize] ^= 1 << (bit % 128);
            return;
        }
        bit -= shape_bits;
        if bit < id_bits {
            self.ids[(bit / 8) as usize] ^= 1 << (bit % 8);
            return;
        }
        bit -= id_bits;
        self.addrs[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

impl Workload for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        // Poll the run context's cancel token so replay into sinks that
        // do not poll themselves still stops promptly under a drain.
        let ctx = RunContext::current();
        let cancel = &ctx.cancel;
        let mut d = Decoder::new(self);
        for i in 0..self.len {
            if i.is_multiple_of(CANCEL_POLL_UOPS) {
                cancel.check();
            }
            sink.uop(d.uop());
        }
        debug_assert_eq!(d.ids.pos, self.ids.len());
        debug_assert_eq!(d.addrs.pos, self.addrs.len());
    }

    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        // Skip the full Uop copy: only each template's reference and
        // the address stream matter here.
        let ctx = RunContext::current();
        let cancel = &ctx.cancel;
        let mut d = Decoder::new(self);
        for i in 0..self.len {
            if i.is_multiple_of(CANCEL_POLL_UOPS) {
                cancel.check();
            }
            if let Some(m) = d.mem_ref() {
                f(m);
            }
        }
    }
}

/// Hasher for packed shapes: one folded multiply. Shapes come from this
/// program's own generators, so the default hasher's defence against
/// crafted collisions buys nothing, and it would cost a SipHash round
/// per recorded uop.
#[derive(Default)]
struct ShapeHasher(u64);

impl Hasher for ShapeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let m = u128::from(self.0 ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m >> 64) as u64 ^ m as u64;
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A [`TraceSink`] that encodes the incoming stream into a
/// [`RecordedTrace`] arena.
#[derive(Debug, Clone)]
pub struct RecordingSink {
    trace: RecordedTrace,
    /// Index of each shape in `trace.shapes`.
    shape_ids: HashMap<u128, u64, BuildHasherDefault<ShapeHasher>>,
    /// Address of the last recorded memory reference (0 before any).
    last_addr: u64,
    /// Ambient cancel token, captured at construction and polled every
    /// 8192 recorded uops: a drain or deadline stops a long recording
    /// within milliseconds (the partial arena unwinds away unused).
    cancel: CancelToken,
}

impl RecordingSink {
    /// An empty recorder producing a trace named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            trace: RecordedTrace {
                name: name.into(),
                shapes: Vec::new(),
                ids: Vec::new(),
                addrs: Vec::new(),
                len: 0,
                mem_refs: 0,
                checksum: 0,
            },
            shape_ids: HashMap::default(),
            last_addr: 0,
            cancel: RunContext::current().cancel.clone(),
        }
    }

    /// Finish recording, returning the encoded trace with capacity
    /// trimmed to length and its content checksum sealed.
    pub fn finish(mut self) -> RecordedTrace {
        self.trace.shapes.shrink_to_fit();
        self.trace.ids.shrink_to_fit();
        self.trace.addrs.shrink_to_fit();
        self.trace.checksum = arena_checksum(&self.trace);
        self.trace
    }
}

impl TraceSink for RecordingSink {
    fn uop(&mut self, uop: Uop) {
        let t = &mut self.trace;
        if t.len.is_multiple_of(CANCEL_POLL_UOPS) {
            self.cancel.check();
        }
        debug_assert_eq!(
            uop.mem.is_some(),
            uop.class.is_mem(),
            "memory uops (and only memory uops) carry a MemRef"
        );
        let mut s = class_code(uop.class);
        if let Some(d) = uop.dest {
            s |= HAS_DEST | u128::from(d) << 8;
        }
        if let Some(r) = uop.srcs[0] {
            s |= HAS_SRC0 | u128::from(r) << 16;
        }
        if let Some(r) = uop.srcs[1] {
            s |= HAS_SRC1 | u128::from(r) << 24;
        }
        if let Some(r) = uop.mem {
            debug_assert_eq!(
                r.kind.is_read(),
                uop.class == OpClass::Load,
                "MemRef kind must match the uop class"
            );
            s |= u128::from(r.size) << SIZE_SHIFT;
            push_leb128(
                &mut t.addrs,
                zigzag(r.addr.wrapping_sub(self.last_addr) as i64),
            );
            self.last_addr = r.addr;
            t.mem_refs += 1;
        }
        if let Some(b) = uop.branch {
            s |= HAS_BRANCH | u128::from(b.pc) << PC_SHIFT;
            if b.taken {
                s |= BRANCH_TAKEN;
            }
        }
        let next = t.shapes.len() as u64;
        let id = *self.shape_ids.entry(s).or_insert_with(|| {
            t.shapes.push(s);
            next
        });
        push_leb128(&mut t.ids, id);
        t.len += 1;
    }
}

/// Environment knob naming the [`TraceCache`] budget in MiB.
///
/// Unset → a 512 MiB default; `0` → caching disabled (every caller
/// falls back to direct regeneration, which produces byte-identical
/// results).
pub const TRACE_CACHE_MB_ENV: &str = "MEMBW_TRACE_CACHE_MB";

const DEFAULT_BUDGET_BYTES: u64 = 512 * 1024 * 1024;

/// Counters describing a [`TraceCache`]'s behaviour so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups that found a finished recording.
    pub hits: u64,
    /// Lookups that had to record (or wait for a concurrent recording).
    pub misses: u64,
    /// Recordings dropped to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently accounted to resident recordings.
    pub resident_bytes: u64,
    /// Cache hits whose arena failed checksum verification and were
    /// discarded and re-recorded instead of being served.
    pub verify_failures: u64,
}

struct CacheEntry {
    /// The recording slot. Holding this lock while recording serializes
    /// same-key callers (the second caller waits and reuses the first's
    /// work) without blocking callers on other keys.
    slot: Arc<Mutex<Option<Arc<RecordedTrace>>>>,
    bytes: u64,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<(String, String), CacheEntry>,
    tick: u64,
    stats: TraceCacheStats,
}

/// A process-wide cache of [`RecordedTrace`]s keyed by
/// `(benchmark, variant)` — variant is typically the scale — with an
/// explicit byte budget and least-recently-used eviction.
///
/// `Arc<RecordedTrace>` handles stay valid after eviction (eviction
/// drops the cache's reference, not the trace), so callers never
/// observe a trace disappearing mid-run.
pub struct TraceCache {
    budget_bytes: u64,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("budget_bytes", &self.budget_bytes)
            .finish_non_exhaustive()
    }
}

impl TraceCache {
    /// A cache with an explicit byte budget. A budget of 0 disables
    /// caching: [`TraceCache::get_or_record`] always returns `None`.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                stats: TraceCacheStats::default(),
            }),
        }
    }

    /// The shared process-wide cache, budgeted from
    /// [`TRACE_CACHE_MB_ENV`] (read once, at first use).
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceCache::with_budget(budget_from_env()))
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// `true` if the budget disables caching entirely.
    pub fn is_disabled(&self) -> bool {
        self.budget_bytes == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TraceCacheStats {
        self.inner.lock().expect("trace cache poisoned").stats
    }

    /// Fetch the recording for `(name, variant)`, recording `workload`
    /// on first use. Returns `None` when caching is disabled — the
    /// caller should then use the workload directly.
    ///
    /// Concurrent callers with the same key serialize on the recording
    /// (the loser reuses the winner's arena); callers with different
    /// keys proceed in parallel.
    pub fn get_or_record<W: Workload + ?Sized>(
        &self,
        name: &str,
        variant: &str,
        workload: &W,
    ) -> Option<Arc<RecordedTrace>> {
        if self.is_disabled() {
            return None;
        }
        // Memory-governor consultation: under CacheShrunk the effective
        // byte cap is clamped below the configured budget; at a cap of
        // 0 the cache empties and steps aside (callers record-stream,
        // which is byte-identical).
        let ctx = RunContext::current();
        let gov = &*ctx.governor;
        if gov.cache_cap(self.budget_bytes) == 0 {
            let mut inner = self.inner.lock().expect("trace cache poisoned");
            self.fit_to_governed_budget(&mut inner, gov);
            return None;
        }
        let slot = {
            let mut inner = self.inner.lock().expect("trace cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner
                .map
                .entry((name.to_string(), variant.to_string()))
                .or_insert_with(|| CacheEntry {
                    slot: Arc::new(Mutex::new(None)),
                    bytes: 0,
                    last_used: tick,
                });
            entry.last_used = tick;
            Arc::clone(&entry.slot)
        };

        // Poison-tolerant: a cancellation can unwind a recording while
        // it holds this lock. The slot is only ever written *after* a
        // recording completes, so a poisoned slot still holds `None`
        // (or a finished arena) — safe to reuse.
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let mut verify_failed = false;
        if let Some(trace) = guard.as_ref() {
            if trace.verify() {
                let trace = Arc::clone(trace);
                drop(guard);
                let mut inner = self.inner.lock().expect("trace cache poisoned");
                inner.stats.hits += 1;
                // Honour a cap the governor shrank since the arena
                // landed: evict on the hit path too, and keep the
                // governor's residency view current.
                self.fit_to_governed_budget(&mut inner, gov);
                return Some(trace);
            }
            // The cached arena no longer matches its sealed checksum
            // (in-memory corruption): never replay it. Drop the bad
            // recording and fall through to record afresh.
            verify_failed = true;
            *guard = None;
            eprintln!(
                "warning: cached trace {name}/{variant} failed checksum verification; \
                 discarded and re-recording"
            );
        }

        // Record while holding only this key's slot lock.
        let trace = Arc::new(RecordedTrace::record(workload));
        *guard = Some(Arc::clone(&trace));
        drop(guard);

        let bytes = trace.arena_bytes();
        gov.observe_arena_bytes(bytes);
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.stats.misses += 1;
        if verify_failed {
            inner.stats.verify_failures += 1;
        }
        let key = (name.to_string(), variant.to_string());
        if let Some(entry) = inner.map.get_mut(&key) {
            // A racing eviction may have already charged (or dropped)
            // this entry; only charge bytes not yet accounted. A
            // re-record after a verify failure may shrink the entry.
            let old = entry.bytes;
            entry.bytes = bytes;
            if bytes >= old {
                inner.stats.resident_bytes += bytes - old;
            } else {
                inner.stats.resident_bytes -= old - bytes;
            }
        }
        // The cap is read afresh: the governor may have escalated while
        // this arena was recording.
        self.fit_to_governed_budget(&mut inner, gov);
        Some(trace)
    }

    /// Flip one payload bit of the cached arena for `(name, variant)`,
    /// in place, without touching its sealed checksum. Returns `true`
    /// if a finished recording was present to corrupt. Corruption
    /// injector for integrity tests and the mutation-fuzz harness; the
    /// next lookup must detect the damage and re-record.
    #[doc(hidden)]
    pub fn corrupt_cached_trace(&self, name: &str, variant: &str, bit: u64) -> bool {
        let slot = {
            let inner = self.inner.lock().expect("trace cache poisoned");
            let Some(entry) = inner.map.get(&(name.to_string(), variant.to_string())) else {
                return false;
            };
            Arc::clone(&entry.slot)
        };
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(trace) = guard.as_mut() else {
            return false;
        };
        if trace.is_empty() {
            return false;
        }
        // Clone-on-write: outstanding handles keep the healthy arena;
        // the *cached* copy is the one damaged.
        Arc::make_mut(trace).corrupt_bit(bit);
        true
    }

    /// Drop least-recently-used finished recordings until resident
    /// bytes fit `budget`. Entries still recording (bytes == 0, slot
    /// locked elsewhere) carry no weight and are never worth evicting.
    fn evict_to_budget(&self, inner: &mut CacheInner, budget: u64) {
        while inner.stats.resident_bytes > budget {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| e.bytes > 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            let entry = inner.map.remove(&key).expect("victim exists");
            inner.stats.resident_bytes -= entry.bytes;
            inner.stats.evictions += 1;
        }
    }

    /// [`evict_to_budget`](Self::evict_to_budget) against the
    /// configured budget, then against the governor's current cap,
    /// crediting evictions the cap forced (beyond what the configured
    /// budget alone would have evicted) to the governor's accounting,
    /// and report the new residency to the governor.
    fn fit_to_governed_budget(&self, inner: &mut CacheInner, gov: &membw_runner::Governor) {
        let before = inner.stats.evictions;
        self.evict_to_budget(inner, self.budget_bytes);
        let own = inner.stats.evictions - before;
        let cap = gov.cache_cap(self.budget_bytes);
        if cap < self.budget_bytes {
            self.evict_to_budget(inner, cap);
            gov.note_forced_evictions(inner.stats.evictions - before - own);
        }
        gov.report_cache_resident(inner.stats.resident_bytes);
    }
}

/// Parse a [`TRACE_CACHE_MB_ENV`] value into a byte budget.
///
/// # Errors
///
/// A non-numeric value is an error naming the variable and the bad
/// value — drivers (`repro`) validate the environment up front with
/// this and refuse to start, rather than silently running with a
/// default the user didn't ask for.
pub fn parse_cache_budget_mb(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map(|mb| mb.saturating_mul(1024 * 1024))
        .map_err(|_| {
            format!(
                "invalid {TRACE_CACHE_MB_ENV}={value:?}: expected a whole number of MiB \
                 (0 disables the trace cache)"
            )
        })
}

fn budget_from_env() -> u64 {
    match std::env::var(TRACE_CACHE_MB_ENV) {
        Ok(v) => parse_cache_budget_mb(&v).unwrap_or_else(|e| {
            // Library-level fallback for embedders that skipped up-front
            // validation; `repro` rejects the value before this runs.
            eprintln!("warning: {e}; using the default budget");
            DEFAULT_BUDGET_BYTES
        }),
        Err(_) => DEFAULT_BUDGET_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Strided;
    use crate::sink::CollectSink;

    fn mixed_workload() -> crate::VecWorkload {
        crate::VecWorkload::new(
            "mixed",
            vec![
                MemRef::read(0x1000, 4),
                MemRef::write(0x2000, 8),
                MemRef::read(0x3000, 2),
            ],
        )
    }

    fn full_uop_workload() -> Vec<Uop> {
        vec![
            Uop::compute(OpClass::IntAlu, Some(1), [Some(2), None]),
            Uop::compute(OpClass::FpDiv, Some(63), [Some(62), Some(61)]),
            Uop::load(MemRef::read(0xdead_beef_0000, 8), Some(3), [Some(1), None]),
            Uop::store(MemRef::write(0x42, 2), [Some(3), Some(1)]),
            Uop::branch(0x4000, true, [Some(3), None]),
            Uop::branch(0x4010, false, [None, None]),
        ]
    }

    struct UopListWorkload(Vec<Uop>);
    impl Workload for UopListWorkload {
        fn name(&self) -> &str {
            "uoplist"
        }
        fn generate(&self, sink: &mut dyn TraceSink) {
            for &u in &self.0 {
                sink.uop(u);
            }
        }
    }

    #[test]
    fn roundtrip_is_exact_for_every_field() {
        let w = UopListWorkload(full_uop_workload());
        let rec = RecordedTrace::record(&w);
        assert_eq!(rec.len(), 6);
        assert_eq!(rec.num_mem_refs(), 2);
        assert_eq!(rec.collect_uops(), w.collect_uops());
        // Replaying twice yields the identical stream.
        assert_eq!(rec.collect_uops(), rec.collect_uops());
    }

    /// A uop of `class` carrying the registers `present` selects (bit 0
    /// dest, bit 1 src0, bit 2 src1), a reference when `class` is a
    /// memory class, and `branch`.
    fn arbitrary_uop(
        class: OpClass,
        present: u8,
        regs: [Reg; 3],
        (addr, size): (u64, u16),
        branch: Option<BranchInfo>,
    ) -> Uop {
        let reg = |bit: u8, r: Reg| (present & bit != 0).then_some(r);
        Uop {
            class,
            dest: reg(1, regs[0]),
            srcs: [reg(2, regs[1]), reg(4, regs[2])],
            mem: match class {
                OpClass::Load => Some(MemRef::read(addr, size)),
                OpClass::Store => Some(MemRef::write(addr, size)),
                _ => None,
            },
            branch,
        }
    }

    /// Record `uops`, then check that replay returns them exactly and
    /// that the reference walk equals the references `generate` yields.
    fn assert_roundtrip(uops: Vec<Uop>) -> RecordedTrace {
        let w = UopListWorkload(uops);
        let rec = RecordedTrace::record(&w);
        let replayed = rec.collect_uops();
        assert_eq!(replayed, w.0);
        let refs: Vec<MemRef> = replayed.iter().filter_map(|u| u.mem).collect();
        assert_eq!(rec.collect_mem_refs(), refs);
        assert_eq!((rec.len(), rec.num_mem_refs()), (w.0.len(), refs.len()));
        rec
    }

    /// Every class with every register-presence combination, with and
    /// without branch info, then references at the size and address
    /// extremes (0 → u64::MAX → 0).
    fn edge_uops() -> Vec<Uop> {
        let mut uops = Vec::new();
        for code in 0..8 {
            for present in 0..8 {
                for branch in [
                    None,
                    Some(BranchInfo {
                        pc: u64::MAX,
                        taken: true,
                    }),
                ] {
                    let regs = [present, 255 - present, code as Reg];
                    let mem = (u64::from(present) * 8, 4);
                    uops.push(arbitrary_uop(code_class(code), present, regs, mem, branch));
                }
            }
        }
        for (addr, size) in [(0, 1), (u64::MAX, u16::MAX), (0, u16::MAX), (u64::MAX, 1)] {
            uops.push(Uop::load(MemRef::read(addr, size), None, [None, None]));
            uops.push(Uop::store(MemRef::write(addr, size), [None, None]));
        }
        uops
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_uop_streams_roundtrip_exactly(
            raw in proptest::prop::collection::vec(
                (
                    (0u8..8, 0u8..8, 0u8..=255, 0u8..=255),
                    (0u8..=255, 0u8..4, 0u64..=u64::MAX, 1u16..=u16::MAX),
                    (proptest::prop::bool::ANY, proptest::prop::bool::ANY, 0u64..=u64::MAX),
                ),
                0..300,
            ),
        ) {
            let mut uops = edge_uops();
            for ((code, present, dest, src0), (src1, jump, addr, size), (has_branch, taken, pc)) in raw {
                // Jumps to either end of the address space, anywhere in
                // it, or a short stride near zero.
                let addr = match jump {
                    0 => 0,
                    1 => u64::MAX,
                    2 => addr,
                    _ => addr % 4096,
                };
                let branch = has_branch.then_some(BranchInfo { pc, taken });
                let class = code_class(u128::from(code));
                uops.push(arbitrary_uop(class, present, [dest, src0, src1], (addr, size), branch));
            }
            assert_roundtrip(uops);
        }
    }

    #[test]
    fn shape_ids_are_uncapped() {
        // Every branch PC is its own shape; interleaved loads keep the
        // address stream in play.
        let uops: Vec<Uop> = (0..70_000u64)
            .flat_map(|pc| {
                [
                    Uop::branch(pc * 4, pc % 3 == 0, [Some(1), None]),
                    Uop::load(MemRef::read(pc * 64, 8), Some(2), [None, None]),
                ]
            })
            .collect();
        let rec = assert_roundtrip(uops);
        assert!(rec.shapes.len() > 65_536, "{} shapes", rec.shapes.len());
    }

    #[test]
    fn mem_ref_fast_path_matches_generate() {
        let w = mixed_workload();
        let rec = RecordedTrace::record(&w);
        assert_eq!(rec.collect_mem_refs(), w.collect_mem_refs());
        // And matches the slow path through generate().
        let mut sink = CollectSink::new();
        rec.generate(&mut sink);
        let via_uops: Vec<MemRef> = sink.into_uops().iter().filter_map(|u| u.mem).collect();
        assert_eq!(rec.collect_mem_refs(), via_uops);
    }

    #[test]
    fn strided_pattern_roundtrips() {
        let w = Strided::reads(0x8000, 4, 512).with_write_every(3).repeat(2);
        let rec = RecordedTrace::record(&w);
        assert_eq!(rec.collect_uops(), w.collect_uops());
        assert!(rec.arena_bytes() > 0);
    }

    #[test]
    fn cache_shares_one_recording_per_key() {
        let cache = TraceCache::with_budget(u64::MAX);
        let w = mixed_workload();
        let a = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        let b = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the arena");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, a.arena_bytes());
        // A different variant records separately.
        let c = cache.get_or_record("mixed", "Small", &w).expect("enabled");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = TraceCache::with_budget(0);
        assert!(cache.is_disabled());
        assert!(cache.get_or_record("x", "y", &mixed_workload()).is_none());
        assert_eq!(cache.stats(), TraceCacheStats::default());
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let w = Strided::reads(0, 4, 4096);
        let probe = RecordedTrace::record(&w);
        let one = probe.arena_bytes();
        // Budget fits two traces but not three.
        let cache = TraceCache::with_budget(one * 2 + one / 2);
        let a = cache.get_or_record("a", "t", &w).unwrap();
        let _b = cache.get_or_record("b", "t", &w).unwrap();
        // Touch "a" so "b" is the LRU when "c" lands.
        let a2 = cache.get_or_record("a", "t", &w).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.get_or_record("c", "t", &w).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= cache.budget_bytes());
        // "b" was evicted; re-fetch records again (miss, not hit).
        let misses_before = s.misses;
        let _b2 = cache.get_or_record("b", "t", &w).unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1);
        // Evicted handles remain usable.
        assert_eq!(a.collect_mem_refs().len(), 4096);
    }

    #[test]
    fn checksum_seals_at_finish_and_catches_any_bit_flip() {
        let w = UopListWorkload(full_uop_workload());
        let rec = RecordedTrace::record(&w);
        assert!(rec.verify(), "freshly recorded arenas verify");
        // Re-recording the same stream yields the same checksum.
        assert_eq!(rec.checksum(), RecordedTrace::record(&w).checksum());
        // Every payload region is covered: probe the first and last bit
        // of the shape table, the id stream and the address stream.
        let shape_bits = rec.shapes.len() as u64 * 128;
        let id_bits = rec.ids.len() as u64 * 8;
        let addr_bits = rec.addrs.len() as u64 * 8;
        assert!(shape_bits > 0 && id_bits > 0 && addr_bits > 0);
        let ids_start = shape_bits;
        let addrs_start = ids_start + id_bits;
        let probes = [
            (0, "shape table"),
            (ids_start - 1, "shape table"),
            (ids_start, "id stream"),
            (addrs_start - 1, "id stream"),
            (addrs_start, "address stream"),
            (addrs_start + addr_bits - 1, "address stream"),
            (u64::MAX, "any region"),
        ];
        for (bit, region) in probes {
            let mut bad = rec.clone();
            bad.corrupt_bit(bit);
            assert!(
                !bad.verify(),
                "bit {bit} flip in the {region} must fail verification"
            );
        }
        let mut bad = rec.clone();
        bad.corrupt_bit(ids_start + 3);
        assert_ne!(bad.ids, rec.ids, "probe lands in the id stream");
        let mut bad = rec.clone();
        bad.corrupt_bit(addrs_start + 5);
        assert_ne!(bad.addrs, rec.addrs, "probe lands in the address stream");
    }

    #[test]
    fn cancelled_token_stops_a_mem_ref_walk() {
        let w = Strided::reads(0, 4, 10 * CANCEL_POLL_UOPS as u64);
        let rec = RecordedTrace::record(&w);
        let token = CancelToken::new();
        let mut seen = 0usize;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RunContext {
                cancel: token.clone(),
                ..RunContext::clone(&RunContext::current())
            }
            .scope(|| {
                rec.for_each_mem_ref(&mut |_| {
                    seen += 1;
                    if seen == 100 {
                        token.cancel(membw_runner::CancelReason::Interrupted);
                    }
                });
            });
        }))
        .expect_err("a cancelled walk unwinds");
        assert!(unwound
            .downcast_ref::<membw_runner::CancelUnwind>()
            .is_some());
        assert_eq!(seen, CANCEL_POLL_UOPS, "the walk stops at the next poll");
    }

    #[test]
    fn cache_detects_corrupt_arena_and_rerecords() {
        let cache = TraceCache::with_budget(u64::MAX);
        let w = mixed_workload();
        let healthy = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(
            cache.corrupt_cached_trace("mixed", "Test", 17),
            "a finished recording was present to corrupt"
        );
        let refetched = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(
            !Arc::ptr_eq(&healthy, &refetched),
            "corrupt arena must not be served"
        );
        assert!(refetched.verify());
        assert_eq!(refetched.collect_uops(), w.collect_uops());
        let s = cache.stats();
        assert_eq!(s.verify_failures, 1);
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.resident_bytes, refetched.arena_bytes());
        // Outstanding handles to the pre-corruption arena stay healthy
        // (clone-on-write damages only the cached copy).
        assert!(healthy.verify());
        // The healed entry now hits normally.
        let again = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(Arc::ptr_eq(&refetched, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn corrupting_an_absent_entry_is_a_no_op() {
        let cache = TraceCache::with_budget(u64::MAX);
        assert!(!cache.corrupt_cached_trace("nope", "t", 0));
    }

    #[test]
    fn cache_budget_env_parses_strictly() {
        assert_eq!(parse_cache_budget_mb("512"), Ok(512 * 1024 * 1024));
        assert_eq!(parse_cache_budget_mb(" 0 "), Ok(0));
        let err = parse_cache_budget_mb("lots").unwrap_err();
        assert!(err.contains(TRACE_CACHE_MB_ENV), "{err}");
        assert!(err.contains("lots"), "{err}");
        assert!(parse_cache_budget_mb("-1").is_err());
        assert!(parse_cache_budget_mb("1.5").is_err());
        assert!(parse_cache_budget_mb("").is_err());
    }

    #[test]
    fn concurrent_same_key_lookups_record_once() {
        let cache = Arc::new(TraceCache::with_budget(u64::MAX));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let w = Strided::reads(0, 4, 2048);
                    cache.get_or_record("shared", "t", &w).unwrap()
                })
            })
            .collect();
        let traces: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t), "all threads share one arena");
        }
        assert_eq!(cache.stats().misses, 1, "exactly one recording happened");
    }

    #[test]
    fn a_governor_at_streaming_empties_the_cache() {
        // Scattered addresses: ~0.9 MiB of arena, over half the budget.
        let mut x = 0x9E37_79B9_u64;
        let refs = (0..120_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                MemRef::read((x >> 16) & !7, 8)
            })
            .collect();
        let w = crate::VecWorkload::new("scattered", refs);
        let gov = Arc::new(membw_runner::Governor::with_budget_mb(1));
        let cache = TraceCache::with_budget(u64::MAX);
        let ctx = RunContext {
            governor: Arc::clone(&gov),
            ..RunContext::clone(&RunContext::current())
        };
        ctx.scope(|| {
            let _slot = gov.admit(&CancelToken::new());
            let arena = cache
                .get_or_record("w", "t", &w)
                .expect("normal level caches");
            let bytes = arena.arena_bytes();
            assert!((512 << 10..1 << 20).contains(&bytes), "arena is {bytes} B");
            // One job's arena plus the cached copy exceed the budget.
            assert_eq!(gov.stats().level, "streaming");
            assert!(
                cache.get_or_record("w", "t", &w).is_none(),
                "cache steps aside"
            );
        });
        let s = cache.stats();
        assert_eq!((s.resident_bytes, s.evictions), (0, 1), "{s:?}");
        assert_eq!(gov.stats().cache_resident_bytes, 0);
        assert_eq!(gov.stats().forced_evictions, 1);
    }
}
