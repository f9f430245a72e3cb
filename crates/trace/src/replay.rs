//! Recorded traces: a workload's uop stream captured into a compact
//! arena.
//!
//! [`RecordedTrace`] holds a table of the trace's distinct uop shapes,
//! one variable-length shape id per uop and one variable-length address
//! delta per memory reference, and replays them as a [`Workload`].
//! [`Interleave`](crate::Interleave) records each of its threads this
//! way, so it holds about two bytes per buffered uop instead of a
//! collected `Uop` vector.
//!
//! The suite benchmarks are not recorded: every consumer regenerates
//! its stream from the synthetic generator, which costs no more time
//! than decoding an arena and keeps no arena resident (DESIGN.md §9.2
//! records the measurements that retired the process-wide trace cache).
//!
//! Replay is *exact*: the recorded stream is bit-for-bit the stream the
//! generator emitted, so a simulation fed a recording is byte-identical
//! to one fed the generator (see DESIGN.md §9).
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

    /// Resident size of the arena in bytes.
    pub fn arena_bytes(&self) -> u64 {
        (self.shapes.capacity() * size_of::<u128>()
            + self.ids.capacity()
            + self.addrs.capacity()
            + self.name.capacity()
            + size_of::<Self>()) as u64
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
            },
            shape_ids: HashMap::default(),
            last_addr: 0,
            cancel: RunContext::current().cancel.clone(),
        }
    }

    /// Finish recording, returning the encoded trace with capacity
    /// trimmed to length.
    pub fn finish(mut self) -> RecordedTrace {
        self.trace.shapes.shrink_to_fit();
        self.trace.ids.shrink_to_fit();
        self.trace.addrs.shrink_to_fit();
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
}
