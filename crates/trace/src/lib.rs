//! Memory-reference and micro-op trace model for the `membw` simulators.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: memory references ([`MemRef`]), dependency-annotated micro-ops
//! ([`Uop`]), replayable trace sources ([`Workload`] / [`TraceSink`]),
//! trace statistics ([`stats::TraceStats`]), exact reuse-distance
//! computation ([`reuse`]), and low-level synthetic access-pattern
//! generators ([`pattern`]).
//!
//! The design follows the measurement methodology of Burger, Goodman and
//! Kägi, *Memory Bandwidth Limitations of Future Microprocessors* (ISCA
//! 1996): traces are *deterministic and replayable*, because the paper's
//! execution-time decomposition runs the same program three times against
//! three different memory models, and its traffic-inefficiency analysis
//! runs a two-pass optimal-replacement simulation that must observe the
//! identical reference stream on both passes.
//!
//! # Example
//!
//! ```
//! use membw_trace::{pattern::Strided, Workload, stats::TraceStats};
//!
//! // A word-by-word sweep over a 1 KiB region, twice.
//! let pattern = Strided::reads(0x1000, 4, 256).repeat(2);
//! let stats = TraceStats::of(&pattern);
//! assert_eq!(stats.refs, 512);
//! assert_eq!(stats.footprint_bytes(4), 1024);
//! ```

pub mod fasthash;
pub mod interleave;
pub mod io;
pub mod pattern;
pub mod record;
pub mod replay;
pub mod reuse;
pub mod signature;
pub mod sink;
pub mod squash;
pub mod stats;
pub mod swprefetch;
pub mod uop;

pub use fasthash::{FastBuildHasher, FastHashMap, FastHasher};
pub use interleave::Interleave;
pub use record::{AccessKind, MemRef};
pub use replay::{RecordedTrace, RecordingSink};
pub use signature::{SignatureCache, SignatureStore, TraceSignature};
pub use sink::{CollectSink, CountSink, FnSink, MemRefFnSink, TraceSink};
pub use squash::Squashing;
pub use swprefetch::SoftwarePrefetch;
pub use uop::{BranchInfo, OpClass, Reg, Uop};

/// A deterministic, replayable source of a micro-op trace.
///
/// A `Workload` is the unit the simulators consume. Calling
/// [`Workload::generate`] must emit the *identical* uop stream every time:
/// the timing decomposition of the paper (§3.1) simulates each program three
/// times (perfect memory, infinite bandwidth, full system), and the
/// minimal-traffic-cache simulation (§5.2) requires two passes over one
/// stream.
///
/// Implementors that need randomness must seed it from fixed state.
pub trait Workload {
    /// Short, stable identifier (used in reports, e.g. `"compress"`).
    fn name(&self) -> &str;

    /// Emit the full micro-op trace into `sink`, in program order.
    fn generate(&self, sink: &mut dyn TraceSink);

    /// Emit only the data-memory references, in program order.
    ///
    /// The default implementation adapts [`Workload::generate`]; pure
    /// memory-trace sources may override it and leave `generate` emitting
    /// bare load/store uops.
    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        let mut sink = MemRefFnSink::new(f);
        self.generate(&mut sink);
    }

    /// Collect the data-memory references into a vector.
    ///
    /// Convenient for tests and for consumers that replay one stream
    /// many times (factor studies). Large workloads should prefer
    /// streaming via [`Workload::for_each_mem_ref`]; the sweep engines
    /// and the two-pass **min** simulation do (`sweep_lru` in
    /// `membw-sweep`, `min_sweep` and `MinCache::simulate_workload` in
    /// `membw-mtc` generate the stream once per pass).
    fn collect_mem_refs(&self) -> Vec<MemRef> {
        let mut refs = Vec::new();
        self.for_each_mem_ref(&mut |r| refs.push(r));
        refs
    }

    /// Collect the full uop trace into a vector.
    fn collect_uops(&self) -> Vec<Uop> {
        let mut sink = CollectSink::new();
        self.generate(&mut sink);
        sink.into_uops()
    }
}

impl<W: Workload + ?Sized> Workload for &W {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn generate(&self, sink: &mut dyn TraceSink) {
        (**self).generate(sink)
    }
    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        (**self).for_each_mem_ref(f)
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn generate(&self, sink: &mut dyn TraceSink) {
        (**self).generate(sink)
    }
    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        (**self).for_each_mem_ref(f)
    }
}

/// A collected reference stream replays itself, so every consumer that
/// reads a [`Workload`] (the sweep engines, the **min** simulations)
/// also takes a slice of [`MemRef`]s.
impl Workload for [MemRef] {
    fn name(&self) -> &str {
        "refs"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        for &r in self {
            sink.uop(Uop::from_mem_ref(r));
        }
    }

    #[inline]
    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        for &r in self {
            f(r);
        }
    }
}

/// A workload backed by an in-memory vector of memory references.
///
/// Useful in tests and whenever a reference stream has already been
/// materialized. Each reference is wrapped in a bare load/store uop when a
/// full uop stream is requested.
///
/// # Example
///
/// ```
/// use membw_trace::{MemRef, VecWorkload, Workload};
///
/// let w = VecWorkload::new("tiny", vec![MemRef::read(0, 4), MemRef::write(4, 4)]);
/// assert_eq!(w.collect_mem_refs().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecWorkload {
    name: String,
    refs: Vec<MemRef>,
}

impl VecWorkload {
    /// Create a workload that replays `refs` in order.
    pub fn new(name: impl Into<String>, refs: Vec<MemRef>) -> Self {
        Self {
            name: name.into(),
            refs,
        }
    }

    /// The underlying references.
    pub fn refs(&self) -> &[MemRef] {
        &self.refs
    }
}

impl Workload for VecWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        self.refs.generate(sink)
    }

    #[inline]
    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        self.refs.for_each_mem_ref(f)
    }
}

/// Test streams shared by the trace combinators' oracle tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// A fixed uop stream, replayed as given.
    #[derive(Debug, Clone)]
    pub(crate) struct Mixed(pub(crate) Vec<Uop>);

    impl Workload for Mixed {
        fn name(&self) -> &str {
            "mixed"
        }
        fn generate(&self, sink: &mut dyn TraceSink) {
            self.0.iter().for_each(|&u| sink.uop(u));
        }
    }

    /// `len` pseudo-random well-formed uops mixing loads, stores, ALU ops
    /// and branches, the same for every call.
    pub(crate) fn mixed(len: u64) -> Mixed {
        let mut x = 17u64;
        Mixed(
            (0..len)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let addr = (x >> 40) & !3;
                    match (x >> 33) % 4 {
                        0 | 1 => Uop::load(MemRef::read(addr, 4), Some(1), [Some(2), None]),
                        2 => Uop::store(MemRef::write(addr, 8), [Some(1), None]),
                        _ if i % 2 == 0 => Uop::compute(OpClass::IntAlu, Some(2), [Some(1), None]),
                        _ => Uop::branch(i, x & 1 == 0, [Some(2), None]),
                    }
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_workload_replays_in_order() {
        let refs = vec![MemRef::read(0, 4), MemRef::write(8, 4), MemRef::read(16, 8)];
        let w = VecWorkload::new("t", refs.clone());
        assert_eq!(w.collect_mem_refs(), refs);
        assert_eq!(w.name(), "t");
        // Replay is deterministic.
        assert_eq!(w.collect_mem_refs(), w.collect_mem_refs());
    }

    #[test]
    fn vec_workload_uops_carry_mem_refs() {
        let refs = vec![MemRef::read(0, 4), MemRef::write(8, 4)];
        let w = VecWorkload::new("t", refs.clone());
        let uops = w.collect_uops();
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].mem, Some(refs[0]));
        assert_eq!(uops[0].class, OpClass::Load);
        assert_eq!(uops[1].class, OpClass::Store);
    }

    #[test]
    fn slices_replay_like_vec_workloads() {
        let refs = vec![MemRef::read(0, 4), MemRef::write(8, 4)];
        let w = VecWorkload::new("t", refs.clone());
        assert_eq!(refs[..].collect_mem_refs(), refs);
        assert_eq!(refs[..].collect_uops(), w.collect_uops());
        assert_eq!(refs[..].name(), "refs");
    }

    #[test]
    fn workload_by_reference_delegates() {
        let w = VecWorkload::new("t", vec![MemRef::read(0, 4)]);
        let r: &dyn Workload = &w;
        assert_eq!(r.name(), "t");
        assert_eq!(w.collect_mem_refs().len(), 1);
        let boxed: Box<dyn Workload> = Box::new(w);
        assert_eq!(boxed.collect_mem_refs().len(), 1);
    }
}
