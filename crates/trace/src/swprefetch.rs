//! Software prefetching as a trace transformation (§2.1).
//!
//! "Both software and hardware prefetching techniques can increase
//! traffic to main memory. They may prefetch data too early…" A
//! compiler that inserts prefetch instructions is modeled here as a
//! stream rewrite: `distance` uops ahead of every load, insert a
//! *non-binding* copy of it — a load with no destination register.
//! Nothing ever waits on it, so it hides latency exactly like a real
//! prefetch; it still occupies MSHRs and buses, so it costs bandwidth
//! exactly like one too. An optional inaccuracy knob prefetches a wrong
//! address for a fraction of insertions (the "too early / wrong stream"
//! failure the paper describes).
//!
//! The rewrite streams: it holds only the last `distance` uops, never the
//! whole inner trace.

use crate::record::MemRef;
use crate::sink::TraceSink;
use crate::uop::{OpClass, Uop};
use crate::Workload;
use std::collections::VecDeque;

fn hash(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A workload with compiler-inserted software prefetches.
#[derive(Debug, Clone)]
pub struct SoftwarePrefetch<W> {
    inner: W,
    distance: usize,
    /// Wrong-address insertions per 256.
    wrong_per_256: u32,
    seed: u64,
}

impl<W: Workload> SoftwarePrefetch<W> {
    /// Prefetch each load `distance` uops early, perfectly accurate.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero.
    pub fn new(inner: W, distance: usize) -> Self {
        Self::with_inaccuracy(inner, distance, 0, 0)
    }

    /// Like [`SoftwarePrefetch::new`], with `wrong_per_256 / 256` of the
    /// prefetches fetching a displaced (useless) address.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero or `wrong_per_256 > 256`.
    pub fn with_inaccuracy(inner: W, distance: usize, wrong_per_256: u32, seed: u64) -> Self {
        assert!(distance > 0, "prefetch distance must be positive");
        assert!(wrong_per_256 <= 256, "probability is out of 256");
        Self {
            inner,
            distance,
            wrong_per_256,
            seed,
        }
    }
}

impl<W: Workload> Workload for SoftwarePrefetch<W> {
    fn name(&self) -> &str {
        "sw-prefetch"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        let mut lookahead = Lookahead {
            rewrite: self,
            window: VecDeque::new(),
            next: 0,
            out: sink,
        };
        self.inner.generate(&mut lookahead);
        for u in lookahead.window {
            lookahead.out.uop(u);
        }
    }
}

/// The rewrite's sink: delays the inner stream by `distance` uops so
/// each arriving load can be prefetched ahead of the uop `distance`
/// positions before it.
struct Lookahead<'a, W> {
    rewrite: &'a SoftwarePrefetch<W>,
    /// The last `distance` inner uops, oldest first.
    window: VecDeque<Uop>,
    /// Position of the next inner uop.
    next: u64,
    out: &'a mut dyn TraceSink,
}

impl<W> TraceSink for Lookahead<'_, W> {
    fn uop(&mut self, fut: Uop) {
        let p = self.rewrite;
        if self.window.len() == p.distance {
            // `fut` is `distance` ahead of position `i`: insert its
            // prefetch before uop `i`.
            let i = self.next - p.distance as u64;
            if fut.class == OpClass::Load {
                let m = fut.mem.expect("loads carry addresses");
                let addr =
                    if p.wrong_per_256 > 0 && hash(p.seed ^ i) % 256 < u64::from(p.wrong_per_256) {
                        m.addr.wrapping_add(4096 + ((hash(i) % 4096) & !3))
                    } else {
                        m.addr
                    };
                // Non-binding: no destination, nothing depends on it.
                self.out
                    .uop(Uop::load(MemRef::read(addr, m.size), None, [None, None]));
            }
            let u = self.window.pop_front().expect("window is full");
            self.out.uop(u);
        }
        self.window.push_back(fut);
        self.next += 1;
    }
}

/// The original rewrite, kept as the streaming one's test oracle:
/// collect the whole inner stream, then look `distance` ahead by index.
#[cfg(test)]
impl<W: Workload> SoftwarePrefetch<W> {
    pub(crate) fn collect_then_rewrite(&self) -> Vec<Uop> {
        let uops = self.inner.collect_uops();
        let mut out = Vec::new();
        for (i, &u) in uops.iter().enumerate() {
            if let Some(fut) = uops.get(i + self.distance) {
                if fut.class == OpClass::Load {
                    let m = fut.mem.expect("loads carry addresses");
                    let addr = if self.wrong_per_256 > 0
                        && hash(self.seed ^ i as u64) % 256 < u64::from(self.wrong_per_256)
                    {
                        m.addr.wrapping_add(4096 + ((hash(i as u64) % 4096) & !3))
                    } else {
                        m.addr
                    };
                    out.push(Uop::load(MemRef::read(addr, m.size), None, [None, None]));
                }
            }
            out.push(u);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Strided;
    use crate::stats::TraceStats;
    use crate::testing::mixed;
    use crate::VecWorkload;

    #[test]
    fn inserts_one_prefetch_per_future_load() {
        let inner = Strided::reads(0, 64, 100);
        let w = SoftwarePrefetch::new(inner.clone(), 8);
        let base = TraceStats::of(&inner);
        let s = TraceStats::of(&w);
        // Every load except the first 8 gets a prefetch... rather: every
        // load that is `distance` ahead of some position, i.e. loads at
        // positions >= 8: 92 of them.
        assert_eq!(s.reads, base.reads + 92);
    }

    #[test]
    fn accurate_prefetches_duplicate_addresses() {
        let inner = Strided::reads(0, 64, 50);
        let w = SoftwarePrefetch::new(inner, 4);
        let refs = w.collect_mem_refs();
        // Each prefetched address appears again later as the demand load.
        let mut counts = std::collections::HashMap::new();
        for r in &refs {
            *counts.entry(r.addr).or_insert(0u32) += 1;
        }
        let doubled = counts.values().filter(|&&c| c == 2).count();
        assert_eq!(doubled, 46);
    }

    #[test]
    fn prefetches_are_non_binding() {
        let inner = VecWorkload::new(
            "t",
            vec![
                MemRef::read(0, 4),
                MemRef::read(64, 4),
                MemRef::read(128, 4),
            ],
        );
        let w = SoftwarePrefetch::new(inner, 1);
        for u in w.collect_uops() {
            if u.class == OpClass::Load && u.dest.is_none() {
                return; // found a non-binding prefetch
            }
        }
        panic!("no non-binding prefetch emitted");
    }

    #[test]
    fn inaccurate_prefetches_touch_new_addresses() {
        let inner = Strided::reads(0, 64, 200);
        let accurate = SoftwarePrefetch::new(inner.clone(), 4);
        let sloppy = SoftwarePrefetch::with_inaccuracy(inner, 4, 128, 9);
        let fp_accurate = TraceStats::of(&accurate).unique_words;
        let fp_sloppy = TraceStats::of(&sloppy).unique_words;
        assert!(
            fp_sloppy > fp_accurate,
            "wrong prefetches widen the footprint: {fp_sloppy} vs {fp_accurate}"
        );
    }

    #[test]
    fn streaming_rewrite_matches_collect_then_rewrite() {
        let len = 500;
        for distance in [1, 4, 64, len as usize, len as usize + 7] {
            for (wrong, seed) in [(0, 0), (64, 5), (256, 9)] {
                let p = SoftwarePrefetch::with_inaccuracy(mixed(len), distance, wrong, seed);
                assert_eq!(
                    p.collect_uops(),
                    p.collect_then_rewrite(),
                    "distance {distance}, {wrong}/256 wrong"
                );
            }
        }
        // An empty inner stream stays empty.
        let p = SoftwarePrefetch::new(mixed(0), 4);
        assert!(p.collect_uops().is_empty());
    }

    #[test]
    fn deterministic() {
        let inner = Strided::reads(0, 64, 100);
        let a = SoftwarePrefetch::with_inaccuracy(inner.clone(), 4, 64, 3).collect_mem_refs();
        let b = SoftwarePrefetch::with_inaccuracy(inner, 4, 64, 3).collect_mem_refs();
        assert_eq!(a, b);
    }
}
