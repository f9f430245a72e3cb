//! The heap-based **min** cache is observationally identical to the
//! `BTreeSet` reference implementation.
//!
//! `MinCache` (lazy-deletion max-heap, fast-hash residency map) and
//! `ReferenceMinCache` (the original ordered-set structure, kept as an
//! executable specification) must agree on *every* counter — hits,
//! misses, fetch/write-back/write-through/flush bytes — for every
//! configuration on the paper's grid: write-allocate and
//! write-validate, bypass on and off, one-word and multi-word blocks.
//! Any divergence means the heap's stale-entry discipline or its
//! `(next_use, block)` tie-break no longer reproduces the ordered-set
//! maximum.
//!
//! The streaming entry `MinCache::simulate_workload` (two generation
//! passes, nothing but the next-use links held in between) must agree
//! with both on the Table 2 kernels and on arbitrary traces.

use membw::mtc::{MinCache, MinConfig, MinWritePolicy, ReferenceMinCache};
use membw::trace::{MemRef, VecWorkload, Workload};
use membw::workloads::kernels::{Fft, MergeSort, TiledMatMul, TimeTiledStencil};
use proptest::prelude::*;

/// Arbitrary word-granular read/write traces over a bounded address
/// space (small enough that capacities in the test grid actually fill
/// and evict).
fn trace_strategy(max_len: usize, words: u64) -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec((0..words, prop::bool::ANY), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(w, is_write)| {
                if is_write {
                    MemRef::write(w * 4, 4)
                } else {
                    MemRef::read(w * 4, 4)
                }
            })
            .collect()
    })
}

/// A small instance of one of the four Table 2 kernels.
fn table2_kernel(which: u8, size: u64) -> Box<dyn Workload> {
    match which {
        0 => Box::new(TiledMatMul::new(8 + 4 * size, 2 + size)),
        1 => Box::new(TimeTiledStencil::new(12 + 4 * size, 2, 2 + size)),
        2 => Box::new(Fft::new(5 + size as u32)),
        _ => Box::new(MergeSort::new(64 << size, 2)),
    }
}

/// A min configuration on the paper's grid: write-validate (one-word
/// blocks) or write-allocate at 4- or 32-byte blocks, bypass on or off.
fn min_config(cap_pow: u32, validate: bool, wide_blocks: bool, bypass: bool) -> MinConfig {
    if validate {
        MinConfig::new(4u64 << cap_pow, 4, MinWritePolicy::Validate, bypass)
    } else {
        let block = if wide_blocks { 32 } else { 4 };
        MinConfig::new(4u64 << cap_pow, block, MinWritePolicy::Allocate, bypass)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full counter equality for the paper's MTC configuration
    /// (one-word blocks, bypass, write-validate).
    #[test]
    fn heap_matches_reference_mtc(refs in trace_strategy(600, 96), cap_pow in 3u32..8) {
        let cfg = MinConfig::mtc(4u64 << cap_pow);
        let heap = MinCache::simulate(&cfg, &refs);
        let reference = ReferenceMinCache::simulate(&cfg, &refs);
        prop_assert_eq!(heap, reference);
    }

    /// Full counter equality for write-allocate min caches, with and
    /// without bypass, at 4- and 32-byte blocks (the Table 10 factor
    /// geometries).
    #[test]
    fn heap_matches_reference_allocate(
        refs in trace_strategy(600, 96),
        cap_pow in 5u32..9,
        block_pow in 0u32..2,
        bypass in prop::bool::ANY,
    ) {
        let block = 4u64 << (3 * block_pow); // 4 or 32 bytes
        let cfg = MinConfig::new(4u64 << cap_pow, block, MinWritePolicy::Allocate, bypass);
        let heap = MinCache::simulate(&cfg, &refs);
        let reference = ReferenceMinCache::simulate(&cfg, &refs);
        prop_assert_eq!(heap, reference);
    }

    /// Equality must also hold for a single-block cache, where every
    /// miss of a distinct block forces the evict/bypass boundary case.
    #[test]
    fn heap_matches_reference_one_block(refs in trace_strategy(300, 16), bypass in prop::bool::ANY) {
        let cfg = MinConfig::new(4, 4, MinWritePolicy::Validate, bypass);
        let heap = MinCache::simulate(&cfg, &refs);
        let reference = ReferenceMinCache::simulate(&cfg, &refs);
        prop_assert_eq!(heap, reference);
    }

    /// The streaming entry on arbitrary traces, every configuration
    /// family.
    #[test]
    fn streamed_matches_reference_on_arbitrary_traces(
        refs in trace_strategy(600, 96),
        cap_pow in 3u32..9,
        validate in prop::bool::ANY,
        wide_blocks in prop::bool::ANY,
        bypass in prop::bool::ANY,
    ) {
        let cfg = min_config(cap_pow, validate, wide_blocks, bypass);
        let streamed = MinCache::simulate_workload(&cfg, &VecWorkload::new("t", refs.clone()));
        prop_assert_eq!(streamed, ReferenceMinCache::simulate(&cfg, &refs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streaming entry on the Table 2 kernels (the workloads that
    /// use it in production) equals the collected simulation and the
    /// reference, counter for counter.
    #[test]
    fn streamed_matches_collected_and_reference_on_table2_kernels(
        which in 0u8..4,
        size in 0u64..3,
        cap_pow in 4u32..11,
        validate in prop::bool::ANY,
        wide_blocks in prop::bool::ANY,
        bypass in prop::bool::ANY,
    ) {
        let w = table2_kernel(which, size);
        let cfg = min_config(cap_pow, validate, wide_blocks, bypass);
        let refs = w.collect_mem_refs();
        let streamed = MinCache::simulate_workload(&cfg, &*w);
        prop_assert_eq!(streamed, MinCache::simulate(&cfg, &refs));
        prop_assert_eq!(streamed, ReferenceMinCache::simulate(&cfg, &refs));
    }
}

/// A directed long-trace check (beyond proptest's case sizes): heavy
/// re-referencing maximises stale heap entries, the regime where lazy
/// deletion could plausibly diverge.
#[test]
fn heap_matches_reference_on_long_reuse_heavy_trace() {
    let mut x = 7u64;
    let refs: Vec<MemRef> = (0..200_000)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Zipf-ish: half the accesses hit an 8-word hot set.
            let w = if i % 2 == 0 {
                (x >> 33) % 8
            } else {
                (x >> 33) % 4096
            };
            if (x >> 13).is_multiple_of(3) {
                MemRef::write(w * 4, 4)
            } else {
                MemRef::read(w * 4, 4)
            }
        })
        .collect();
    for cfg in [
        MinConfig::mtc(1024),
        MinConfig::new(4096, 32, MinWritePolicy::Allocate, true),
        MinConfig::new(4096, 32, MinWritePolicy::Allocate, false),
    ] {
        assert_eq!(
            MinCache::simulate(&cfg, &refs),
            ReferenceMinCache::simulate(&cfg, &refs),
            "divergence at {cfg:?}"
        );
    }
}
