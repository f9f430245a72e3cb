//! The one-pass sweep engines are observationally identical to direct
//! per-configuration simulation.
//!
//! `sweep_lru` (truncated per-set LRU stacks with dirty-level tracking)
//! must reproduce `Cache`'s counters — hits, misses, fetch, write-back,
//! write-through, and flush bytes — for *every* swept capacity, across
//! block sizes, write policies, allocation policies, and
//! associativities, including straddling references. `min_sweep`
//! (shared-index multi-state Belady) must likewise reproduce
//! `MinCache::simulate` per capacity. A third check triangulates
//! through an independent instrument: `ReuseProfile`'s Fenwick-tree
//! stack distances predict the same fully-associative LRU miss counts
//! the sweep engine reports.
//!
//! The LRU engine stores each level in chunks of whole sets allocated
//! on first touch, with `(block + 1) << 1 | dirty` slots, so its
//! equality is also checked on every chunk layout (one chunk, many
//! chunks, sets wider than a chunk) and at the top of the address
//! space. The engines read any `Workload` and stream it: a streamed
//! sweep must equal one over the collected references.

use membw::cache::{Associativity, WriteAllocate, WritePolicy, INDEXED_WAYS};
use membw::mtc::{min_sweep, MinCache, MinConfig, MinWritePolicy};
use membw::sweep::{direct_reference, sweep_lru, SweepMode, SweepSpec, CHUNK_SLOTS};
use membw::trace::reuse::ReuseProfile;
use membw::trace::{MemRef, RecordedTrace, VecWorkload, Workload};
use membw::workloads::{suite92, Scale};
use proptest::prelude::*;

/// Arbitrary read/write traces over a bounded address space, with
/// reference sizes up to 8 bytes so some references straddle block
/// boundaries.
fn trace_strategy(max_len: usize, words: u64) -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec((0..words, prop::bool::ANY, 1u32..3), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(w, is_write, size_words)| {
                let addr = w * 4;
                let size = (size_words * 4) as u16;
                if is_write {
                    MemRef::write(addr, size)
                } else {
                    MemRef::read(addr, size)
                }
            })
            .collect()
    })
}

fn capacities() -> Vec<u64> {
    (6..=13).map(|p| 1u64 << p).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full counter equality for the LRU stack engine across the swept
    /// capacity axis, over the geometry/policy grid the suites use.
    #[test]
    fn stack_sweep_matches_direct_cache(
        refs in trace_strategy(400, 200),
        block_pow in 2u32..6,
        ways_idx in 0usize..4,
        write_back in prop::bool::ANY,
        allocate in prop::bool::ANY,
    ) {
        let assoc = [
            Associativity::Ways(1),
            Associativity::Ways(2),
            Associativity::Ways(4),
            Associativity::Full,
        ][ways_idx];
        let spec = SweepSpec::new(1 << block_pow)
            .associativity(assoc)
            .write_policy(if write_back { WritePolicy::WriteBack } else { WritePolicy::WriteThrough })
            .write_allocate(if allocate { WriteAllocate::Allocate } else { WriteAllocate::NoAllocate });
        let caps = capacities();
        let swept = sweep_lru(&spec, &caps, &refs[..]);
        for (&cap, got) in caps.iter().zip(&swept) {
            let want = direct_reference(&spec, cap, &refs[..]);
            prop_assert_eq!(got, &want, "capacity {}", cap);
        }
    }

    /// The same equality on both of `Cache`'s lookup paths: set
    /// associativities below, at and above the block-index threshold,
    /// plus full associativity, over traces that overflow the caches.
    #[test]
    fn stack_sweep_matches_direct_cache_across_the_index_threshold(
        refs in trace_strategy(600, 4096),
        block_pow in 2u32..6,
        ways_idx in 0usize..4,
        write_back in prop::bool::ANY,
    ) {
        let n = INDEXED_WAYS as u32;
        let assoc = [
            Associativity::Ways(n / 2),
            Associativity::Ways(n),
            Associativity::Ways(2 * n),
            Associativity::Full,
        ][ways_idx];
        let spec = SweepSpec::new(1 << block_pow)
            .associativity(assoc)
            .write_policy(if write_back { WritePolicy::WriteBack } else { WritePolicy::WriteThrough });
        let caps: Vec<u64> = (8..=14).map(|p| 1u64 << p).collect();
        let swept = sweep_lru(&spec, &caps, &refs[..]);
        for (&cap, got) in caps.iter().zip(&swept) {
            let want = direct_reference(&spec, cap, &refs[..]);
            prop_assert_eq!(got, &want, "capacity {}", cap);
        }
    }

    /// Equality on every chunk layout of a level, at 4- and 8-byte
    /// blocks where most 8-byte references straddle: levels of one
    /// chunk (64 B – 256 B at 4-B blocks), levels of many chunks, sets
    /// wider than a chunk (128 ways, one set per chunk) and fully
    /// associative levels wider than a chunk.
    #[test]
    fn chunked_levels_match_direct_cache_on_every_chunk_layout(
        refs in trace_strategy(800, 8192),
        block_pow in 2u32..4,
        ways_idx in 0usize..4,
        write_back in prop::bool::ANY,
        allocate in prop::bool::ANY,
    ) {
        let wide = 2 * CHUNK_SLOTS as u32;
        let assoc = [
            Associativity::Ways(1),
            Associativity::Ways(4),
            Associativity::Ways(wide),
            Associativity::Full,
        ][ways_idx];
        let block = 1u64 << block_pow;
        let spec = SweepSpec::new(block)
            .associativity(assoc)
            .write_policy(if write_back { WritePolicy::WriteBack } else { WritePolicy::WriteThrough })
            .write_allocate(if allocate { WriteAllocate::Allocate } else { WriteAllocate::NoAllocate });
        let caps: Vec<u64> = (6..=16).map(|p| 1u64 << p).collect();
        prop_assert!(caps[0] / block <= CHUNK_SLOTS as u64);
        prop_assert!(caps[caps.len() - 1] / block >= 64 * CHUNK_SLOTS as u64);
        let swept = sweep_lru(&spec, &caps, &refs[..]);
        for (&cap, got) in caps.iter().zip(&swept) {
            let want = direct_reference(&spec, cap, &refs[..]);
            prop_assert_eq!(got, &want, "capacity {}", cap);
        }
    }

    /// Full counter equality for the multi-state min sweep, including
    /// the MTC configuration (bypass + write-validate).
    #[test]
    fn min_sweep_matches_direct_min(
        refs in trace_strategy(400, 120),
        validate in prop::bool::ANY,
        bypass in prop::bool::ANY,
    ) {
        // Write-validate requires one-word blocks and (in MinConfig)
        // bypass is free; keep the grid to what the suites use.
        let write = if validate { MinWritePolicy::Validate } else { MinWritePolicy::Allocate };
        let cfgs: Vec<MinConfig> = (3u32..10)
            .map(|p| MinConfig::new(4u64 << p, 4, write, bypass))
            .collect();
        let swept = min_sweep(&cfgs, &refs[..]);
        for (cfg, got) in cfgs.iter().zip(&swept) {
            let want = MinCache::simulate(cfg, &refs);
            prop_assert_eq!(got, &want, "capacity {}", cfg.capacity_bytes);
        }
    }

    /// Triangulation through an independent instrument: the Fenwick
    /// stack-distance profile's fully-associative LRU miss prediction
    /// equals the sweep engine's per-capacity demand misses.
    /// (Word-granular references only: `ReuseProfile` counts one block
    /// per reference and does not split straddles the way the cache
    /// simulators do.)
    #[test]
    fn stack_sweep_agrees_with_reuse_profile(
        words in prop::collection::vec((0u64..200, prop::bool::ANY), 1..400),
        block_pow in 2u32..6,
    ) {
        let refs: Vec<MemRef> = words
            .into_iter()
            .map(|(w, is_write)| {
                if is_write { MemRef::write(w * 4, 4) } else { MemRef::read(w * 4, 4) }
            })
            .collect();
        let block = 1u64 << block_pow;
        let spec = SweepSpec::new(block).associativity(Associativity::Full);
        let caps = capacities();
        let swept = sweep_lru(&spec, &caps, &refs[..]);
        let profile = ReuseProfile::measure(&VecWorkload::new("t", refs), block);
        for (&cap, got) in caps.iter().zip(&swept) {
            if let Some(stats) = got {
                prop_assert_eq!(
                    stats.demand_misses(),
                    profile.lru_misses(cap / block),
                    "capacity {}",
                    cap
                );
            }
        }
    }
}

/// Table 9's widest geometry — 64 KiB fully associative, 32-byte
/// blocks, 2048 ways — through the direct cache (indexed lookup), the
/// stack sweep and the stack-distance profile, on a trace that
/// overflows it.
#[test]
fn table9_fully_associative_geometry_agrees_across_engines() {
    let refs: Vec<MemRef> = (0..30_000u64)
        .map(|i| {
            // A deterministic scramble over 5000 blocks, one write in 5.
            let block = (i * 2_654_435_761) % 5000;
            let addr = block * 32 + (i % 8) * 4;
            if i % 5 == 0 {
                MemRef::write(addr, 4)
            } else {
                MemRef::read(addr, 4)
            }
        })
        .collect();
    let spec = SweepSpec::new(32).associativity(Associativity::Full);
    let cap = 64 * 1024;
    let swept = sweep_lru(&spec, &[cap], &refs[..]);
    let direct = direct_reference(&spec, cap, &refs[..]).expect("valid geometry");
    assert_eq!(swept[0], Some(direct));
    let profile = ReuseProfile::measure(&VecWorkload::new("t", refs), 32);
    assert_eq!(direct.demand_misses(), profile.lru_misses(2048));
    assert!(direct.demand_misses() > 5000, "the trace must evict");
}

/// The slot encoding stores `block + 1`: the last block of the address
/// space must not wrap into the empty marker. References cover the top
/// 8 KiB, the last word included; the straddling ones end at least
/// 300 bytes below the top so that splitting them stays in range.
#[test]
fn block_numbers_at_the_top_of_the_address_space_match_direct() {
    let top = u64::MAX - 3;
    let refs: Vec<MemRef> = (0..6000u64)
        .map(|i| {
            let w = (i * 2_654_435_761) % 2048;
            let addr = top - 4 * w;
            match i % 7 {
                0 => MemRef::write(addr, 4),
                1 if w >= 80 => MemRef::write(addr - 4, 8),
                2 if w >= 80 => MemRef::read(addr - 2, 4),
                _ => MemRef::read(addr, 4),
            }
        })
        .collect();
    assert!(refs.iter().any(|r| r.addr == top));
    let caps: Vec<u64> = (6..=14).map(|p| 1u64 << p).collect();
    for block in [4u64, 8, 32, 128] {
        for assoc in [
            Associativity::Ways(1),
            Associativity::Ways(4),
            Associativity::Full,
        ] {
            let spec = SweepSpec::new(block).associativity(assoc);
            let swept = sweep_lru(&spec, &caps, &refs[..]);
            for (&cap, got) in caps.iter().zip(&swept) {
                let want = direct_reference(&spec, cap, &refs[..]);
                assert_eq!(*got, want, "block {block}, {assoc:?}, capacity {cap}");
            }
        }
    }
}

/// The engines stream whatever `Workload` they are given: a recorded
/// trace read in place sweeps exactly like its collected references,
/// in both engine modes of the one switch.
#[test]
fn streamed_sweeps_equal_sweeps_over_the_collected_slice() {
    let suite = suite92(Scale::Test);
    let bench = suite
        .iter()
        .find(|b| b.name() == "eqntott")
        .expect("eqntott is in SPEC92");
    let recorded = RecordedTrace::record(bench.workload());
    let refs = recorded.collect_mem_refs();
    let collected = VecWorkload::new("eqntott", refs.clone());
    let caps: Vec<u64> = (6..=22).map(|p| 1u64 << p).collect();
    let spec = SweepSpec::new(8).associativity(Associativity::Ways(4));
    let lru = sweep_lru(&spec, &caps, &refs[..]);
    assert_eq!(sweep_lru(&spec, &caps, &recorded), lru);
    let cfgs: Vec<MinConfig> = caps
        .iter()
        .map(|&c| MinConfig::new(c, 4, MinWritePolicy::Validate, true))
        .collect();
    let min = min_sweep(&cfgs, &refs[..]);
    assert_eq!(min_sweep(&cfgs, &recorded), min);
    for mode in [SweepMode::Stack, SweepMode::Direct] {
        for w in [&recorded as &dyn Workload, &collected] {
            assert_eq!(mode.lru(&spec, &caps, w), lru, "{mode} lru");
            assert_eq!(mode.min(&cfgs[..6], w), min[..6], "{mode} min");
        }
    }
}
