//! Property tests for the functional cache simulator, cross-validated
//! against the independent reuse-distance implementation.

use membw::cache::{
    Associativity, Cache, CacheConfig, ReplacementPolicy, WriteAllocate, WritePolicy, INDEXED_WAYS,
};
use membw::trace::reuse::ReuseProfile;
use membw::trace::{MemRef, VecWorkload};
use proptest::prelude::*;

fn trace_strategy(max_len: usize, words: u64) -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec((0..words, prop::bool::ANY), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(w, wr)| {
                if wr {
                    MemRef::write(w * 4, 4)
                } else {
                    MemRef::read(w * 4, 4)
                }
            })
            .collect()
    })
}

fn run(refs: &[MemRef], cfg: CacheConfig) -> membw::cache::CacheStats {
    let mut c = Cache::new(cfg);
    for &r in refs {
        c.access(r);
    }
    c.flush()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fully-associative LRU cache's miss count must match the stack
    /// -distance oracle exactly (two independent implementations).
    #[test]
    fn fa_lru_matches_reuse_profile(refs in trace_strategy(400, 128), cap_pow in 2u32..6) {
        let blocks = 1u64 << cap_pow;
        let cfg = CacheConfig::builder(blocks * 32, 32)
            .associativity(Associativity::Full)
            .build()
            .expect("valid geometry");
        let stats = run(&refs, cfg);
        let profile = ReuseProfile::measure(&VecWorkload::new("t", refs), 32);
        prop_assert_eq!(stats.demand_misses(), profile.lru_misses(blocks));
    }

    /// The same oracle on both lookup paths: fully-associative caches
    /// at half, at, twice and four times the block-index threshold
    /// (scanned sets below it, indexed sets above).
    #[test]
    fn fa_lru_matches_reuse_profile_on_both_lookup_paths(
        refs in trace_strategy(600, 1024),
        scale in 0usize..4,
    ) {
        let blocks = [INDEXED_WAYS / 2, INDEXED_WAYS, 2 * INDEXED_WAYS, 4 * INDEXED_WAYS][scale];
        let cfg = CacheConfig::builder(blocks * 32, 32)
            .associativity(Associativity::Full)
            .build()
            .expect("valid geometry");
        let stats = run(&refs, cfg);
        let profile = ReuseProfile::measure(&VecWorkload::new("t", refs), 32);
        prop_assert_eq!(stats.demand_misses(), profile.lru_misses(blocks), "{} ways", blocks);
    }

    /// LRU inclusion: a bigger fully-associative LRU cache never misses
    /// more (the stack property).
    #[test]
    fn lru_inclusion_property(refs in trace_strategy(400, 256)) {
        let mut last = u64::MAX;
        for pow in 2u32..7 {
            let cfg = CacheConfig::builder((32u64) << pow, 32)
                .associativity(Associativity::Full)
                .build()
                .expect("valid geometry");
            let misses = run(&refs, cfg).demand_misses();
            prop_assert!(misses <= last, "stack property violated at 2^{pow}");
            last = misses;
        }
    }

    /// Traffic conservation for write-back write-allocate caches: every
    /// fetched byte is a miss x block, and write-backs never exceed
    /// fetched blocks (a block must be fetched before it can be dirty).
    #[test]
    fn writeback_conservation(refs in trace_strategy(400, 128), assoc in 0u32..3) {
        let assoc = match assoc {
            0 => Associativity::Ways(1),
            1 => Associativity::Ways(2),
            _ => Associativity::Full,
        };
        let cfg = CacheConfig::builder(1024, 32).associativity(assoc).build().expect("valid");
        let stats = run(&refs, cfg);
        prop_assert_eq!(stats.bytes_fetched, stats.demand_misses() * 32);
        prop_assert!(
            stats.bytes_written_back + stats.bytes_flushed <= stats.bytes_fetched,
            "more written back than ever fetched"
        );
        prop_assert_eq!(stats.accesses, refs.len() as u64);
    }

    /// Write-through caches never hold dirty data: flush traffic is
    /// zero and write-through bytes equal write count x word size.
    #[test]
    fn write_through_never_dirty(refs in trace_strategy(300, 64)) {
        let cfg = CacheConfig::builder(512, 32)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .expect("valid");
        let stats = run(&refs, cfg);
        prop_assert_eq!(stats.bytes_flushed, 0);
        prop_assert_eq!(stats.bytes_written_back, 0);
        prop_assert_eq!(stats.bytes_written_through, stats.writes * 4);
    }

    /// No-write-allocate: write misses never fetch.
    #[test]
    fn no_allocate_write_misses_do_not_fetch(refs in trace_strategy(300, 64)) {
        let cfg = CacheConfig::builder(512, 32)
            .write_allocate(WriteAllocate::NoAllocate)
            .build()
            .expect("valid");
        let stats = run(&refs, cfg);
        prop_assert_eq!(stats.bytes_fetched, stats.read_misses * 32);
    }

    /// Replacement policy cannot change total access classification —
    /// only hit/miss counts — and every policy keeps the accounting
    /// identity intact.
    #[test]
    fn all_policies_keep_accounting(refs in trace_strategy(300, 128)) {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random(7),
            ReplacementPolicy::Plru,
        ] {
            let cfg = CacheConfig::builder(1024, 32)
                .associativity(Associativity::Ways(4))
                .replacement(policy)
                .build()
                .expect("valid");
            let stats = run(&refs, cfg);
            prop_assert_eq!(stats.accesses, refs.len() as u64, "policy {:?}", policy);
            prop_assert_eq!(stats.demand_hits() + stats.demand_misses(), stats.accesses);
            prop_assert_eq!(
                stats.traffic_below(),
                stats.bytes_fetched + stats.bytes_prefetched + stats.bytes_written_back
                    + stats.bytes_written_through + stats.bytes_flushed
            );
        }
    }

    /// Higher associativity at fixed size never increases misses for
    /// workloads without... actually it CAN (Belady anomaly does not
    /// apply to LRU: LRU is a stack algorithm in associativity only for
    /// fully-assoc). Instead assert a weaker, always-true property:
    /// hit + miss identity and deterministic replay.
    #[test]
    fn deterministic_replay(refs in trace_strategy(200, 64)) {
        let cfg = CacheConfig::builder(512, 32)
            .associativity(Associativity::Ways(2))
            .build()
            .expect("valid");
        let a = run(&refs, cfg);
        let b = run(&refs, cfg);
        prop_assert_eq!(a, b);
    }
}

/// Table 9's widest cache: 64 KiB fully associative with 32-byte
/// blocks, 2048 ways on the indexed path, against the stack-distance
/// oracle on a trace three times its capacity.
#[test]
fn table9_fully_associative_geometry_matches_reuse_profile() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(9);
    let refs: Vec<MemRef> = (0..40_000)
        .map(|i| {
            // A hot region that fits plus a cold region that does not.
            let block = if i % 3 == 0 {
                rng.gen_range(0..6144u64)
            } else {
                rng.gen_range(0..1024u64)
            };
            let addr = block * 32 + rng.gen_range(0..8u64) * 4;
            if rng.gen_range(0..4u32) == 0 {
                MemRef::write(addr, 4)
            } else {
                MemRef::read(addr, 4)
            }
        })
        .collect();
    let cfg = CacheConfig::builder(64 * 1024, 32)
        .associativity(Associativity::Full)
        .build()
        .expect("valid geometry");
    assert_eq!(cfg.ways(), 2048);
    let stats = run(&refs, cfg);
    let profile = ReuseProfile::measure(&VecWorkload::new("t", refs), 32);
    assert_eq!(stats.demand_misses(), profile.lru_misses(2048));
    assert!(
        stats.bytes_written_back > 0,
        "the trace must evict dirty lines"
    );
}
