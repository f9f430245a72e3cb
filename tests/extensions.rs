//! Integration tests for the extension models, cross-checked against the
//! core simulators on real workload kernels.

use membw::cache::{BypassCache, Cache, CacheConfig, StreamBuffers};
use membw::mtc::OptProfile;
use membw::trace::reuse::ReuseProfile;
use membw::trace::squash::Squashing;
use membw::trace::swprefetch::SoftwarePrefetch;
use membw::trace::{Interleave, Workload};
use membw::workloads::{Compress, Espresso, Li, Swm};

/// Belady never loses to LRU — checked on real kernels via the two
/// independent all-capacity profilers.
#[test]
fn opt_at_most_lru_on_real_kernels() {
    let kernels: Vec<Box<dyn Workload>> = vec![
        Box::new(Compress::new(15_000, 1 << 12, 3)),
        Box::new(Espresso::new(96, 8, 2, 3)),
        Box::new(Li::new(1024, 120, 3)),
    ];
    for k in &kernels {
        let refs = k.collect_mem_refs();
        let lru = ReuseProfile::measure(k, 32);
        let opt = OptProfile::measure(&refs, 32);
        assert_eq!(lru.cold_misses(), opt.cold_misses(), "{}", k.name());
        for cap in [16u64, 64, 256, 1024] {
            assert!(
                opt.misses(cap as usize) <= lru.lru_misses(cap),
                "{}: OPT beat by LRU at {cap} blocks",
                k.name()
            );
        }
    }
}

/// Stream buffers help the streaming kernel and hurt the hashing kernel
/// (traffic-wise) — §2.1's two-sided coin.
#[test]
fn stream_buffers_are_workload_dependent() {
    let cfg = CacheConfig::builder(8 * 1024, 32).build().unwrap();
    // swm interleaves ~10 array streams per loop, so give the buffer
    // file enough entries to track them (Jouppi's 4 suffice only for
    // single-stream code).
    let measure = |w: &dyn Workload| {
        let mut sb = StreamBuffers::new(cfg, 12, 4);
        let mut plain = Cache::new(cfg);
        w.for_each_mem_ref(&mut |r| {
            sb.access(r);
            plain.access(r);
        });
        (
            sb.stream_hits(),
            sb.flush().traffic_below(),
            plain.flush().traffic_below(),
        )
    };
    let swm = Swm::new(48, 48, 1);
    let (hits, _sb_t, _plain_t) = measure(&swm);
    assert!(hits > 1000, "streaming kernel must hit the buffers: {hits}");
    let compress = Compress::new(10_000, 1 << 12, 3);
    let (_, sb_t, plain_t) = measure(&compress);
    assert!(
        sb_t > plain_t,
        "false streams must waste traffic on compress: {sb_t} vs {plain_t}"
    );
}

/// Bypassing reduces compress's traffic without hurting espresso's hits.
#[test]
fn bypass_is_selective() {
    let cfg = CacheConfig::builder(8 * 1024, 32).build().unwrap();
    let compress = Compress::new(10_000, 1 << 12, 3);
    let mut by = BypassCache::new(cfg, 512);
    let mut plain = Cache::new(cfg);
    compress.for_each_mem_ref(&mut |r| {
        by.access(r);
        plain.access(r);
    });
    assert!(by.flush().traffic_below() < plain.flush().traffic_below());

    let espresso = Espresso::new(96, 8, 2, 3);
    let mut by = BypassCache::new(cfg, 512);
    espresso.for_each_mem_ref(&mut |r| {
        by.access(r);
    });
    let s = by.flush();
    assert!(
        s.miss_ratio() < 0.2,
        "hot working set must stay cached: {}",
        s.miss_ratio()
    );
}

/// Squash + prefetch + interleave compose (they are all Workloads).
#[test]
fn trace_transformers_compose() {
    let base = Espresso::new(64, 8, 1, 3);
    let speculative = Squashing::new(base, 128, 64, 1);
    let prefetched = SoftwarePrefetch::new(speculative, 16);
    let threads = vec![prefetched];
    let il = Interleave::new(threads, 100, 1 << 30);
    let refs = il.collect_mem_refs();
    assert!(!refs.is_empty());
    // Determinism survives the whole stack.
    let base2 = Espresso::new(64, 8, 1, 3);
    let il2 = Interleave::new(
        vec![SoftwarePrefetch::new(Squashing::new(base2, 128, 64, 1), 16)],
        100,
        1 << 30,
    );
    assert_eq!(refs, il2.collect_mem_refs());
}
