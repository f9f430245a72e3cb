//! Figure 4 bench: one traffic-vs-size curve (cache and MTC) per
//! iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use membw_core::cache::{Associativity, Cache, CacheConfig};
use membw_core::mtc::{min_sweep, MinCache, MinConfig};
use membw_core::sweep::{sweep_lru, SweepSpec};
use membw_core::trace::Workload;
use membw_core::workloads::Compress;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    let refs = Compress::new(10_000, 1 << 12, 7).collect_mem_refs();
    g.bench_function("cache_curve_6_blocksizes", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for block in [4u64, 8, 16, 32, 64, 128] {
                let cfg = CacheConfig::builder(16 * 1024, block)
                    .associativity(Associativity::Ways(4))
                    .build()
                    .expect("valid");
                let mut cache = Cache::new(cfg);
                for &r in black_box(&refs) {
                    cache.access(r);
                }
                total += cache.flush().traffic_below();
            }
            black_box(total)
        })
    });
    g.bench_function("mtc_curve_point", |b| {
        b.iter(|| {
            black_box(MinCache::simulate(
                &MinConfig::mtc(16 * 1024),
                black_box(&refs),
            ))
        })
    });
    // The figure's full capacity axis (64B–4MB), one cache curve: the
    // one-pass stack engine against the per-capacity direct loop it
    // replaced.
    let caps: Vec<u64> = (6..=22).map(|p| 1u64 << p).collect();
    g.bench_function("cache_curve_17_capacities_stack", |b| {
        let spec = SweepSpec::new(32).associativity(Associativity::Ways(4));
        b.iter(|| black_box(sweep_lru(&spec, &caps, black_box(&refs[..]))))
    });
    g.bench_function("cache_curve_17_capacities_direct", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for &s in &caps {
                let Ok(cfg) = CacheConfig::builder(s, 32)
                    .associativity(Associativity::Ways(4))
                    .build()
                else {
                    continue;
                };
                let mut cache = Cache::new(cfg);
                for &r in black_box(&refs) {
                    cache.access(r);
                }
                out.push(cache.flush());
            }
            black_box(out)
        })
    });
    // Same comparison for one MTC curve: shared-index multi-state sweep
    // vs one two-pass simulation per capacity.
    g.bench_function("mtc_curve_17_capacities_stack", |b| {
        let cfgs: Vec<MinConfig> = caps.iter().map(|&s| MinConfig::mtc(s)).collect();
        b.iter(|| black_box(min_sweep(&cfgs, black_box(&refs[..]))))
    });
    g.bench_function("mtc_curve_17_capacities_direct", |b| {
        b.iter(|| {
            let out: Vec<_> = caps
                .iter()
                .map(|&s| MinCache::simulate(&MinConfig::mtc(s), black_box(&refs)))
                .collect();
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
