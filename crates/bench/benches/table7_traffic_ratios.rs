//! Table 7 bench: the trace-driven cache simulator over the traffic-
//! ratio size sweep.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use membw_core::cache::{Cache, CacheConfig};
use membw_core::run_table7::SIZES;
use membw_core::sweep::{sweep_lru, SweepSpec};
use membw_core::trace::Workload;
use membw_core::workloads::Compress;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table7");
    g.sample_size(10);
    let refs = Compress::new(20_000, 1 << 12, 7).collect_mem_refs();
    g.throughput(Throughput::Elements(refs.len() as u64));
    for size in [1u64 << 10, 1 << 14, 1 << 18] {
        g.bench_function(format!("traffic_ratio_compress_{size}B"), |b| {
            b.iter(|| {
                let cfg = CacheConfig::builder(size, 32).build().expect("valid");
                let mut cache = Cache::new(cfg);
                for &r in black_box(&refs) {
                    cache.access(r);
                }
                black_box(cache.flush().traffic_ratio())
            })
        });
    }
    // The table's whole 12-size row at once: the one-pass stack engine
    // against the per-size direct loop it replaced.
    g.bench_function("row_sweep_12_sizes_stack", |b| {
        let spec = SweepSpec::new(32);
        b.iter(|| black_box(sweep_lru(&spec, &SIZES, black_box(&refs[..]))))
    });
    g.bench_function("row_sweep_12_sizes_direct", |b| {
        b.iter(|| {
            let out: Vec<_> = SIZES
                .iter()
                .map(|&size| {
                    let cfg = CacheConfig::builder(size, 32).build().expect("valid");
                    let mut cache = Cache::new(cfg);
                    for &r in black_box(&refs) {
                        cache.access(r);
                    }
                    cache.flush()
                })
                .collect();
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
