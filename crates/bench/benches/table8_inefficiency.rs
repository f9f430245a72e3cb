//! Table 8 bench: the two-pass Belady MTC simulation behind the traffic
//! -inefficiency numbers.
//!
//! Benchmarks the production heap-based [`MinCache`] against the
//! retained `BTreeSet` [`ReferenceMinCache`] on the same traces, so the
//! hot-loop overhaul's speedup is measured, not assumed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use membw_core::mtc::{min_sweep, MinCache, MinConfig, ReferenceMinCache};
use membw_core::trace::Workload;
use membw_core::workloads::{Compress, Eqntott};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table8");
    g.sample_size(10);
    let compress = Compress::new(20_000, 1 << 12, 7).collect_mem_refs();
    let eqntott = Eqntott::new(512, 7).collect_mem_refs();
    for (name, refs) in [("compress", &compress), ("eqntott", &eqntott)] {
        g.throughput(Throughput::Elements(refs.len() as u64));
        g.bench_function(format!("mtc_simulate_{name}"), |b| {
            b.iter(|| {
                black_box(MinCache::simulate(
                    &MinConfig::mtc(16 * 1024),
                    black_box(refs),
                ))
            })
        });
        g.bench_function(format!("mtc_simulate_{name}_btreeset_reference"), |b| {
            b.iter(|| {
                black_box(ReferenceMinCache::simulate(
                    &MinConfig::mtc(16 * 1024),
                    black_box(refs),
                ))
            })
        });
    }
    // The table's MTC column for one benchmark across eight capacities:
    // the shared-index multi-state sweep against one two-pass simulation
    // per capacity.
    let caps: Vec<u64> = (10..=17).map(|p| 1u64 << p).collect();
    g.throughput(Throughput::Elements(compress.len() as u64));
    g.bench_function("mtc_column_8_capacities_sweep", |b| {
        let cfgs: Vec<MinConfig> = caps.iter().map(|&s| MinConfig::mtc(s)).collect();
        b.iter(|| black_box(min_sweep(&cfgs, black_box(&compress[..]))))
    });
    g.bench_function("mtc_column_8_capacities_direct", |b| {
        b.iter(|| {
            let out: Vec<_> = caps
                .iter()
                .map(|&s| MinCache::simulate(&MinConfig::mtc(s), black_box(&compress)))
                .collect();
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
