//! Whole-trace consumers hold memory proportional to the cache, not the
//! trace, and the sweep engines hold memory for the sets a trace
//! touches, not for the capacities they sweep, and nothing for the
//! capacities above the first one that never evicts.
//!
//! A counting `#[global_allocator]` records the peak of live heap bytes
//! (allocated capacity, not touched pages) while one call runs. The
//! counts are deterministic, not timings, so the bounds are tight enough
//! to catch a consumer that starts materializing its trace again.
//! Measured peaks, collect-then-simulate before and streaming after,
//! and the live heap the 14 recorded test-scale arenas hold, fixed-width
//! before and shape-table encoded after:
//!
//! | call | before | after |
//! |---|---|---|
//! | `run_table2::run(1024)` | 165.1 MiB | 17.1 MiB |
//! | `run_swprefetch::run()` | 81.5 MiB | 1.8 MiB |
//! | 1 Mi-load rewrite, distance 1 / 64 / 4096 | 40.2 MiB | 208 B / 2.5 KiB / 160 KiB |
//! | `run_interference::run(16 * 1024, 200)` | 40.0 MiB | 1.4 MiB |
//! | `run_speculation::run()` | 41.6 MiB | 1.7 MiB |
//! | 1 Mi-load `Squashing`, 256-uop tasks | 40.0 MiB | 10 KiB |
//! | 14 `Scale::Test` arenas, recorded and held | 21.0 MiB | 4.9 MiB |
//!
//! Table 2's largest kernel is the time-tiled stencil at its 1 KiB cache
//! (2.43 M references). Before, it held the collected references, a
//! block vector, the next-use links and one stale heap pair per hit;
//! after, only the 4-byte next-use links (33.1 MiB while they were
//! 8 bytes). Interference held every
//! thread's collected uops (40 B each) and now holds each thread's
//! recorded arena (about 2 B per uop); speculation held the whole
//! collected kernel and now holds one task.
//!
//! The traffic sweeps: dense LRU levels over collected references,
//! then first-touch chunked levels over streamed references (the
//! chunked column re-measured on the engine just before mirroring),
//! then chunked levels built only up to the first one that never
//! evicts, the larger capacities mirroring it:
//!
//! | call | dense | chunked | mirrored |
//! |---|---|---|---|
//! | `run_fig4::run(Test)`, 1 job thread | 20.0 MiB | 8.38 MiB | 2.60 MiB |
//! | `run_fig4::run(Test)`, 2 job threads | 31.0 MiB | 12.70 MiB | 5.05 MiB |
//! | compress, 4-way 4-B-block `sweep_lru`, fig4's 17 sizes | | 8.38 MiB | 2.27 MiB |
//! | `run_table7::run(Test)`, 1 job thread | 3.1 MiB | 0.57 MiB | 0.57 MiB |
//! | `run_table8::run(Test)`, 1 job thread | 5.9 MiB | 2.47 MiB | 2.47 MiB |
//! | `run_table9::run(Test)`, 1 job thread | 5.8 MiB | 4.79 MiB | 4.79 MiB |
//! | 4-way, 4-B-block sweep of 256 words, 64 B – 4 MiB | 18.0 MiB | 228 KiB | 9.9 KiB |
//!
//! Once fig4's LRU sweeps mirror their eviction-free levels, its MTC
//! curves (`min_sweep`) set its peak. Tables 7 – 9 are unchanged: their
//! peaks are their min passes and Table 9's collected references.
//!
//! The timing cores, port accounting dense in cycles before and a
//! calendar ring plus a sparse far list after:
//!
//! | call | before | after |
//! |---|---|---|
//! | `run_fig3::run_suite(Spec95, Test)`, 1 job thread | 5.10 MiB | 2.80 MiB |
//!
//! Table 9's `factor_gaps` still collects its references; it replays
//! them once per Table 10 factor.
//!
//! Once a render returns, the live heap it leaves behind is its result
//! alone: every benchmark's stream is regenerated, so no recorded trace
//! stays resident between targets.

use membw::cache::Associativity;
use membw::sim::Experiment;
use membw::sweep::{sweep_lru, SweepSpec};
use membw::trace::sink::CountSink;
use membw::trace::{MemRef, RecordedTrace, SoftwarePrefetch, Squashing, Workload};
use membw::workloads::kernels::TimeTiledStencil;
use membw::workloads::{suite92, suite95, Scale, Suite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Forwards to the system allocator, tracking live and peak-live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters never affect the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;

/// Run `f` and return its result with the peak live heap bytes it
/// added. The caller holds [`serial`].
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Run `f` and return its result with the live heap bytes still
/// allocated when it returns: what the result (and any global `f`
/// touched) keeps resident. The caller holds [`serial`].
fn retained_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed).saturating_sub(base))
}

/// The lock every test holds for its whole body, setup and teardown
/// included, so no test counts another's allocations.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn count_refs(w: &dyn Workload) -> usize {
    let mut n = 0;
    w.for_each_mem_ref(&mut |_| n += 1);
    n
}

#[test]
fn table2_peak_is_bounded_by_its_largest_kernel() {
    let _serial = serial();
    // The stencil tiled for table2's 1 KiB cache. Its next-use links
    // take 4 B per reference, up to 8 B with `Vec` doubling; the 4 MiB
    // covers the footprint-sized `last_seen` map and the cache itself.
    // 8-byte links would need up to 16 B per reference and fail.
    let refs = count_refs(&TimeTiledStencil::new(128, 8, 5));
    let (result, peak) = peak_during(|| membw::run_table2::run(1024));
    result.expect("table2 audit passes");
    let bound = 8 * refs + 4 * MIB;
    assert!(
        peak <= bound,
        "table2 peaked at {:.1} MiB (bound {:.1} MiB, {refs} references)",
        peak as f64 / MIB as f64,
        bound as f64 / MIB as f64
    );
}

#[test]
fn prefetch_rewrite_window_is_independent_of_trace_length() {
    let _serial = serial();
    let inner = membw::trace::pattern::Strided::reads(0, 4, 1 << 20);
    for distance in [1, 64, 4096] {
        let w = SoftwarePrefetch::with_inaccuracy(inner.clone(), distance, 64, 3);
        let (count, peak) = peak_during(|| {
            let mut sink = CountSink::new();
            w.generate(&mut sink);
            sink
        });
        assert_eq!(count.loads, 2 * (1 << 20) - distance as u64);
        // The window holds `distance` uops; a whole-trace buffer would
        // be 1 Mi of them.
        let bound = 2 * distance * std::mem::size_of::<membw::trace::Uop>() + 4096;
        assert!(
            peak <= bound,
            "distance {distance}: rewrite peaked at {peak} B (bound {bound} B)"
        );
    }
}

#[test]
fn swprefetch_peak_stays_small() {
    let _serial = serial();
    let (result, peak) = peak_during(membw::run_swprefetch::run);
    result.expect("swprefetch audit passes");
    assert!(
        peak <= 4 * MIB,
        "swprefetch peaked at {:.1} MiB",
        peak as f64 / MIB as f64
    );
}

#[test]
fn interference_peak_stays_small() {
    let _serial = serial();
    let (result, peak) = peak_during(|| membw::run_interference::run(16 * 1024, 200));
    result.expect("interference audit passes");
    assert!(
        peak <= 4 * MIB,
        "interference peaked at {:.1} MiB",
        peak as f64 / MIB as f64
    );
}

#[test]
fn speculation_peak_stays_small() {
    let _serial = serial();
    let (result, peak) = peak_during(membw::run_speculation::run);
    result.expect("speculation audit passes");
    assert!(
        peak <= 4 * MIB,
        "speculation peaked at {:.1} MiB",
        peak as f64 / MIB as f64
    );
}

#[test]
fn squash_task_buffer_is_independent_of_trace_length() {
    let _serial = serial();
    let inner = membw::trace::pattern::Strided::reads(0, 4, 1 << 20);
    let w = Squashing::new(inner, 256, 128, 7);
    let (count, peak) = peak_during(|| {
        let mut sink = CountSink::new();
        w.generate(&mut sink);
        sink
    });
    assert!(count.loads > 1 << 20, "some tasks squash");
    // The buffer holds one 256-uop task; a whole-trace buffer would be
    // 1 Mi uops.
    let bound = 2 * 256 * std::mem::size_of::<membw::trace::Uop>() + 4096;
    assert!(
        peak <= bound,
        "squashing peaked at {peak} B (bound {bound} B)"
    );
}

#[test]
fn resident_test_scale_arenas_are_compact_and_honestly_sized() {
    let _serial = serial();
    let benchmarks: Vec<_> = suite92(Scale::Test)
        .into_iter()
        .chain(suite95(Scale::Test))
        .collect();
    assert_eq!(benchmarks.len(), 14);
    let (arenas, retained) = retained_by(|| {
        benchmarks
            .iter()
            .map(|b| RecordedTrace::record(b.workload()))
            .collect::<Vec<_>>()
    });
    let arena: u64 = arenas.iter().map(RecordedTrace::arena_bytes).sum();
    let mib = |b: f64| b / MIB as f64;
    assert!(
        retained <= 8 * MIB,
        "14 arenas retain {:.2} MiB (bound 8 MiB)",
        mib(retained as f64)
    );
    // Bytes-per-uop figures divide `arena_bytes`; it must match what
    // the arenas really hold.
    let gap = (arena as f64 - retained as f64).abs() / retained as f64;
    assert!(
        gap <= 0.05,
        "arena_bytes sums to {:.2} MiB but the arenas retain {:.2} MiB",
        mib(arena as f64),
        mib(retained as f64)
    );
}

#[test]
fn a_render_retains_no_trace() {
    let _serial = serial();
    // The results themselves are a few KiB; one retained arena of the
    // suite would be 0.1-0.8 MiB, and all fourteen 4.9 MiB.
    let (table7, retained) =
        retained_by(|| membw::runner::with_jobs(1, || membw::run_table7::run(Scale::Test)));
    table7.expect("table7 audit passes");
    assert!(
        retained < MIB,
        "table7 left {:.2} MiB live after it returned",
        retained as f64 / MIB as f64
    );
    let (fig3, retained) = retained_by(|| {
        membw::runner::with_jobs(1, || {
            membw::run_fig3::run_suite(Suite::Spec92, Scale::Test, &Experiment::ALL)
        })
    });
    fig3.expect("fig3 audit passes");
    assert!(
        retained < MIB,
        "fig3 left {:.2} MiB live after it returned",
        retained as f64 / MIB as f64
    );
}

#[test]
fn fig4_peak_follows_the_touched_sets_at_one_job_thread() {
    let _serial = serial();
    // Dense levels hold 18 MiB per 4-B-block job whatever the trace
    // touches, and every job collected its references (2 MiB) besides.
    // Chunked levels for all 17 sizes peaked at 8.4 MiB in the compress
    // 4-B-block job; mirrored, the MTC curves set the peak (2.6 MiB).
    let (result, peak) =
        peak_during(|| membw::runner::with_jobs(1, || membw::run_fig4::run(Scale::Test)));
    result.expect("fig4 audit passes");
    assert!(
        peak <= 13 * MIB / 4,
        "fig4 peaked at {:.2} MiB (bound 3.25 MiB)",
        peak as f64 / MIB as f64
    );
}

#[test]
fn fig4_largest_lru_sweep_builds_only_the_levels_that_evict() {
    let _serial = serial();
    // Compress at 4-B blocks touches the most sets of any fig4 job. Its
    // four largest capacities (512 KiB – 4 MiB) never evict, and built
    // as levels they held 6.8 MiB of the 8.4 MiB the job peaked at.
    let suite = suite92(Scale::Test);
    let compress = suite
        .iter()
        .find(|b| b.name() == "compress")
        .expect("compress is in SPEC92");
    let spec = SweepSpec::new(4).associativity(Associativity::Ways(4));
    let caps = membw::run_fig4::sizes();
    assert_eq!(caps.len(), 17);
    let (swept, peak) = peak_during(|| sweep_lru(&spec, &caps, compress.workload()));
    assert!(swept.iter().all(Option::is_some));
    assert!(
        peak <= 3 * MIB,
        "compress 4-B-block sweep peaked at {:.2} MiB (bound 3 MiB)",
        peak as f64 / MIB as f64
    );
}

#[test]
fn fig3_peak_follows_the_in_flight_window() {
    let _serial = serial();
    // A load queued behind a saturated bus books its ports hundreds of
    // thousands of cycles ahead; a scheduler dense in cycles held one
    // counter per cycle of that span (5.1 MiB here).
    let (result, peak) = peak_during(|| {
        membw::runner::with_jobs(1, || {
            membw::run_fig3::run_suite(Suite::Spec95, Scale::Test, &Experiment::ALL)
        })
    });
    result.expect("fig3 audit passes");
    assert!(
        peak <= 7 * MIB / 2,
        "fig3 SPEC95 peaked at {:.2} MiB (bound 3.5 MiB)",
        peak as f64 / MIB as f64
    );
}

#[test]
fn short_trace_sweep_allocation_does_not_follow_the_largest_capacity() {
    let _serial = serial();
    // 256 distinct words: every level touches at most 256 sets.
    let refs: Vec<MemRef> = (0..4096u64)
        .map(|i| MemRef::read((i * 13 % 256) * 4, 4))
        .collect();
    let spec = SweepSpec::new(4).associativity(Associativity::Ways(4));
    let peak_to = |top: u32| {
        let caps: Vec<u64> = (6..=top).map(|p| 1u64 << p).collect();
        peak_during(|| sweep_lru(&spec, &caps, &refs[..])).1
    };
    let (fits, large) = (peak_to(10), peak_to(22));
    // Out to 4 MiB the dense levels would take 18 MiB. Chunked, every
    // level took its chunk table (4 B per 64 slots) and the chunks of
    // the same 256 sets (228 KiB in all). 1 KiB is the first capacity
    // that holds all 256 words, so it never evicts and no larger level
    // is built: the 12 capacities above it add their config and result
    // entries only (3.2 KiB measured).
    assert!(
        large <= 16 * 1024,
        "a 4 MiB sweep of 256 words peaked at {large} B (bound 16 KiB)"
    );
    assert!(
        large - fits <= 4 * 1024,
        "12 capacities above the first eviction-free one added {} B (1 KiB axis: {fits} B)",
        large - fits
    );
}
