//! Record/replay round-trip: for every suite workload, a recorded
//! trace must replay the exact uop and memory-reference streams the
//! generator produces, and replaying must be repeatable.

use membw_trace::{CollectSink, MemRef, RecordingSink, Workload};
use membw_workloads::{suite92, suite95, Scale};

fn mem_refs(w: &(impl Workload + ?Sized)) -> Vec<MemRef> {
    let mut refs = Vec::new();
    w.for_each_mem_ref(&mut |r| refs.push(r));
    refs
}

#[test]
fn every_suite_workload_replays_its_direct_generation_exactly() {
    let benchmarks: Vec<_> = suite92(Scale::Test)
        .into_iter()
        .chain(suite95(Scale::Test))
        .collect();
    assert!(benchmarks.len() >= 10, "both suites should be covered");

    for b in &benchmarks {
        // Direct generation: the ground truth.
        let mut direct = CollectSink::new();
        b.workload().generate(&mut direct);
        let direct = direct.into_uops();

        // Record once...
        let mut rec = RecordingSink::new(b.name());
        b.workload().generate(&mut rec);
        let trace = rec.finish();
        assert_eq!(trace.len(), direct.len(), "{}", b.name());

        // ...replay must equal direct generation, uop for uop.
        let mut replayed = CollectSink::new();
        trace.generate(&mut replayed);
        assert_eq!(replayed.uops(), direct.as_slice(), "{}", b.name());

        // Replaying twice must be identical (the arena is immutable).
        let mut again = CollectSink::new();
        trace.generate(&mut again);
        assert_eq!(again.uops(), direct.as_slice(), "{}", b.name());

        // The fast memory-reference walk must agree with the uop
        // stream's references, and with the generator's own walk.
        assert_eq!(mem_refs(&trace), mem_refs(b.workload()), "{}", b.name());
    }
}
