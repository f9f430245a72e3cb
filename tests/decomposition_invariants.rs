//! Integration tests for the §3 execution-time decomposition across
//! cores, experiments, and workload shapes.

use membw::run_fig3;
use membw::sim::inorder::InOrderCore;
use membw::sim::ruu::RuuCore;
use membw::sim::{decompose, CoreKind, Experiment, MachineSpec, MemSystem, MemoryMode};
use membw::trace::pattern::{PointerChase, Strided, Zipf};
use membw::trace::Workload;
use membw::workloads::{suite92, suite95, Compress, Espresso, Scale, Suite, Swm};
use membw::Auditor;
use proptest::prelude::*;

fn check_invariants(w: &dyn Workload, spec: &MachineSpec) -> membw::sim::Decomposition {
    let d = decompose(w, spec);
    // The §3 identities are the runtime auditor's checks, run strict so
    // test-time and run-time invariants cannot drift apart.
    let mut audit = Auditor::strict("decomposition_invariants");
    audit.decomposition("test cell", &d);
    audit.finish().expect("Eq. 1-4 hold");
    // Beyond the shared checks: IPC cannot exceed the issue width.
    assert!(d.ipc() > 0.0 && d.ipc() <= f64::from(spec.issue_width));
    d
}

#[test]
fn invariants_hold_for_every_experiment_and_suite_config() {
    let w = Zipf::new(0, 16384, 16, 30_000, 0.8, 5).with_write_fraction(0.25);
    for e in Experiment::ALL {
        check_invariants(&w, &MachineSpec::spec92(e));
        check_invariants(&w, &MachineSpec::spec95(e));
    }
}

#[test]
fn perfect_fit_workload_is_compute_bound_everywhere() {
    let w = Espresso::new(96, 8, 6, 3); // ~3 KiB working set
    for e in Experiment::ALL {
        let d = check_invariants(&w, &MachineSpec::spec92(e));
        assert!(
            d.f_p > 0.8,
            "espresso must be compute-bound on {e:?}: f_p = {}",
            d.f_p
        );
    }
}

#[test]
fn streaming_is_memory_bound_and_ooo_shifts_stalls_to_bandwidth() {
    // A long unit-stride streaming read with writes: classic swm shape.
    let w = Strided::reads(0, 4, 400_000).with_write_every(4);
    let a = check_invariants(&w, &MachineSpec::spec92(Experiment::A));
    let f = check_invariants(&w, &MachineSpec::spec92(Experiment::F));
    assert!(a.f_p < 0.9, "streaming must stall the in-order machine");
    assert!(
        f.f_b >= a.f_b,
        "aggressive machine shifts stalls toward bandwidth: {} vs {}",
        f.f_b,
        a.f_b
    );
}

#[test]
fn pointer_chasing_is_latency_bound_not_bandwidth_bound() {
    // Dependent loads with a working set beyond L2: nothing overlaps, so
    // latency dominates even on experiment F.
    let chase = PointerChase::new(0, 1 << 16, 64, 200_000, 9); // 4 MiB
    let f = check_invariants(&chase, &MachineSpec::spec92(Experiment::F));
    assert!(
        f.f_l + f.f_b > 0.2,
        "a 4 MiB chase must stall: f_l={} f_b={}",
        f.f_l,
        f.f_b
    );
}

#[test]
fn block_doubling_changes_the_latency_bandwidth_split() {
    // Experiment B doubles both block sizes relative to A. For a
    // unit-stride streaming code, larger blocks reduce miss count
    // (latency) but haul more bytes per miss.
    let w = Swm::new(64, 64, 2);
    let a = decompose(&w, &MachineSpec::spec92(Experiment::A));
    let b = decompose(&w, &MachineSpec::spec92(Experiment::B));
    assert!(
        b.f_l <= a.f_l + 0.05,
        "spatial workload: bigger blocks shouldn't raise latency stalls much ({} vs {})",
        b.f_l,
        a.f_l
    );
}

#[test]
fn compress_f_has_substantial_bandwidth_stalls() {
    // The paper's flagship case: compress on the aggressive machine.
    let w = Compress::new(120_000, 1 << 16, 2); // 512 KiB table > L1
    let a = decompose(&w, &MachineSpec::spec92(Experiment::A));
    let f = decompose(&w, &MachineSpec::spec92(Experiment::F));
    assert!(
        f.f_b > 0.01,
        "experiment F must show bandwidth stalls, got {}",
        f.f_b
    );
    assert!(
        f.f_b >= a.f_b,
        "bandwidth share must not shrink from A to F: {} vs {}",
        f.f_b,
        a.f_b
    );
}

#[test]
fn uops_identical_across_memory_models() {
    // The same trace drives all three runs — uop counts must agree.
    let w = Zipf::new(0, 1024, 8, 5_000, 0.5, 1);
    let d = decompose(&w, &MachineSpec::spec92(Experiment::D));
    let d2 = decompose(&w, &MachineSpec::spec92(Experiment::D));
    assert_eq!(d.uops, d2.uops, "decomposition must be deterministic");
    assert_eq!(d.t, d2.t);
    assert_eq!(d.t_i, d2.t_i);
}

/// `(cycles, uops)` of one perfect-memory run.
fn perfect_run(w: &dyn Workload, spec: &MachineSpec) -> (u64, u64) {
    let mem = MemSystem::new(&spec.mem, MemoryMode::Perfect);
    match spec.core {
        CoreKind::InOrder => {
            let mut core = InOrderCore::new(spec, mem);
            w.generate(&mut core);
            let uops = core.uops();
            (core.into_result().0, uops)
        }
        CoreKind::OutOfOrder => {
            let mut core = RuuCore::new(spec, mem);
            w.generate(&mut core);
            let uops = core.uops();
            (core.into_result().0, uops)
        }
    }
}

/// Every (suite, experiment pair) whose machines share a core key.
fn shared_core_pairs() -> Vec<(MachineSpec, MachineSpec)> {
    let mut pairs = Vec::new();
    for spec in [MachineSpec::spec92, MachineSpec::spec95] {
        for (i, &a) in Experiment::ALL.iter().enumerate() {
            for &b in &Experiment::ALL[i + 1..] {
                if spec(a).core_key() == spec(b).core_key() {
                    pairs.push((spec(a), spec(b)));
                }
            }
        }
    }
    pairs
}

#[test]
fn shared_cores_are_abc_and_de_in_both_suites() {
    let labels: Vec<String> = shared_core_pairs()
        .iter()
        .map(|(a, b)| format!("{}{}", a.experiment.label(), b.experiment.label()))
        .collect();
    assert_eq!(labels, ["AB", "AC", "BC", "DE", "AB", "AC", "BC", "DE"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fig. 3 runs `T_P` once per (benchmark, core): that is sound only
    /// if perfect memory makes `T_P` and the uop count independent of
    /// every `MemorySpec` field, for any workload shape.
    #[test]
    fn perfect_runs_agree_across_machines_sharing_a_core(
        shape in 0u32..3,
        count in 500u64..4000,
        stride_words in 1u64..40,
        write_every in 2u64..9,
        seed in 0u64..1000,
    ) {
        let w: Box<dyn Workload> = match shape {
            0 => Box::new(Strided::reads(0, stride_words * 4, count).with_write_every(write_every)),
            1 => Box::new(
                Zipf::new(0, 4096, 16, count, 0.8, seed).with_write_fraction(0.3),
            ),
            _ => Box::new(PointerChase::new(0, 2048, 32, count, seed)),
        };
        for (a, b) in shared_core_pairs() {
            prop_assert_eq!(
                perfect_run(&*w, &a),
                perfect_run(&*w, &b),
                "{:?} vs {:?}",
                a.experiment,
                b.experiment
            );
        }
    }
}

#[test]
fn grouped_fig3_matches_per_cell_decompose() {
    // Fig. 3 shares one T_P run per (benchmark, core); every cell must
    // still equal the plain three-run decomposition, memory counters
    // included.
    for suite in [Suite::Spec92, Suite::Spec95] {
        let (benchmarks, spec): (_, fn(Experiment) -> MachineSpec) = match suite {
            Suite::Spec92 => (suite92(Scale::Test), MachineSpec::spec92),
            Suite::Spec95 => (suite95(Scale::Test), MachineSpec::spec95),
        };
        let r =
            run_fig3::run_suite(suite, Scale::Test, &Experiment::ALL).expect("no faults injected");
        assert_eq!(r.cells.len(), benchmarks.len() * Experiment::ALL.len());
        for b in &benchmarks {
            for e in Experiment::ALL {
                let cell = r.cell(b.name(), e.label()).expect("cell present");
                let want = decompose(b.workload(), &spec(e));
                assert_eq!(cell.decomposition, want, "{}/{}", b.name(), e.label());
            }
        }
    }
}
