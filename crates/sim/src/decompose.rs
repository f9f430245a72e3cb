//! Execution-time decomposition: `f_P`, `f_L`, `f_B` (§2, Eqs. 1–3).

use crate::inorder::InOrderCore;
use crate::machine::{CoreKind, MachineSpec, MemoryMode};
use crate::memsys::{MemSystem, MemSystemStats};
use crate::ruu::RuuCore;
use membw_trace::Workload;
use serde::{Deserialize, Serialize};

/// Result of the three-run decomposition for one workload on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    /// Cycles with a perfect (1-cycle) memory system: `T_P`.
    pub t_p: u64,
    /// Cycles with real latencies but infinite inter-level bandwidth:
    /// `T_I`.
    pub t_i: u64,
    /// Cycles with the full memory system: `T`.
    pub t: u64,
    /// Processing fraction `f_P = T_P / T`.
    pub f_p: f64,
    /// Raw-latency stall fraction `f_L = (T_I − T_P) / T`.
    pub f_l: f64,
    /// Bandwidth stall fraction `f_B = (T − T_I) / T`.
    pub f_b: f64,
    /// Memory-system counters from the full run.
    pub full_mem: MemSystemStats,
    /// Micro-ops executed.
    pub uops: u64,
}

impl Decomposition {
    /// Execution time normalized to `T_P` (the y-axis of Figure 3).
    pub fn normalized_time(&self) -> f64 {
        self.t as f64 / self.t_p as f64
    }

    /// Instructions (uops) per cycle of the full run.
    pub fn ipc(&self) -> f64 {
        self.uops as f64 / self.t as f64
    }
}

fn run_once<W: Workload + ?Sized>(
    workload: &W,
    spec: &MachineSpec,
    mem: MemSystem,
) -> (u64, MemSystem, u64) {
    match spec.core {
        CoreKind::InOrder => {
            let mut core = InOrderCore::new(spec, mem);
            workload.generate(&mut core);
            let uops = core.uops();
            let (t, mem) = core.into_result();
            (t, mem, uops)
        }
        CoreKind::OutOfOrder => {
            let mut core = RuuCore::new(spec, mem);
            workload.generate(&mut core);
            let uops = core.uops();
            let (t, mem) = core.into_result();
            (t, mem, uops)
        }
    }
}

/// Decompose the execution time of `workload` on `spec` by running the
/// perfect, latency-only, and full simulations (§3.1).
///
/// The fractions satisfy `f_P + f_L + f_B = 1` up to floating-point
/// rounding. `T ≥ T_I` always holds (removing bandwidth limits cannot slow
/// a run); `T_I ≥ T_P` holds whenever real latencies only add time, which
/// the timing model guarantees.
pub fn decompose<W: Workload + ?Sized>(workload: &W, spec: &MachineSpec) -> Decomposition {
    decompose_group(workload, std::slice::from_ref(spec))[0]
}

/// [`decompose`] on every machine of `specs`, which share one
/// [`CoreKey`](crate::machine::CoreKey): a single perfect-memory run
/// supplies every machine's `T_P` and uop count, then the latency-only
/// and full runs follow per machine. Entry `i` equals
/// `decompose(workload, &specs[i])`.
///
/// # Panics
///
/// Panics if two specs have different core keys.
pub fn decompose_group<W: Workload + ?Sized>(
    workload: &W,
    specs: &[MachineSpec],
) -> Vec<Decomposition> {
    let Some(first) = specs.first() else {
        return Vec::new();
    };
    assert!(
        specs.iter().all(|s| s.core_key() == first.core_key()),
        "decompose_group needs machines that share one core"
    );
    let perfect = MemSystem::new(&first.mem, MemoryMode::Perfect);
    let (t_p, _, uops) = run_once(workload, first, perfect);
    specs
        .iter()
        .map(|spec| {
            let latency = MemSystem::new(&spec.mem, MemoryMode::LatencyOnly);
            let (t_i, mem, _) = run_once(workload, spec, latency);
            // The full run empties the latency run's caches in place.
            let full = MemSystem::reusing(mem, MemoryMode::Full);
            let (t, mem, _) = run_once(workload, spec, full);
            // Guard the invariants against model corner cases.
            let t_i = t_i.max(t_p);
            let t = t.max(t_i);
            let tf = t as f64;
            Decomposition {
                t_p,
                t_i,
                t,
                f_p: t_p as f64 / tf,
                f_l: (t_i - t_p) as f64 / tf,
                f_b: (t - t_i) as f64 / tf,
                full_mem: mem.stats(),
                uops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Experiment;
    use membw_trace::pattern::{Strided, Zipf};

    #[test]
    fn fractions_sum_to_one() {
        let w = Strided::reads(0, 4, 5_000).with_write_every(5);
        for e in [Experiment::A, Experiment::D, Experiment::F] {
            let d = decompose(&w, &MachineSpec::spec92(e));
            assert!((d.f_p + d.f_l + d.f_b - 1.0).abs() < 1e-9, "{e:?}");
            assert!(d.f_p > 0.0 && d.f_l >= 0.0 && d.f_b >= 0.0);
            assert!(d.t >= d.t_i && d.t_i >= d.t_p);
        }
    }

    #[test]
    fn cache_resident_workload_has_tiny_stalls() {
        // A small hot set living comfortably in the 128 KiB L1: once the
        // 16 KiB footprint is resident, only cold misses ever stall.
        let w = Zipf::new(0, 1024, 16, 100_000, 0.9, 3);
        let d = decompose(&w, &MachineSpec::spec92(Experiment::A));
        assert!(d.f_p > 0.85, "f_p = {}", d.f_p);
    }

    #[test]
    fn streaming_workload_stalls_on_memory() {
        // A 4 MiB streaming sweep: constant misses all the way down.
        let w = Strided::reads(0, 4, 1 << 20);
        let d = decompose(&w, &MachineSpec::spec92(Experiment::A));
        assert!(d.f_p < 0.9, "streaming must stall; f_p = {}", d.f_p);
        assert!(d.f_l + d.f_b > 0.1);
    }

    #[test]
    #[should_panic(expected = "share one core")]
    fn group_rejects_machines_with_different_cores() {
        let w = Strided::reads(0, 4, 100);
        let specs = [Experiment::A, Experiment::D].map(MachineSpec::spec92);
        decompose_group(&w, &specs);
    }

    #[test]
    fn normalized_time_and_ipc() {
        let w = Strided::reads(0, 4, 2_000);
        let d = decompose(&w, &MachineSpec::spec92(Experiment::A));
        assert!(d.normalized_time() >= 1.0);
        assert!(d.ipc() > 0.0 && d.ipc() <= 4.0);
    }
}
