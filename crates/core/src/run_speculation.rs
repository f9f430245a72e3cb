//! Coarse-grained speculation cost (extension): §2.2's Multiscalar
//! argument, measured.
//!
//! "Processors that rely heavily on coarse-grained speculative execution
//! … increase memory traffic whenever they must squash a task." We sweep
//! the squash rate on experiment F and report traffic and the bandwidth
//! -stall share.

use crate::audit::Auditor;
use crate::error::MembwError;
use crate::report::Table;
use membw_sim::{decompose, Experiment, MachineSpec};
use membw_trace::squash::Squashing;
use membw_workloads::Tomcatv;
use serde::{Deserialize, Serialize};

/// One squash-rate point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeculationCell {
    /// Squash probability (out of 256).
    pub squash_per_256: u32,
    /// Memory traffic of the full run, bytes.
    pub memory_traffic: u64,
    /// Full-run cycles.
    pub cycles: u64,
    /// Bandwidth-stall fraction.
    pub f_b: f64,
}

/// Squash rates swept (out of 256): 0 %, 12.5 %, 25 %, 50 %.
pub const RATES: [u32; 4] = [0, 32, 64, 128];

/// Run the squash-rate sweep on experiment F with a streaming kernel.
///
/// # Errors
///
/// Returns [`MembwError::InvariantViolation`] under `--audit strict` if
/// any decomposition breaks the §3 identities.
pub fn run() -> Result<(Vec<SpeculationCell>, Table), MembwError> {
    let spec = MachineSpec::spec92(Experiment::F);
    // Big enough that wrong-path loads miss beyond the L1.
    let base = Tomcatv::new(96, 2);
    let mut cells = Vec::new();
    let mut audit = Auditor::new("speculation");
    for rate in RATES {
        let w = Squashing::new(base.clone(), 256, rate, 11);
        let d = decompose(&w, &spec);
        audit.decomposition(&format!("squash {rate}/256"), &d);
        cells.push(SpeculationCell {
            squash_per_256: rate,
            memory_traffic: d.full_mem.memory_traffic,
            cycles: d.t,
            f_b: d.f_b,
        });
    }
    audit.finish()?;
    let mut table = Table::new(
        "Coarse-grained speculation: squash rate vs traffic (experiment F, tomcatv kernel)",
        ["Squash %", "Memory traffic KB", "Cycles", "f_B"]
            .map(String::from)
            .to_vec(),
    );
    for c in &cells {
        table.row(vec![
            format!("{:.1}", f64::from(c.squash_per_256) / 2.56),
            (c.memory_traffic / 1024).to_string(),
            c.cycles.to_string(),
            format!("{:.2}", c.f_b),
        ]);
    }
    Ok((cells, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squashing_increases_traffic_monotonically() {
        let (cells, table) = run().expect("audit passes");
        assert_eq!(table.num_rows(), RATES.len());
        for pair in cells.windows(2) {
            assert!(
                pair[1].memory_traffic >= pair[0].memory_traffic,
                "traffic must grow with squash rate: {} -> {}",
                pair[0].memory_traffic,
                pair[1].memory_traffic
            );
        }
        let first = &cells[0];
        let last = &cells[cells.len() - 1];
        assert!(
            last.memory_traffic > first.memory_traffic,
            "50% squashes must move more bytes"
        );
        assert!(last.cycles > first.cycles, "squashes cost time too");
    }

    #[test]
    fn finished_simulations_advance_the_uops_counter() {
        use crate::runner::counters::{self, Counter};
        let before = counters::get(Counter::Uops);
        run().expect("audit passes");
        assert!(
            counters::get(Counter::Uops) > before,
            "the timing table's Uops/s column reads this counter"
        );
    }
}
