//! Tables 9–10: isolating the factors behind the traffic-inefficiency
//! gap (associativity, replacement, block size ×2, write-validate).

use crate::audit::Auditor;
use crate::error::{sweep_jobs, MembwError};
use crate::report::Table;
use membw_mtc::factors::{FactorGap, TABLE10_FACTORS};
use membw_sweep::SweepMode;
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// The Table 9 grid: per factor, per benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table9Result {
    /// One entry per (factor, benchmark) cell.
    pub gaps: Vec<FactorGap>,
    /// Capacity used per benchmark (64 KiB; 16 KiB for espresso).
    pub capacities: Vec<(String, u64)>,
}

/// Capacity per benchmark: 64 KiB, except espresso's 16 KiB (its data
/// set is tiny — Table 9's caption).
pub fn capacity_for(name: &str) -> u64 {
    if name == "espresso" {
        16 * 1024
    } else {
        64 * 1024
    }
}

/// Regenerate Table 9 at `scale` with the default sweep engine
/// ([`SweepMode::Stack`]).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any job ultimately failed (after
/// the configured retry budget).
pub fn run(scale: Scale) -> Result<(Table9Result, Vec<Table>), MembwError> {
    run_with(scale, SweepMode::default())
}

/// Regenerate Table 9 at `scale` with an explicit sweep engine,
/// including the Table 10 experiment definitions in the rendered
/// output.
///
/// One job per benchmark. In stack mode it computes all five factors in
/// one [`membw_mtc::factors::factor_gaps`] shot (shared trace
/// collection, shared next-use indices, each of the six unique
/// experiments simulated once); in direct mode it measures each factor
/// from scratch. The merged `gaps` come out benchmark-major,
/// factor-minor, with identical values, in both modes. Jobs are
/// fault-isolated and checkpointed under the batch label `table9` (the
/// key encodes the sweep mode).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any job ultimately failed (after
/// the configured retry budget).
pub fn run_with(scale: Scale, mode: SweepMode) -> Result<(Table9Result, Vec<Table>), MembwError> {
    let suite = suite92(scale);
    let capacities: Vec<(String, u64)> = suite
        .iter()
        .map(|b| (b.name().to_string(), capacity_for(b.name())))
        .collect();
    let key = format!("v2/table9/{scale:?}/{mode}/{}", suite.len());
    let mut audit = Auditor::new("table9");
    let gaps: Vec<FactorGap> = sweep_jobs(
        "table9",
        &key,
        suite.len(),
        mode,
        &mut audit,
        |i, mode| {
            let b = &suite[i];
            mode.factor_gaps(&b.replayable(), capacity_for(b.name()))
        },
        |i| suite[i].name().to_string(),
    )?
    .into_iter()
    .flatten()
    .flatten()
    .collect();

    for g in &gaps {
        let cell = format!("{}/{}", g.workload, g.factor);
        // Both endpoints of a factor gap are Eq. 6 inefficiencies.
        audit.inefficiency(&cell, g.g_exp1);
        audit.inefficiency(&cell, g.g_exp2);
    }
    audit.finish()?;

    // Table 9: rows = factors, columns = benchmarks.
    let mut headers = vec!["Factor".to_string()];
    headers.extend(suite.iter().map(|b| b.name().to_string()));
    let mut t9 = Table::new(
        "Table 9: inefficiency gap G(exp1) - G(exp2) per factor (64KB; espresso 16KB)",
        headers,
    );
    for spec in &TABLE10_FACTORS {
        let mut cells = vec![spec.name.to_string()];
        for b in &suite {
            let v = gaps
                .iter()
                .find(|g| g.factor == spec.name && g.workload == b.name())
                .map(|g| format!("{:.1}", g.delta()))
                .unwrap_or_else(|| "-".to_string());
            cells.push(v);
        }
        t9.row(cells);
    }

    let mut t10 = Table::new(
        "Table 10: experimental parameters per factor",
        ["Factor", "Exp1", "Exp2"].map(String::from).to_vec(),
    );
    for spec in &TABLE10_FACTORS {
        t10.row(vec![
            spec.name.to_string(),
            spec.exp1.label(),
            spec.exp2.label(),
        ]);
    }

    Ok((Table9Result { gaps, capacities }, vec![t9, t10]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_factors_by_benchmarks() {
        let (res, tables) = run(Scale::Test).expect("no faults injected");
        assert_eq!(res.gaps.len(), 5 * 7);
        assert_eq!(tables[0].num_rows(), 5);
        assert_eq!(tables[1].num_rows(), 5);
    }

    #[test]
    fn block_size_is_a_consistently_large_factor() {
        // The paper: "The factor that makes the largest consistent
        // contribution to traffic reduction... is reduction of block
        // size." Check it is the max-mean factor across benchmarks.
        let (res, _) = run(Scale::Test).expect("no faults injected");
        let mean = |name: &str| {
            let xs: Vec<f64> = res
                .gaps
                .iter()
                .filter(|g| g.factor == name)
                .map(|g| g.delta())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let block = mean("Blocksize (cache)");
        let replacement = mean("Replacement");
        assert!(
            block > replacement,
            "block-size gap ({block}) should exceed replacement ({replacement})"
        );
    }

    #[test]
    fn espresso_uses_the_small_capacity() {
        let (res, _) = run(Scale::Test).expect("no faults injected");
        let esp = res
            .capacities
            .iter()
            .find(|(n, _)| n == "espresso")
            .expect("espresso present");
        assert_eq!(esp.1, 16 * 1024);
    }
}
