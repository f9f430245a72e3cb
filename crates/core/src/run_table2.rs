//! Table 2: application growth rates — the analytic `C/D` laws, checked
//! against *measured* minimal traffic from the MTC simulator.
//!
//! For each algorithm we run the real kernel (from
//! `membw_workloads::kernels`) through Belady-managed caches of size `S`
//! and `4S` and compare the measured `C/D` gain to the analytic
//! prediction (`√4 = 2` for TMM/Stencil, `log₂`-law for FFT/Sort).

use crate::audit::Auditor;
use crate::error::MembwError;
use crate::report::Table;
use membw_analytic::growth::Algorithm;
use membw_mtc::{MinCache, MinConfig, MinWritePolicy};
use membw_trace::Workload;
use membw_workloads::kernels::{Fft, MergeSort, TiledMatMul, TimeTiledStencil};
use serde::{Deserialize, Serialize};

/// One algorithm's analytic-vs-measured comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Algorithm name.
    pub name: String,
    /// Table 2's symbolic `C/D` gain.
    pub gain_label: String,
    /// Analytic `C/D` gain for `S → 4S`.
    pub predicted_gain: f64,
    /// Measured gain: traffic(S) / traffic(4S) at fixed computation.
    pub measured_gain: f64,
}

fn mtc_traffic(w: &dyn Workload, capacity_bytes: u64) -> u64 {
    let cfg = MinConfig::new(capacity_bytes, 4, MinWritePolicy::Allocate, true);
    MinCache::simulate_workload(&cfg, w).traffic_below()
}

/// Regenerate Table 2: analytic columns plus the empirical check at
/// on-chip size `s_bytes → 4·s_bytes`.
///
/// # Errors
///
/// Returns [`MembwError::InvariantViolation`] under `--audit strict` if
/// any gain column is non-positive or non-finite.
///
/// # Panics
///
/// Panics if `s_bytes` is not a power of two (MTC requirement).
pub fn run(s_bytes: u64) -> Result<(Vec<Table2Row>, Table), MembwError> {
    let s_elems = (s_bytes / 4) as f64;
    // Problem sizes chosen so footprints comfortably exceed 4·S.
    let tmm_n = 48u64;
    let stencil_n = 128u64;
    let fft_log2 = 12u32;
    let sort_n = 1u64 << 13;

    // For TMM the schedule must adapt to S (that is the whole point of
    // tiling): pick tile ≈ √(S/3 words).
    let tile = |s: u64| (((s / 4) as f64 / 3.0).sqrt() as u64).clamp(2, tmm_n);
    let rows = vec![
        {
            let t1 = mtc_traffic(&TiledMatMul::new(tmm_n, tile(s_bytes)), s_bytes);
            let t4 = mtc_traffic(&TiledMatMul::new(tmm_n, tile(4 * s_bytes)), 4 * s_bytes);
            Table2Row {
                name: "TMM".into(),
                gain_label: Algorithm::Tmm.gain_label().into(),
                predicted_gain: Algorithm::Tmm.cd_gain(tmm_n as f64, s_elems, 4.0),
                measured_gain: t1 as f64 / t4 as f64,
            }
        },
        {
            // The stencil law presumes a time-tiled schedule adapted to
            // S, just as TMM presumes tiling.
            // tile = sqrt(S/8 words): a (2·tile)² halo'd region on two
            // planes is exactly S bytes.
            let stile = |s: u64| (((s / 4) as f64 / 8.0).sqrt() as u64).clamp(2, stencil_n);
            let t1 = mtc_traffic(
                &TimeTiledStencil::new(stencil_n, 8, stile(s_bytes)),
                s_bytes,
            );
            let t4 = mtc_traffic(
                &TimeTiledStencil::new(stencil_n, 8, stile(4 * s_bytes)),
                4 * s_bytes,
            );
            Table2Row {
                name: "Stencil".into(),
                gain_label: Algorithm::Stencil.gain_label().into(),
                predicted_gain: Algorithm::Stencil.cd_gain(stencil_n as f64, s_elems, 4.0),
                measured_gain: t1 as f64 / t4 as f64,
            }
        },
        {
            let w = Fft::new(fft_log2);
            let t1 = mtc_traffic(&w, s_bytes);
            let t4 = mtc_traffic(&w, 4 * s_bytes);
            Table2Row {
                name: "FFT".into(),
                gain_label: Algorithm::Fft.gain_label().into(),
                predicted_gain: Algorithm::Fft.cd_gain((1u64 << fft_log2) as f64, s_elems, 4.0),
                measured_gain: t1 as f64 / t4 as f64,
            }
        },
        {
            let w = MergeSort::new(sort_n, 2);
            let t1 = mtc_traffic(&w, s_bytes);
            let t4 = mtc_traffic(&w, 4 * s_bytes);
            Table2Row {
                name: "Sort".into(),
                gain_label: Algorithm::Sort.gain_label().into(),
                predicted_gain: Algorithm::Sort.cd_gain(sort_n as f64, s_elems, 4.0),
                measured_gain: t1 as f64 / t4 as f64,
            }
        },
    ];

    let mut audit = Auditor::new("table2");
    for r in &rows {
        audit.positive(&r.name, "predicted C/D gain", r.predicted_gain);
        audit.positive(&r.name, "measured C/D gain", r.measured_gain);
    }
    audit.finish()?;

    let mut table = Table::new(
        format!(
            "Table 2: application growth rates (C/D gain for S = {} -> {} bytes, k = 4)",
            s_bytes,
            4 * s_bytes
        ),
        ["Algorithm", "C/D gain", "Predicted (k=4)", "Measured"]
            .map(String::from)
            .to_vec(),
    );
    for r in &rows {
        table.row(vec![
            r.name.clone(),
            r.gain_label.clone(),
            format!("{:.2}", r.predicted_gain),
            format!("{:.2}", r.measured_gain),
        ]);
    }
    Ok((rows, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_gains_track_the_analytic_laws() {
        let (rows, _) = run(1024).expect("audit passes");
        let tmm = &rows[0];
        // √4 = 2: the measured tiled-MM gain should land near 2 (the
        // compulsory N² term and tile rounding blur it).
        assert!(
            (1.3..3.0).contains(&tmm.measured_gain),
            "TMM gain = {}",
            tmm.measured_gain
        );
        let fft = &rows[2];
        // log-law: much smaller gain than TMM.
        assert!(
            fft.measured_gain < tmm.measured_gain,
            "FFT {} vs TMM {}",
            fft.measured_gain,
            tmm.measured_gain
        );
        for r in &rows {
            assert!(
                r.measured_gain >= 0.95,
                "{}: more memory must not increase minimal traffic (gain {})",
                r.name,
                r.measured_gain
            );
        }
    }
}
