//! Effective pin bandwidth per benchmark (Eq. 5, §4): the two-level
//! traffic-ratio product applied to a real package budget.
//!
//! The paper computes `E_pin = B_pin / (R₁ · R₂)` for on-chip hierarchies;
//! here we run each SPEC92 benchmark through the experiment-A cache pair
//! (treating both levels as on-chip, as the paper's future-processor
//! discussion assumes) and report what an 800 MB/s package delivers
//! *effectively*, plus the Eq. 7 upper bound using the same-size MTC.

use crate::audit::Auditor;
use crate::error::MembwError;
use crate::report::Table;
use membw_analytic::{effective_pin_bandwidth, upper_bound_epin};
use membw_cache::{CacheConfig, Hierarchy};
use membw_mtc::{MinCache, MinConfig};
use membw_trace::MemRef;
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// One benchmark's effective-bandwidth accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpinRow {
    /// Benchmark name.
    pub name: String,
    /// L1 traffic ratio `R₁`.
    pub r1: f64,
    /// L2 traffic ratio `R₂`.
    pub r2: f64,
    /// Effective pin bandwidth in MB/s for an 800 MB/s package (Eq. 5).
    pub epin_mb_s: f64,
    /// Traffic inefficiency of the combined hierarchy vs. an MTC of the
    /// total on-chip capacity.
    pub g: f64,
    /// Eq. 7 upper bound in MB/s.
    pub oe_pin_mb_s: f64,
}

/// Package bandwidth assumed (MB/s) — a 1996-class part.
pub const B_PIN: f64 = 800.0;

/// Run the Eq. 5 / Eq. 7 accounting over the SPEC92 suite at `scale`.
///
/// Uses a 64 KiB/32 B L1 and 1 MiB/64 B 4-way L2 (the Table 4 pair with
/// the L1 sized to its on-chip era).
///
/// # Errors
///
/// Returns [`MembwError::InvariantViolation`] under `--audit strict` if
/// any row breaks the Eq. 5–7 identities.
pub fn run(scale: Scale) -> Result<(Vec<EpinRow>, Table), MembwError> {
    let l1 = CacheConfig::builder(64 * 1024, 32).build().expect("valid");
    let l2 = CacheConfig::builder(1024 * 1024, 64)
        .associativity(membw_cache::Associativity::Ways(4))
        .build()
        .expect("valid");
    let total_capacity = l1.size_bytes() + l2.size_bytes();
    // MTC capacities must be powers of two; use the dominant L2 size.
    let mtc_capacity = (total_capacity as f64).log2().floor().exp2() as u64;

    let mut rows = Vec::new();
    for b in suite92(scale) {
        let refs: Vec<MemRef> = b.workload().collect_mem_refs();
        let mut h = Hierarchy::new(vec![l1, l2]);
        for &r in &refs {
            h.access(r);
        }
        h.flush();
        let ratios = h.traffic_ratios();
        let (r1, r2) = (ratios[0].max(1e-9), ratios[1].max(1e-9));
        let epin = effective_pin_bandwidth(B_PIN, &[r1, r2]);
        let mtc = MinCache::simulate(&MinConfig::mtc(mtc_capacity), &refs);
        let g = if mtc.traffic_below() == 0 {
            1.0
        } else {
            (h.memory_traffic() as f64 / mtc.traffic_below() as f64).max(1.0)
        };
        // Fold the combined-hierarchy inefficiency into a single level
        // for the bound (G of the product, not per level).
        let oe = upper_bound_epin(B_PIN, &[r1 * r2], &[g]);
        rows.push(EpinRow {
            name: b.name().to_string(),
            r1,
            r2,
            epin_mb_s: epin,
            g,
            oe_pin_mb_s: oe,
        });
    }

    let mut audit = Auditor::new("epin");
    for r in &rows {
        audit.traffic_ratio(&format!("{} R1", r.name), r.r1);
        audit.traffic_ratio(&format!("{} R2", r.name), r.r2);
        audit.inefficiency(&r.name, r.g);
        audit.positive(&r.name, "E_pin (Eq. 5)", r.epin_mb_s);
        audit.positive(&r.name, "OE_pin (Eq. 7)", r.oe_pin_mb_s);
    }
    audit.finish()?;

    let mut table = Table::new(
        format!("Effective pin bandwidth (Eq. 5/7), B_pin = {B_PIN} MB/s, 64KB L1 + 1MB L2"),
        ["Benchmark", "R1", "R2", "E_pin MB/s", "G", "OE_pin MB/s"]
            .map(String::from)
            .to_vec(),
    );
    for r in &rows {
        table.row(vec![
            r.name.clone(),
            format!("{:.2}", r.r1),
            format!("{:.2}", r.r2),
            format!("{:.0}", r.epin_mb_s),
            format!("{:.1}", r.g),
            format!("{:.0}", r.oe_pin_mb_s),
        ]);
    }
    Ok((rows, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epin_accounting_is_consistent() {
        let (rows, table) = run(Scale::Test).expect("audit passes");
        assert_eq!(table.num_rows(), 7);
        for r in &rows {
            // Eq. 5 arithmetic must hold.
            let expect = B_PIN / (r.r1 * r.r2);
            assert!((r.epin_mb_s - expect).abs() < 1e-6, "{}", r.name);
            // The bound is never below the achieved value.
            assert!(
                r.oe_pin_mb_s >= r.epin_mb_s - 1e-6,
                "{}: OE {} < E {}",
                r.name,
                r.oe_pin_mb_s,
                r.epin_mb_s
            );
            assert!(r.g >= 1.0);
        }
    }

    #[test]
    fn filtering_workloads_see_amplified_bandwidth() {
        let (rows, _) = run(Scale::Test).expect("audit passes");
        // At least one cache-friendly benchmark must see E_pin well above
        // the raw package (espresso's tiny working set filters ~all
        // traffic).
        assert!(
            rows.iter().any(|r| r.epin_mb_s > 2.0 * B_PIN),
            "some benchmark should amplify effective bandwidth"
        );
    }
}
