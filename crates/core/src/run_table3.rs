//! Table 3: benchmark trace lengths and inputs — the paper's inventory
//! next to this reproduction's scaled instances.

use crate::audit::Auditor;
use crate::error::MembwError;
use crate::report::Table;
use membw_trace::sink::CountSink;
use membw_workloads::{suite92, suite95, Scale};
use serde::Serialize;

/// One benchmark's paper-vs-ours bookkeeping.
///
/// (`Serialize` only: rebuilt from the compiled-in suites every run,
/// never reloaded from an archive.)
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Suite label (`SPEC92`/`SPEC95`).
    pub suite: &'static str,
    /// Paper's traced references, millions.
    pub paper_refs_millions: f64,
    /// Paper's data-set size, MB.
    pub paper_dataset_mb: f64,
    /// Our instance's memory references, millions.
    pub our_refs_millions: f64,
    /// Our instance's declared footprint, MB.
    pub our_footprint_mb: f64,
}

/// Regenerate Table 3 at `scale`.
///
/// # Errors
///
/// Returns [`MembwError::InvariantViolation`] under `--audit strict` if
/// any benchmark traced nothing or declares an empty footprint.
pub fn run(scale: Scale) -> Result<(Vec<Table3Row>, Table), MembwError> {
    let mut rows = Vec::new();
    for b in suite92(scale).iter().chain(suite95(scale).iter()) {
        let mut c = CountSink::new();
        b.workload().generate(&mut c);
        rows.push(Table3Row {
            name: b.name().to_string(),
            suite: match b.suite() {
                membw_workloads::Suite::Spec92 => "SPEC92",
                membw_workloads::Suite::Spec95 => "SPEC95",
            },
            paper_refs_millions: b.paper_refs_millions,
            paper_dataset_mb: b.paper_dataset_mb,
            our_refs_millions: c.mem_refs() as f64 / 1e6,
            our_footprint_mb: b.footprint_bytes as f64 / (1024.0 * 1024.0),
        });
    }

    let mut audit = Auditor::new("table3");
    for r in &rows {
        audit.positive(&r.name, "traced references", r.our_refs_millions);
        audit.positive(&r.name, "declared footprint", r.our_footprint_mb);
    }
    audit.finish()?;

    let mut table = Table::new(
        format!("Table 3: benchmark inventory ({scale:?} scale; paper vs. this reproduction)"),
        [
            "Benchmark",
            "Suite",
            "Paper refs (M)",
            "Paper data (MB)",
            "Our refs (M)",
            "Our data (MB)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for r in &rows {
        table.row(vec![
            r.name.clone(),
            r.suite.to_string(),
            format!("{:.1}", r.paper_refs_millions),
            format!("{:.2}", r.paper_dataset_mb),
            format!("{:.2}", r.our_refs_millions),
            format!("{:.2}", r.our_footprint_mb),
        ]);
    }
    Ok((rows, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_all_fourteen_benchmarks() {
        let (rows, table) = run(Scale::Test).expect("audit passes");
        assert_eq!(rows.len(), 14);
        assert_eq!(table.num_rows(), 14);
        for r in &rows {
            assert!(r.our_refs_millions > 0.0, "{} traced nothing", r.name);
        }
    }
}
