//! Table 8: traffic inefficiencies (`G`, Eq. 6) for 32-byte-block
//! direct-mapped caches against same-size MTCs — plus the Eq. 7 upper
//! bound on effective pin bandwidth.

use crate::audit::Auditor;
use crate::error::{sweep_jobs, MembwError};
use crate::report::{size_label, Table};
use crate::run_table7::SIZES;
use membw_analytic::upper_bound_epin;
use membw_mtc::MinConfig;
use membw_sweep::{SweepMode, SweepSpec};
use membw_trace::Workload;
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// One benchmark's row: `G` per cache size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table8Row {
    /// Benchmark name.
    pub name: String,
    /// Footprint used for the `<<<` marking.
    pub footprint_bytes: u64,
    /// `(cache_bytes, G)`; `None` for `<<<` cells.
    pub inefficiencies: Vec<(u64, Option<f64>)>,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table8Result {
    /// Per-benchmark rows.
    pub rows: Vec<Table8Row>,
    /// Largest `G` observed outside `<<<` cells (the paper: up to two
    /// orders of magnitude).
    pub max_g: f64,
    /// Eq. 7 bound for a nominal 800 MB/s package, R = 0.5, at the
    /// median observed `G`.
    pub oe_pin_at_median_g: f64,
}

/// `(cache_traffic, mtc_traffic)` per *included* size (below the
/// footprint), by the engines `mode` chooses.
fn row_traffic(workload: &dyn Workload, included: &[u64], mode: SweepMode) -> Vec<(u64, u64)> {
    let cache = mode.lru(&SweepSpec::new(32), included, workload);
    let cfgs: Vec<MinConfig> = included.iter().map(|&s| MinConfig::mtc(s)).collect();
    let mtc = mode.min(&cfgs, workload);
    cache
        .into_iter()
        .zip(mtc)
        .map(|(c, m)| {
            let c = c.expect("1KB-2MB direct-mapped 32B-block geometries are valid");
            (c.traffic_below(), m.traffic_below())
        })
        .collect()
}

fn row_for(b: &membw_workloads::Benchmark, mode: SweepMode) -> Table8Row {
    let included: Vec<u64> = SIZES
        .iter()
        .copied()
        .filter(|&s| s < b.footprint_bytes)
        .collect();
    let mut traffic = row_traffic(b.workload(), &included, mode).into_iter();
    let mut inefficiencies = Vec::new();
    for &size in &SIZES {
        if size >= b.footprint_bytes {
            inefficiencies.push((size, None));
            continue;
        }
        let (cache_traffic, mtc_traffic) =
            traffic.next().expect("one traffic pair per included size");
        let g = if mtc_traffic == 0 {
            None
        } else {
            Some(cache_traffic as f64 / mtc_traffic as f64)
        };
        inefficiencies.push((size, g));
    }
    Table8Row {
        name: b.name().to_string(),
        footprint_bytes: b.footprint_bytes,
        inefficiencies,
    }
}

/// Regenerate Table 8 at `scale` with the default sweep engine
/// ([`SweepMode::Stack`]).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any benchmark's job ultimately
/// failed (after the configured retry budget).
pub fn run(scale: Scale) -> Result<(Table8Result, Table), MembwError> {
    run_with(scale, SweepMode::default())
}

/// Regenerate Table 8 at `scale` with an explicit sweep engine.
///
/// One run-engine job per benchmark (the generator streamed,
/// never collected, with the whole size sweep inside — three passes in
/// stack mode, one LRU and two **min** per size in direct mode,
/// identical output either way); `all_g` is
/// rebuilt from the merged rows in canonical benchmark-major,
/// size-major order. Jobs are fault-isolated and checkpointed under
/// the batch label `table8` (the key encodes the sweep mode).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any benchmark's job ultimately
/// failed (after the configured retry budget).
pub fn run_with(scale: Scale, mode: SweepMode) -> Result<(Table8Result, Table), MembwError> {
    let suite = suite92(scale);
    let key = format!("v2/table8/{scale:?}/{mode}/{}", suite.len());
    let mut audit = Auditor::new("table8");
    let rows: Vec<Table8Row> = sweep_jobs(
        "table8",
        &key,
        suite.len(),
        mode,
        &mut audit,
        |i, mode| row_for(&suite[i], mode),
        |i| suite[i].name().to_string(),
    )?;
    for r in &rows {
        for (size, g) in &r.inefficiencies {
            if let Some(g) = g {
                audit.inefficiency(&format!("{} @ {}", r.name, size_label(*size)), *g);
            }
        }
    }

    let mut all_g: Vec<f64> = rows
        .iter()
        .flat_map(|r| r.inefficiencies.iter().filter_map(|(_, g)| *g))
        .collect();
    all_g.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let max_g = all_g.last().copied().unwrap_or(1.0);
    let median_g = if all_g.is_empty() {
        1.0
    } else {
        all_g[all_g.len() / 2].max(1.0)
    };
    let result = Table8Result {
        rows,
        max_g,
        oe_pin_at_median_g: upper_bound_epin(800.0, &[0.5], &[median_g]),
    };
    audit.positive("summary", "OE_pin bound (Eq. 7)", result.oe_pin_at_median_g);
    audit.finish()?;

    let mut headers = vec!["Trace".to_string()];
    headers.extend(SIZES.iter().map(|&s| size_label(s)));
    let mut table = Table::new(
        format!(
            "Table 8: traffic inefficiencies vs same-size MTC (max G = {:.1}; OE_pin @800MB/s,R=0.5,median G = {:.0} MB/s)",
            result.max_g, result.oe_pin_at_median_g
        ),
        headers,
    );
    for r in &result.rows {
        let mut cells = vec![r.name.clone()];
        cells.extend(r.inefficiencies.iter().map(|(_, v)| match v {
            Some(g) => format!("{g:.1}"),
            None => "<<<".to_string(),
        }));
        table.row(cells);
    }
    Ok((result, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inefficiencies_are_at_least_one_and_sizable() {
        let (res, table) = run(Scale::Test).expect("no faults injected");
        assert_eq!(table.num_rows(), 7);
        for r in &res.rows {
            for (s, g) in &r.inefficiencies {
                if let Some(g) = g {
                    assert!(
                        *g >= 0.99,
                        "{} @ {s}: G = {g} must be >= 1 (MTC is a lower bound)",
                        r.name
                    );
                }
            }
        }
        // The gap should be substantial somewhere (paper: 2–100).
        assert!(res.max_g > 3.0, "max G = {}", res.max_g);
    }
}
