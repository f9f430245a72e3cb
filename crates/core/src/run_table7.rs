//! Table 7: traffic ratios for 32-byte-block direct-mapped caches,
//! 1 KB – 2 MB, over the SPEC92 workloads — plus the Eq. 5 effective
//! pin bandwidth they imply.

use crate::audit::Auditor;
use crate::error::{sweep_jobs, MembwError};
use crate::report::{size_label, Table};
use membw_analytic::effective_pin_bandwidth;
use membw_sweep::{SweepMode, SweepSpec};
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// The cache sizes of Table 7's columns.
pub const SIZES: [u64; 12] = [
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
];

/// One benchmark's row: the traffic ratio per cache size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7Row {
    /// Benchmark name.
    pub name: String,
    /// Footprint used for the `<<<` marking.
    pub footprint_bytes: u64,
    /// `(cache_bytes, ratio)`; ratio is `None` for `<<<` cells.
    pub ratios: Vec<(u64, Option<f64>)>,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7Result {
    /// Per-benchmark rows.
    pub rows: Vec<Table7Row>,
    /// Mean traffic ratio over cells with size ≥ 64 KiB and below the
    /// benchmark's data-set size (the paper reports 0.51).
    pub mean_reasonable_ratio: f64,
    /// Eq. 5: effective pin bandwidth for a nominal 800 MB/s package at
    /// the mean ratio.
    pub effective_pin_bandwidth_mb_s: f64,
}

fn row_for(b: &membw_workloads::Benchmark, mode: SweepMode) -> Table7Row {
    let ratios = SIZES
        .iter()
        .zip(mode.lru(&SweepSpec::new(32), &SIZES, &b.replayable()))
        .map(|(&size, stats)| {
            let stats = stats.expect("1KB-2MB direct-mapped 32B-block geometries are valid");
            let oversized = size >= b.footprint_bytes;
            (
                size,
                if oversized {
                    None
                } else {
                    stats.traffic_ratio()
                },
            )
        })
        .collect();
    Table7Row {
        name: b.name().to_string(),
        footprint_bytes: b.footprint_bytes,
        ratios,
    }
}

/// Regenerate Table 7 at `scale` with the default sweep engine
/// ([`SweepMode::Stack`]).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any benchmark's job ultimately
/// failed (after the configured retry budget).
pub fn run(scale: Scale) -> Result<(Table7Result, Table), MembwError> {
    run_with(scale, SweepMode::default())
}

/// Regenerate Table 7 at `scale` with an explicit sweep engine.
///
/// One run-engine job per benchmark; each replays the shared trace and
/// owns the whole size sweep — one trace pass in stack mode, twelve in
/// direct mode, identical output either way. Rows merge in suite order.
/// Jobs are fault-isolated and checkpointed under the batch label
/// `table7` (the key encodes the sweep mode).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any benchmark's job ultimately
/// failed (after the configured retry budget).
pub fn run_with(scale: Scale, mode: SweepMode) -> Result<(Table7Result, Table), MembwError> {
    let suite = suite92(scale);
    let key = format!("v2/table7/{scale:?}/{mode}/{}", suite.len());
    let mut audit = Auditor::new("table7");
    let rows: Vec<Table7Row> = sweep_jobs(
        "table7",
        &key,
        suite.len(),
        mode,
        &mut audit,
        |i, mode| {
            // Stream the shared recording through the sweep.
            row_for(&suite[i], mode)
        },
        |i| suite[i].name().to_string(),
    )?;
    for r in &rows {
        for (size, ratio) in &r.ratios {
            if let Some(ratio) = ratio {
                audit.traffic_ratio(&format!("{} @ {}", r.name, size_label(*size)), *ratio);
            }
        }
    }

    let reasonable: Vec<f64> = rows
        .iter()
        .flat_map(|r| {
            r.ratios
                .iter()
                .filter(|(s, v)| *s >= 64 * 1024 && v.is_some())
                .map(|(_, v)| v.expect("filtered"))
        })
        .collect();
    let mean = if reasonable.is_empty() {
        0.0
    } else {
        reasonable.iter().sum::<f64>() / reasonable.len() as f64
    };
    let result = Table7Result {
        rows,
        mean_reasonable_ratio: mean,
        effective_pin_bandwidth_mb_s: if mean > 0.0 {
            effective_pin_bandwidth(800.0, &[mean])
        } else {
            800.0
        },
    };
    audit.positive(
        "summary",
        "effective pin bandwidth (Eq. 5)",
        result.effective_pin_bandwidth_mb_s,
    );
    audit.finish()?;

    let mut headers = vec!["Trace".to_string()];
    headers.extend(SIZES.iter().map(|&s| size_label(s)));
    let mut table = Table::new(
        format!(
            "Table 7: traffic ratios, 32B-block direct-mapped (mean >=64KB cells: {:.2}; E_pin @800MB/s = {:.0} MB/s)",
            result.mean_reasonable_ratio, result.effective_pin_bandwidth_mb_s
        ),
        headers,
    );
    for r in &result.rows {
        let mut cells = vec![r.name.clone()];
        cells.extend(r.ratios.iter().map(|(_, v)| match v {
            Some(x) => format!("{x:.2}"),
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
    fn ratios_behave_like_the_paper() {
        let (res, table) = run(Scale::Test).expect("no faults injected");
        assert_eq!(table.num_rows(), 7);
        // Small caches exceed R=1 for at least one low-locality code.
        let any_over_one = res.rows.iter().any(|r| {
            r.ratios
                .iter()
                .take(3)
                .any(|(_, v)| v.is_some_and(|x| x > 1.0))
        });
        assert!(
            any_over_one,
            "1-4KB caches should out-traffic no-cache somewhere"
        );
        // Ratios never negative; oversized cells marked.
        for r in &res.rows {
            for (s, v) in &r.ratios {
                if *s >= r.footprint_bytes {
                    assert!(v.is_none(), "{}: {s} should be <<<", r.name);
                }
            }
        }
        assert!(res.mean_reasonable_ratio >= 0.0);
    }
}
