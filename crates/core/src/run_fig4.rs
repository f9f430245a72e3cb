//! Figure 4: total traffic vs. cache (and MTC) size, log-log, for
//! Compress, Eqntott, and Swm — 4-way set-associative caches with block
//! sizes 4 B – 128 B, plus the write-allocate and write-validate MTCs.

use crate::audit::Auditor;
use crate::error::{sweep_jobs, MembwError};
use crate::report::{size_label, Table};
use membw_cache::Associativity;
use membw_mtc::{MinConfig, MinWritePolicy};
use membw_sweep::{SweepMode, SweepSpec};
use membw_trace::Workload;
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// The block sizes of the figure's six cache curves.
pub const BLOCK_SIZES: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// One curve: traffic (bytes) per cache size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// Curve label (`"32B blocks"`, `"MTC write-validate"`, …).
    pub label: String,
    /// `(capacity_bytes, traffic_bytes)` points; capacities where the
    /// geometry is invalid (block × 4 ways > size) are omitted.
    pub points: Vec<(u64, u64)>,
}

/// One benchmark's panel of Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Panel {
    /// Benchmark name.
    pub name: String,
    /// Six cache curves plus the two MTC curves.
    pub curves: Vec<Curve>,
}

/// Cache sizes swept (64 B – 4 MB, the figure's x-axis).
pub fn sizes() -> Vec<u64> {
    (6..=22).map(|p| 1u64 << p).collect()
}

/// The `(capacity, traffic)` points of one curve, by the engine `mode`
/// chooses; capacities whose geometry is invalid are omitted.
fn curve_points(workload: &dyn Workload, spec: &CurveSpec, mode: SweepMode) -> Vec<(u64, u64)> {
    let caps = sizes();
    match *spec {
        CurveSpec::Cache { block } => {
            let sweep = SweepSpec::new(block).associativity(Associativity::Ways(4));
            mode.lru(&sweep, &caps, workload)
                .into_iter()
                .zip(caps)
                .filter_map(|(stats, s)| stats.map(|st| (s, st.traffic_below())))
                .collect()
        }
        CurveSpec::Mtc { write } => {
            let cfgs: Vec<MinConfig> = caps
                .iter()
                .map(|&s| MinConfig::new(s, 4, write, true))
                .collect();
            mode.min(&cfgs, workload)
                .into_iter()
                .zip(caps)
                .map(|(st, s)| (s, st.traffic_below()))
                .collect()
        }
    }
}

/// The curves of one Figure 4 panel: six cache block sizes, then the
/// two MTC write policies.
#[derive(Debug, Clone, Copy)]
enum CurveSpec {
    Cache { block: u64 },
    Mtc { write: MinWritePolicy },
}

impl CurveSpec {
    fn all() -> Vec<CurveSpec> {
        let mut v: Vec<CurveSpec> = BLOCK_SIZES
            .iter()
            .map(|&block| CurveSpec::Cache { block })
            .collect();
        v.push(CurveSpec::Mtc {
            write: MinWritePolicy::Allocate,
        });
        v.push(CurveSpec::Mtc {
            write: MinWritePolicy::Validate,
        });
        v
    }

    fn label(&self) -> String {
        match self {
            CurveSpec::Cache { block } => format!("{block}B blocks"),
            CurveSpec::Mtc {
                write: MinWritePolicy::Allocate,
            } => "MTC write-allocate".to_string(),
            CurveSpec::Mtc {
                write: MinWritePolicy::Validate,
            } => "MTC write-validate".to_string(),
        }
    }
}

/// Regenerate Figure 4 at `scale` for the three panel benchmarks, with
/// the default sweep engine ([`SweepMode::Stack`]).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any (panel, curve) job ultimately
/// failed (after the configured retry budget).
pub fn run(scale: Scale) -> Result<(Vec<Fig4Panel>, Vec<Table>), MembwError> {
    run_with(scale, SweepMode::default())
}

/// Regenerate Figure 4 at `scale` with an explicit sweep engine.
///
/// One run-engine job per (panel, curve) — 3 × 8 — each regenerating
/// the panel's trace; curves merge back panel-major in the figure's
/// fixed curve order. Jobs are fault-isolated and checkpointed under
/// the batch label `fig4` (the key encodes the sweep mode). Every job
/// streams the panel's generator and never collects it. In
/// stack mode each cache curve is one [`membw_sweep::sweep_lru`] pass
/// and each MTC curve one [`membw_mtc::min_sweep`] (two passes) instead
/// of seventeen independent simulations; stdout and the returned values
/// are byte-identical between modes.
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any (panel, curve) job ultimately
/// failed (after the configured retry budget).
pub fn run_with(scale: Scale, mode: SweepMode) -> Result<(Vec<Fig4Panel>, Vec<Table>), MembwError> {
    let suite = suite92(scale);
    let panel_names = ["compress", "eqntott", "swm"];
    let curve_specs = CurveSpec::all();
    let n_c = curve_specs.len();
    let key = format!("v2/fig4/{scale:?}/{mode}/{}x{}", panel_names.len(), n_c);
    let mut audit = Auditor::new("fig4");
    let all_curves: Vec<Curve> = sweep_jobs(
        "fig4",
        &key,
        panel_names.len() * n_c,
        mode,
        &mut audit,
        |k, mode| {
            let name = panel_names[k / n_c];
            let spec = &curve_specs[k % n_c];
            let b = suite
                .iter()
                .find(|b| b.name() == name)
                .expect("panel benchmark exists in SPEC92 suite");
            Curve {
                label: spec.label(),
                points: curve_points(b.workload(), spec, mode),
            }
        },
        |k| format!("{}/{}", panel_names[k / n_c], curve_specs[k % n_c].label()),
    )?;
    let mut panels = Vec::new();
    let mut tables = Vec::new();
    for (pi, name) in panel_names.iter().enumerate() {
        let curves: Vec<Curve> =
            all_curves[pi * curve_specs.len()..(pi + 1) * curve_specs.len()].to_vec();

        // §5: at every shared capacity, the write-validate MTC moves no
        // more bytes than any real cache curve.
        if let Some(wv) = curves.iter().find(|c| c.label == "MTC write-validate") {
            for c in curves.iter().filter(|c| c.label.ends_with("blocks")) {
                for &(s, t) in &c.points {
                    if let Some(&(_, m)) = wv.points.iter().find(|(cap, _)| *cap == s) {
                        audit.mtc_bound(&format!("{name}/{} @ {}", c.label, size_label(s)), m, t);
                    }
                }
            }
        }

        let mut table = Table::new(
            format!("Figure 4 ({name}): traffic in KB vs cache/MTC size"),
            {
                let mut h = vec!["Size".to_string()];
                h.extend(curves.iter().map(|c| c.label.clone()));
                h
            },
        );
        for s in sizes() {
            let mut cells = vec![size_label(s)];
            for c in &curves {
                let v = c
                    .points
                    .iter()
                    .find(|(cap, _)| *cap == s)
                    .map(|(_, t)| format!("{:.0}", *t as f64 / 1024.0))
                    .unwrap_or_else(|| "-".to_string());
                cells.push(v);
            }
            table.row(cells);
        }
        tables.push(table);
        panels.push(Fig4Panel {
            name: name.to_string(),
            curves,
        });
    }
    audit.finish()?;
    Ok((panels, tables))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtc_curves_lower_bound_everything() {
        let (panels, _) = run(Scale::Test).expect("no faults injected");
        assert_eq!(panels.len(), 3);
        for p in &panels {
            let wv = p
                .curves
                .iter()
                .find(|c| c.label == "MTC write-validate")
                .expect("WV curve");
            for c in p.curves.iter().filter(|c| c.label.ends_with("blocks")) {
                for &(s, t) in &c.points {
                    let m = wv
                        .points
                        .iter()
                        .find(|(cap, _)| *cap == s)
                        .expect("same sizes");
                    assert!(
                        m.1 <= t,
                        "{}: MTC above a cache at {s} ({} vs {t})",
                        p.name,
                        m.1
                    );
                }
            }
        }
    }

    #[test]
    fn compress_traffic_rises_with_block_size() {
        // The paper: "Compress has little spatial locality... any increase
        // in block size causes a corresponding increase in traffic."
        let (panels, _) = run(Scale::Test).expect("no faults injected");
        let compress = &panels[0];
        assert_eq!(compress.name, "compress");
        let at = |label: &str, size: u64| {
            compress
                .curves
                .iter()
                .find(|c| c.label == label)
                .and_then(|c| c.points.iter().find(|(s, _)| *s == size))
                .map(|(_, t)| *t)
        };
        let size = 16 * 1024;
        let t4 = at("4B blocks", size).expect("point");
        let t128 = at("128B blocks", size).expect("point");
        assert!(t128 > 2 * t4, "128B should waste traffic: {t128} vs {t4}");
    }

    #[test]
    fn traffic_is_monotone_nonincreasing_for_mtc() {
        let (panels, _) = run(Scale::Test).expect("no faults injected");
        for p in &panels {
            let wv = p
                .curves
                .iter()
                .find(|c| c.label.contains("validate"))
                .unwrap();
            for w in wv.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 64,
                    "{}: MTC traffic must fall with capacity",
                    p.name
                );
            }
        }
    }
}
