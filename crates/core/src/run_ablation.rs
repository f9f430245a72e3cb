//! Ablation: what each cache-assist technique does to misses *and*
//! traffic.
//!
//! Table 1 of the paper predicts that latency-tolerance hardware buys
//! its miss reductions with extra bandwidth. This experiment makes that
//! trade concrete on our workloads: a plain cache vs. tagged prefetch
//! (Gindele \[17\]), stream buffers (Jouppi \[24\]), a victim cache
//! (Jouppi \[24\]), and reuse-predicted bypassing (Tyson et al. \[45\]).

use crate::audit::Auditor;
use crate::error::{collect_jobs, MembwError};
use crate::report::Table;
use membw_cache::{BypassCache, Cache, CacheConfig, CacheStats, StreamBuffers, VictimCache};
use membw_runner::checkpointed;
use membw_trace::{MemRef, Workload};
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// One (workload, technique) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationCell {
    /// Workload name.
    pub workload: String,
    /// Technique label.
    pub technique: String,
    /// Demand misses that had to wait on the hierarchy (stream-buffer
    /// hits are *not* counted as misses here — they hide latency).
    pub misses: u64,
    /// Total below-cache traffic in bytes.
    pub traffic: u64,
}

/// The whole ablation grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// All measurements.
    pub cells: Vec<AblationCell>,
    /// Cache capacity used.
    pub cache_bytes: u64,
}

/// The techniques compared.
pub const TECHNIQUES: [&str; 5] = [
    "plain",
    "tagged-prefetch",
    "stream-buffers",
    "victim",
    "bypass",
];

fn run_one(technique: &str, refs: &[MemRef], cfg: CacheConfig) -> (u64, u64) {
    match technique {
        "plain" => {
            let mut c = Cache::new(cfg);
            for &r in refs {
                c.access(r);
            }
            let s: CacheStats = c.flush();
            (s.demand_misses(), s.traffic_below())
        }
        "tagged-prefetch" => {
            let pf_cfg = CacheConfig::builder(cfg.size_bytes(), cfg.block_size())
                .associativity(cfg.associativity())
                .tagged_prefetch(true)
                .build()
                .expect("valid geometry");
            let mut c = Cache::new(pf_cfg);
            for &r in refs {
                c.access(r);
            }
            let s = c.flush();
            (s.demand_misses(), s.traffic_below())
        }
        "stream-buffers" => {
            let mut c = StreamBuffers::new(cfg, 4, 4);
            let mut waited = 0u64;
            for &r in refs {
                if !c.access(r) {
                    waited += 1;
                }
            }
            let s = c.flush();
            (waited, s.traffic_below())
        }
        "victim" => {
            let mut c = VictimCache::new(cfg, 8);
            for &r in refs {
                c.access(r);
            }
            let s = c.flush();
            (s.demand_misses(), s.traffic_below())
        }
        "bypass" => {
            let mut c = BypassCache::new(cfg, 1024);
            for &r in refs {
                c.access(r);
            }
            let s = c.flush();
            (s.demand_misses() + c.bypasses(), s.traffic_below())
        }
        other => unreachable!("unknown technique {other}"),
    }
}

/// Run the ablation over the SPEC92 suite at `scale` with
/// `cache_bytes` caches (32-byte blocks, direct-mapped).
///
/// Jobs are fault-isolated and checkpointed under the batch label
/// `ablation`.
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any (benchmark, technique) cell
/// ultimately failed (after the configured retry budget).
pub fn run(scale: Scale, cache_bytes: u64) -> Result<(AblationResult, Table), MembwError> {
    let suite = suite92(scale);
    let cfg = CacheConfig::builder(cache_bytes, 32)
        .build()
        .expect("valid geometry");
    // One run-engine job per (benchmark, technique) cell,
    // benchmark-major; each job replays the shared recorded trace.
    let n_t = TECHNIQUES.len();
    let key = format!(
        "v1/ablation/{scale:?}/{cache_bytes}/{}x{}",
        suite.len(),
        n_t
    );
    let raw = checkpointed("ablation", &key, suite.len() * n_t, |k| {
        let b = &suite[k / n_t];
        let t = TECHNIQUES[k % n_t];
        let refs = b.replayable().collect_mem_refs();
        let (misses, traffic) = run_one(t, &refs, cfg);
        AblationCell {
            workload: b.name().to_string(),
            technique: t.to_string(),
            misses,
            traffic,
        }
    });
    let cells: Vec<AblationCell> = collect_jobs("ablation", raw, |k| {
        format!("{}/{}", suite[k / n_t].name(), TECHNIQUES[k % n_t])
    })?;

    let mut audit = Auditor::new("ablation");
    for c in &cells {
        // A technique that reports zero traffic on a real workload means
        // the instrument broke, not that the cache was free.
        audit.positive(
            &format!("{}/{}", c.workload, c.technique),
            "below-cache traffic",
            c.traffic as f64,
        );
    }
    audit.finish()?;

    let mut headers = vec!["Workload".to_string()];
    for t in TECHNIQUES {
        headers.push(format!("{t} miss"));
        headers.push(format!("{t} KB"));
    }
    let mut table = Table::new(
        format!("Ablation: misses and traffic per assist technique ({cache_bytes}B cache)"),
        headers,
    );
    for b in &suite {
        let mut row = vec![b.name().to_string()];
        for t in TECHNIQUES {
            let c = cells
                .iter()
                .find(|c| c.workload == b.name() && c.technique == t)
                .expect("cell exists");
            row.push(c.misses.to_string());
            row.push((c.traffic / 1024).to_string());
        }
        table.row(row);
    }
    Ok((AblationResult { cells, cache_bytes }, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_complete() {
        let (res, table) = run(Scale::Test, 8 * 1024).expect("no faults injected");
        assert_eq!(res.cells.len(), 7 * 5);
        assert_eq!(table.num_rows(), 7);
    }

    #[test]
    fn prefetch_trades_traffic_for_misses_on_streaming_code() {
        // Table 1's claim, quantified: on swm (streaming), tagged
        // prefetch cuts waited-on misses but does not cut traffic.
        let (res, _) = run(Scale::Test, 8 * 1024).expect("no faults injected");
        let get = |w: &str, t: &str| {
            res.cells
                .iter()
                .find(|c| c.workload == w && c.technique == t)
                .expect("cell")
        };
        let plain = get("swm", "plain");
        let pf = get("swm", "tagged-prefetch");
        assert!(pf.misses < plain.misses, "prefetch hides misses");
        assert!(
            pf.traffic >= plain.traffic,
            "prefetch cannot reduce traffic on streams"
        );
        let sb = get("swm", "stream-buffers");
        assert!(sb.misses < plain.misses, "stream buffers hide misses");
    }

    #[test]
    fn bypass_cuts_traffic_on_low_locality_code() {
        let (res, _) = run(Scale::Test, 8 * 1024).expect("no faults injected");
        let get = |w: &str, t: &str| {
            res.cells
                .iter()
                .find(|c| c.workload == w && c.technique == t)
                .expect("cell")
        };
        let plain = get("compress", "plain");
        let by = get("compress", "bypass");
        assert!(
            by.traffic < plain.traffic,
            "bypassing must cut compress's block-fill waste: {} vs {}",
            by.traffic,
            plain.traffic
        );
    }
}
