//! Traffic-ratio measurement for single caches (the paper's Table 7).

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use membw_trace::Workload;
use serde::{Deserialize, Serialize};

/// Result of running one workload through one cache configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Workload name.
    pub workload: String,
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Final counters (after flush).
    pub stats: CacheStats,
    /// Traffic ratio `R` (Eq. 4); `None` for an empty trace.
    pub ratio: Option<f64>,
    /// Whether the cache is larger than the workload's touched footprint
    /// (the paper marks these cells `<<<` as uninteresting).
    pub exceeds_footprint: bool,
}

impl TrafficReport {
    /// Format the ratio the way the paper's Table 7 does: `<<<` when the
    /// cache exceeds the data-set size, otherwise a two-decimal number.
    pub fn cell(&self) -> String {
        if self.exceeds_footprint {
            "<<<".to_string()
        } else {
            match self.ratio {
                Some(r) => format!("{r:.2}"),
                None => "-".to_string(),
            }
        }
    }
}

/// Run `workload` through a cache of `cfg` (with end-of-run flush) and
/// report the traffic ratio.
///
/// `footprint_bytes` is the workload's touched data size, used to mark
/// oversized caches; pass 0 to disable the marking.
pub fn traffic_ratio<W: Workload + ?Sized>(
    workload: &W,
    cfg: CacheConfig,
    footprint_bytes: u64,
) -> TrafficReport {
    let mut cache = Cache::new(cfg);
    workload.for_each_mem_ref(&mut |r| {
        cache.access(r);
    });
    let stats = cache.flush();
    TrafficReport {
        workload: workload.name().to_string(),
        cache_bytes: cfg.size_bytes(),
        ratio: stats.traffic_ratio(),
        exceeds_footprint: footprint_bytes != 0 && cfg.size_bytes() >= footprint_bytes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membw_trace::pattern::{Strided, UniformRandom};
    use membw_trace::stats::TraceStats;

    #[test]
    fn streaming_reads_have_ratio_one_for_word_blocks() {
        // Every 4-byte word read exactly once, 4-byte blocks: traffic in
        // equals requests — R = 1.
        let w = Strided::reads(0, 4, 4096);
        let cfg = CacheConfig::builder(1024, 4).build().unwrap();
        let rep = traffic_ratio(&w, cfg, 0);
        assert!((rep.ratio.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_spatial_locality_wastes_block_traffic() {
        // Touch one word per 32-byte block, once: the cache hauls 8 words
        // per useful word — R = 8.
        let w = Strided::reads(0, 32, 4096);
        let cfg = CacheConfig::builder(1024, 32).build().unwrap();
        let rep = traffic_ratio(&w, cfg, 0);
        assert!((rep.ratio.unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_falls_as_cache_grows() {
        let w = UniformRandom::new(0, 64 * 1024, 100_000, 11);
        let sizes = [1024, 4096, 16384, 65536];
        let reps: Vec<TrafficReport> = sizes
            .iter()
            .map(|&s| traffic_ratio(&w, CacheConfig::builder(s, 32).build().unwrap(), 0))
            .collect();
        for pair in reps.windows(2) {
            assert!(
                pair[1].ratio.unwrap() <= pair[0].ratio.unwrap() + 1e-9,
                "ratio should not rise with capacity on a uniform workload"
            );
        }
    }

    #[test]
    fn footprint_marking() {
        let w = Strided::reads(0, 4, 256); // 1 KiB footprint
        let stats = TraceStats::of(&w);
        let fp = stats.footprint_bytes(4);
        let small = traffic_ratio(&w, CacheConfig::builder(512, 32).build().unwrap(), fp);
        let large = traffic_ratio(&w, CacheConfig::builder(4096, 32).build().unwrap(), fp);
        assert!(!small.exceeds_footprint);
        assert!(large.exceeds_footprint);
        assert_eq!(large.cell(), "<<<");
        assert!(small.cell().parse::<f64>().is_ok());
    }
}
