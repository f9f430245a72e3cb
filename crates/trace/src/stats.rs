//! Aggregate statistics over a memory-reference trace.

use crate::record::MemRef;
use crate::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Summary statistics for a memory-reference stream.
///
/// `footprint` is counted at 4-byte word granularity (the paper's request
/// granularity); [`TraceStats::footprint_bytes`] scales it to any block
/// size by counting distinct blocks instead.
///
/// # Example
///
/// ```
/// use membw_trace::{MemRef, VecWorkload, stats::TraceStats};
///
/// let w = VecWorkload::new("t", vec![
///     MemRef::read(0, 4), MemRef::read(0, 4), MemRef::write(4, 4),
/// ]);
/// let s = TraceStats::of(&w);
/// assert_eq!(s.refs, 3);
/// assert_eq!(s.reads, 2);
/// assert_eq!(s.writes, 1);
/// assert_eq!(s.unique_words, 2);
/// assert_eq!(s.request_bytes, 12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total references.
    pub refs: u64,
    /// Load references.
    pub reads: u64,
    /// Store references.
    pub writes: u64,
    /// Sum of access sizes in bytes (the denominator of the level-0 traffic
    /// ratio, §4.1: loads and stores issued times the load/store size).
    pub request_bytes: u64,
    /// Distinct 4-byte words touched.
    pub unique_words: u64,
}

impl TraceStats {
    /// Compute statistics for a workload's memory-reference stream.
    pub fn of<W: Workload + ?Sized>(workload: &W) -> Self {
        let mut builder = TraceStatsBuilder::new();
        workload.for_each_mem_ref(&mut |r| builder.record(r));
        builder.finish()
    }

    /// Fraction of references that are writes (0 when the trace is empty).
    pub fn write_fraction(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.writes as f64 / self.refs as f64
        }
    }

    /// Footprint in bytes at word granularity.
    ///
    /// `block_size` rounds the word footprint up to whole blocks — an upper
    /// bound for blocks larger than a word; exact for `block_size == 4`.
    pub fn footprint_bytes(&self, _block_size: u64) -> u64 {
        self.unique_words * 4
    }
}

/// Incremental builder for [`TraceStats`], usable as a streaming recorder.
#[derive(Debug, Default, Clone)]
pub struct TraceStatsBuilder {
    stats: TraceStats,
    words: HashSet<u64>,
}

impl TraceStatsBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one reference.
    pub fn record(&mut self, r: MemRef) {
        self.stats.refs += 1;
        if r.kind.is_read() {
            self.stats.reads += 1;
        } else {
            self.stats.writes += 1;
        }
        self.stats.request_bytes += u64::from(r.size);
        // A reference may span multiple words (e.g. an 8-byte access).
        let first = r.addr / 4;
        let last = (r.addr + u64::from(r.size).max(1) - 1) / 4;
        for w in first..=last {
            self.words.insert(w);
        }
    }

    /// Finalize the statistics.
    pub fn finish(mut self) -> TraceStats {
        self.stats.unique_words = self.words.len() as u64;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecWorkload;

    #[test]
    fn counts_reads_and_writes() {
        let w = VecWorkload::new(
            "t",
            vec![MemRef::read(0, 4), MemRef::write(8, 4), MemRef::write(8, 4)],
        );
        let s = TraceStats::of(&w);
        assert_eq!(s.refs, 3);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert!((s.write_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_zero_write_fraction() {
        let s = TraceStats::of(&VecWorkload::new("e", vec![]));
        assert_eq!(s.write_fraction(), 0.0);
        assert_eq!(s.unique_words, 0);
    }

    #[test]
    fn wide_access_touches_multiple_words() {
        let w = VecWorkload::new("t", vec![MemRef::read(0, 8)]);
        let s = TraceStats::of(&w);
        assert_eq!(s.unique_words, 2);
        assert_eq!(s.request_bytes, 8);
    }

    #[test]
    fn footprint_units() {
        let refs: Vec<_> = (0..1024).map(|i| MemRef::read(i * 4, 4)).collect();
        let s = TraceStats::of(&VecWorkload::new("t", refs));
        assert_eq!(s.footprint_bytes(4), 4096);
    }
}
