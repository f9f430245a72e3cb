//! Exact LRU stack-distance (reuse-distance) computation.
//!
//! The stack distance of an access is the number of *distinct* blocks
//! referenced since the previous access to the same block. A
//! fully-associative LRU cache of capacity `C` blocks hits exactly those
//! accesses whose stack distance is `< C` — so one pass over a trace yields
//! the miss ratio of *every* cache size at once (Mattson's stack
//! algorithm). We use it to sanity-check the cache simulator and to site
//! the synthetic workloads' working-set knees where the paper's benchmarks
//! have theirs.
//!
//! The implementation is the standard O(N log N) one: a Fenwick (binary
//! indexed) tree over trace positions, with each resident block's marker
//! bit kept at its most recent access position.

use crate::record::MemRef;
use crate::Workload;
use std::collections::HashMap;

/// Fenwick tree over trace positions.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn with_len(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Add `delta` at 1-based position `i`.
    fn add(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Prefix sum of positions `1..=i`.
    fn sum(&self, mut i: usize) -> u64 {
        let mut s = 0u64;
        while i > 0 {
            s += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Distribution of stack distances for one trace at one block granularity.
///
/// # Example
///
/// ```
/// use membw_trace::{MemRef, VecWorkload, reuse::ReuseProfile};
///
/// // a b a : the second access to `a` has stack distance 1 (just `b`).
/// let w = VecWorkload::new("t", vec![
///     MemRef::read(0, 4), MemRef::read(64, 4), MemRef::read(0, 4),
/// ]);
/// let p = ReuseProfile::measure(&w, 32);
/// assert_eq!(p.cold_misses(), 2);
/// assert_eq!(p.count_at(1), 1);
/// // An LRU cache with >= 2 blocks hits the reuse; 1 block does not.
/// assert_eq!(p.lru_misses(2), 2);
/// assert_eq!(p.lru_misses(1), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of accesses with stack distance exactly `d`.
    histogram: HashMap<u64, u64>,
    cold: u64,
    total: u64,
    block_size: u64,
}

impl ReuseProfile {
    /// Measure the reuse profile of `workload` at `block_size` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn measure<W: Workload + ?Sized>(workload: &W, block_size: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block_size must be a power of two, got {block_size}"
        );
        let mut blocks = Vec::new();
        workload.for_each_mem_ref(&mut |r: MemRef| blocks.push(r.block(block_size)));

        let n = blocks.len();
        let mut fenwick = Fenwick::with_len(n);
        // block -> 1-based position of most recent access
        let mut last_pos: HashMap<u64, usize> = HashMap::new();
        let mut histogram: HashMap<u64, u64> = HashMap::new();
        let mut cold = 0u64;

        for (idx, &b) in blocks.iter().enumerate() {
            let pos = idx + 1;
            match last_pos.get(&b).copied() {
                Some(prev) => {
                    // Distinct blocks touched strictly between prev and pos.
                    let d = fenwick.sum(pos - 1) - fenwick.sum(prev);
                    *histogram.entry(d).or_insert(0) += 1;
                    fenwick.add(prev, -1);
                }
                None => cold += 1,
            }
            fenwick.add(pos, 1);
            last_pos.insert(b, pos);
        }

        Self {
            histogram,
            cold,
            total: n as u64,
            block_size,
        }
    }

    /// Block size this profile was measured at.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Total accesses in the trace.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Accesses to never-before-seen blocks (compulsory misses).
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Number of accesses with stack distance exactly `d`.
    pub fn count_at(&self, d: u64) -> u64 {
        self.histogram.get(&d).copied().unwrap_or(0)
    }

    /// Iterate the `(distance, count)` pairs of the histogram, in
    /// unspecified order (cold accesses are not included).
    pub fn distances(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.histogram.iter().map(|(&d, &c)| (d, c))
    }

    /// Misses of a fully-associative LRU cache holding `capacity_blocks`.
    ///
    /// An access hits iff its stack distance is strictly less than the
    /// capacity; cold accesses always miss.
    pub fn lru_misses(&self, capacity_blocks: u64) -> u64 {
        let reuse_misses: u64 = self
            .histogram
            .iter()
            .filter(|(d, _)| **d >= capacity_blocks)
            .map(|(_, c)| *c)
            .sum();
        self.cold + reuse_misses
    }

    /// LRU miss ratio at `capacity_blocks` (1.0 for an empty trace).
    pub fn lru_miss_ratio(&self, capacity_blocks: u64) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.lru_misses(capacity_blocks) as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecWorkload;

    fn trace_of(blocks: &[u64]) -> VecWorkload {
        VecWorkload::new(
            "t",
            blocks.iter().map(|&b| MemRef::read(b * 32, 4)).collect(),
        )
    }

    #[test]
    fn classic_stack_distance_example() {
        // a b c b a : distances — a:cold, b:cold, c:cold, b:1, a:2
        let p = ReuseProfile::measure(&trace_of(&[0, 1, 2, 1, 0]), 32);
        assert_eq!(p.cold_misses(), 3);
        assert_eq!(p.count_at(1), 1);
        assert_eq!(p.count_at(2), 1);
        assert_eq!(p.total(), 5);
    }

    #[test]
    fn zero_distance_for_immediate_reuse() {
        let p = ReuseProfile::measure(&trace_of(&[5, 5, 5]), 32);
        assert_eq!(p.cold_misses(), 1);
        assert_eq!(p.count_at(0), 2);
        // Even a 1-block cache hits immediate reuse.
        assert_eq!(p.lru_misses(1), 1);
    }

    #[test]
    fn lru_misses_monotone_in_capacity() {
        // Cyclic sweep over 4 blocks, 3 rounds: LRU thrashes below capacity 4.
        let seq: Vec<u64> = (0..12).map(|i| i % 4).collect();
        let p = ReuseProfile::measure(&trace_of(&seq), 32);
        assert_eq!(p.lru_misses(4), 4); // only cold misses
        assert_eq!(p.lru_misses(3), 12); // classic LRU thrash
        for c in 1..8 {
            assert!(p.lru_misses(c) >= p.lru_misses(c + 1));
        }
    }

    #[test]
    fn block_granularity_merges_words() {
        // Two words in the same 32-byte block: second access is distance 0.
        let w = VecWorkload::new("t", vec![MemRef::read(0, 4), MemRef::read(4, 4)]);
        let p = ReuseProfile::measure(&w, 32);
        assert_eq!(p.cold_misses(), 1);
        assert_eq!(p.count_at(0), 1);
        // At 4-byte granularity they are distinct blocks.
        let p4 = ReuseProfile::measure(&w, 4);
        assert_eq!(p4.cold_misses(), 2);
    }

    #[test]
    fn miss_ratio_of_empty_trace_is_one() {
        let p = ReuseProfile::measure(&trace_of(&[]), 32);
        assert_eq!(p.lru_miss_ratio(16), 1.0);
    }
}
