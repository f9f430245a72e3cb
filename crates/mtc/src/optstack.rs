//! One-pass OPT stack simulation (Mattson's generalized stack algorithm
//! with the **min** priority; made practical by Sugumar & Abraham \[44\],
//! whom the paper cites for efficient **min** simulation).
//!
//! Belady's **min** is a stack algorithm: the contents of an optimal
//! cache of capacity `C` are a subset of the optimal cache of capacity
//! `C+1`, provided replacement priority is the *next-use time*. That
//! inclusion property means one pass over the trace, maintaining a
//! priority-repaired stack, yields the **min** miss count for *every*
//! capacity simultaneously — the way Figure 4's MTC curves would be
//! produced at scale. (This module computes miss counts; for byte-exact
//! traffic including write policy and bypass, use
//! [`MinCache`](crate::MinCache) or the multi-capacity
//! [`min_sweep`](crate::min_sweep).)

use crate::nextuse::{NextUseIndex, NEVER};
use membw_trace::MemRef;
use std::collections::HashMap;

/// Depth profile of a trace under OPT replacement.
///
/// # Example
///
/// ```
/// use membw_mtc::optstack::OptProfile;
/// use membw_trace::MemRef;
///
/// // Cyclic sweep of 4 words: OPT with 2 blocks keeps one resident.
/// let refs: Vec<MemRef> = (0..12).map(|i| MemRef::read((i % 4) * 4, 4)).collect();
/// let p = OptProfile::measure(&refs, 4);
/// assert_eq!(p.misses(4), 4, "full-size cache: cold misses only");
/// assert!(p.misses(2) < 12, "OPT does not thrash like LRU");
/// ```
#[derive(Debug, Clone)]
pub struct OptProfile {
    /// `histogram[d]` = accesses whose OPT stack depth was exactly `d`
    /// (1-based: depth 1 = top of stack).
    histogram: HashMap<usize, u64>,
    cold: u64,
    total: u64,
}

impl OptProfile {
    /// Run the one-pass OPT stack over `refs` at `block_size`
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn measure(refs: &[MemRef], block_size: u64) -> Self {
        let index = NextUseIndex::build(refs, block_size);
        let mut stack: Vec<u64> = Vec::new();
        // block -> next use time (as of the most recent processing).
        let mut next_use: HashMap<u64, u64> = HashMap::new();
        let mut pos: HashMap<u64, usize> = HashMap::new();
        let mut histogram: HashMap<usize, u64> = HashMap::new();
        let mut cold = 0u64;

        for (i, r) in refs.iter().enumerate() {
            let b = r.block(block_size);
            let nu = index.next_use(i);
            let depth = pos.get(&b).copied();
            match depth {
                None => cold += 1,
                Some(d) => {
                    *histogram.entry(d + 1).or_insert(0) += 1;
                }
            }
            // Move x to the top (a just-accessed block is resident in
            // every OPT cache), then repair the displaced levels: the
            // block with the *later* next use — the would-be victim —
            // keeps sinking until it lands in x's old slot (or, for a
            // cold block, a newly grown bottom slot).
            next_use.insert(b, nu);
            let d = match depth {
                Some(d) => d,
                None => {
                    stack.push(b); // placeholder; overwritten by the walk
                    stack.len() - 1
                }
            };
            let mut carry = stack[0];
            stack[0] = b;
            pos.insert(b, 0);
            if d > 0 {
                for level in 1..=d {
                    if level == d {
                        stack[d] = carry;
                        pos.insert(carry, d);
                        break;
                    }
                    let incumbent = stack[level];
                    let c_nu = next_use.get(&carry).copied().unwrap_or(NEVER);
                    let inc_nu = next_use.get(&incumbent).copied().unwrap_or(NEVER);
                    // Earlier next use = higher priority = stays higher.
                    if c_nu < inc_nu {
                        stack[level] = carry;
                        pos.insert(carry, level);
                        carry = incumbent;
                    }
                    // Otherwise the incumbent stays; carry keeps walking.
                }
            }
        }

        Self {
            histogram,
            cold,
            total: refs.len() as u64,
        }
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Compulsory (first-touch) misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// **min** misses for a cache of `capacity_blocks`: accesses found
    /// deeper than the capacity, plus cold misses.
    pub fn misses(&self, capacity_blocks: usize) -> u64 {
        let deep: u64 = self
            .histogram
            .iter()
            .filter(|(d, _)| **d > capacity_blocks)
            .map(|(_, c)| *c)
            .sum();
        self.cold + deep
    }

    /// Miss ratio at `capacity_blocks` (1.0 for an empty trace).
    pub fn miss_ratio(&self, capacity_blocks: usize) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.misses(capacity_blocks) as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min::{MinCache, MinConfig, MinWritePolicy};

    fn reads(words: &[u64]) -> Vec<MemRef> {
        words.iter().map(|&w| MemRef::read(w * 4, 4)).collect()
    }

    fn pseudo_random_trace(n: usize, words: u64, seed: u64) -> Vec<MemRef> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let w = (x >> 33) % words;
                if i % 5 == 0 {
                    MemRef::write(w * 4, 4)
                } else {
                    MemRef::read(w * 4, 4)
                }
            })
            .collect()
    }

    /// The load-bearing test: one-pass stack counts must equal the
    /// two-pass MinCache at every capacity.
    #[test]
    fn matches_two_pass_min_at_every_capacity() {
        for seed in [1u64, 7, 42] {
            let refs = pseudo_random_trace(1500, 48, seed);
            let profile = OptProfile::measure(&refs, 4);
            for cap_blocks in [1usize, 2, 4, 8, 16, 32, 64] {
                let cfg =
                    MinConfig::new((cap_blocks * 4) as u64, 4, MinWritePolicy::Allocate, false);
                let two_pass = MinCache::simulate(&cfg, &refs).demand_misses();
                assert_eq!(
                    profile.misses(cap_blocks),
                    two_pass,
                    "seed {seed}, capacity {cap_blocks} blocks"
                );
            }
        }
    }

    #[test]
    fn opt_beats_lru_on_cyclic_sweep() {
        let seq: Vec<u64> = (0..60).map(|i| i % 6).collect();
        let p = OptProfile::measure(&reads(&seq), 4);
        // LRU at capacity 3 would miss all 60; OPT keeps 2 of the loop.
        assert!(p.misses(3) < 45, "got {}", p.misses(3));
        assert_eq!(p.misses(6), 6, "full capacity: cold only");
    }

    #[test]
    fn misses_monotone_in_capacity() {
        let refs = pseudo_random_trace(2000, 64, 5);
        let p = OptProfile::measure(&refs, 4);
        let mut last = u64::MAX;
        for c in 1..40 {
            let m = p.misses(c);
            assert!(m <= last, "inclusion property violated at {c}");
            last = m;
        }
        assert_eq!(p.misses(10_000), p.cold_misses());
    }

    #[test]
    fn empty_trace() {
        let p = OptProfile::measure(&[], 4);
        assert_eq!(p.total(), 0);
        assert_eq!(p.miss_ratio(4), 1.0);
    }

    #[test]
    fn block_granularity_respected() {
        let refs = vec![MemRef::read(0, 4), MemRef::read(4, 4)];
        let p32 = OptProfile::measure(&refs, 32);
        assert_eq!(p32.cold_misses(), 1, "same 32B block");
        let p4 = OptProfile::measure(&refs, 4);
        assert_eq!(p4.cold_misses(), 2);
    }
}
