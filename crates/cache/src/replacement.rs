//! Replacement-policy machinery shared by the cache sets.
//!
//! Victim choice works off per-line metadata (`last_touch`, `filled_at`)
//! plus, for tree pseudo-LRU, a per-set bit vector. The policies here are
//! the ones the paper's Table 9 factor experiments exercise (LRU) plus the
//! cheap alternatives a "flexible cache" (§5.3) would offer.

use crate::config::ReplacementPolicy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-set tree-PLRU state, valid for power-of-two way counts.
///
/// Bit `i` of the word is internal node `i` of the binary tree (root at
/// 0); a 0 bit points left, 1 points right, and the victim walk follows
/// the pointers while an access flips the path away from itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlruBits(u64);

impl PlruBits {
    /// Walk the tree toward the pseudo-LRU victim among `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ways` is not a power of two or exceeds 64.
    pub fn victim(&self, ways: usize) -> usize {
        debug_assert!(ways.is_power_of_two() && ways <= 64);
        let mut node = 0usize; // index within a conceptual heap, 0-rooted
        let mut low = 0usize;
        let mut span = ways;
        while span > 1 {
            let right = (self.0 >> node) & 1 == 1;
            span /= 2;
            if right {
                low += span;
                node = 2 * node + 2;
            } else {
                node = 2 * node + 1;
            }
        }
        low
    }

    /// Record an access to `way`, flipping the path bits away from it.
    pub fn touch(&mut self, way: usize, ways: usize) {
        debug_assert!(ways.is_power_of_two() && ways <= 64);
        let mut node = 0usize;
        let mut low = 0usize;
        let mut span = ways;
        while span > 1 {
            span /= 2;
            let went_right = way >= low + span;
            // Point the node *away* from where we went.
            if went_right {
                self.0 &= !(1 << node);
                low += span;
                node = 2 * node + 2;
            } else {
                self.0 |= 1 << node;
                node = 2 * node + 1;
            }
        }
    }
}

/// Victim-selection engine: policy plus any global state (the random
/// stream).
#[derive(Debug)]
pub struct VictimPicker {
    policy: ReplacementPolicy,
    rng: Option<SmallRng>,
}

impl VictimPicker {
    /// Build a picker for `policy`.
    pub fn new(policy: ReplacementPolicy) -> Self {
        let rng = match policy {
            ReplacementPolicy::Random(seed) => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        Self { policy, rng }
    }

    /// The policy this picker implements.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Choose a victim way given per-way `(last_touch, filled_at)`
    /// metadata and the set's PLRU bits.
    ///
    /// # Panics
    ///
    /// Panics if `meta` is empty.
    pub fn pick(&mut self, meta: &[(u64, u64)], plru: &PlruBits) -> usize {
        self.pick_by(meta.len(), plru, |w| meta[w])
    }

    /// [`VictimPicker::pick`] over `ways` ways whose `(last_touch,
    /// filled_at)` metadata `meta` reads on demand, so a caller need not
    /// collect it. Ties go to the lowest way.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0.
    pub fn pick_by(
        &mut self,
        ways: usize,
        plru: &PlruBits,
        meta: impl Fn(usize) -> (u64, u64),
    ) -> usize {
        assert!(ways > 0, "cannot pick a victim from an empty set");
        match self.policy {
            ReplacementPolicy::Lru => oldest(ways, |w| meta(w).0),
            ReplacementPolicy::Fifo => oldest(ways, |w| meta(w).1),
            ReplacementPolicy::Random(_) => {
                let rng = self.rng.as_mut().expect("random picker carries an rng");
                rng.gen_range(0..ways)
            }
            ReplacementPolicy::Plru if ways.is_power_of_two() => plru.victim(ways),
            // Fall back to LRU for odd geometries.
            ReplacementPolicy::Plru => oldest(ways, |w| meta(w).0),
        }
    }
}

/// The first of `ways` ways with the smallest `key`.
fn oldest(ways: usize, key: impl Fn(usize) -> u64) -> usize {
    (1..ways)
        .fold((0, key(0)), |(best, k), w| {
            let v = key(w);
            if v < k {
                (w, v)
            } else {
                (best, k)
            }
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_last_touched_is_not_victim() {
        let ways = 8;
        let mut bits = PlruBits::default();
        for w in 0..ways {
            bits.touch(w, ways);
            assert_ne!(bits.victim(ways), w, "victim must differ from MRU way");
        }
    }

    #[test]
    fn plru_cycles_through_all_ways_under_round_robin_touch() {
        // Touching the victim each time must eventually visit every way.
        let ways = 4;
        let mut bits = PlruBits::default();
        let mut seen = [false; 4];
        for _ in 0..16 {
            let v = bits.victim(ways);
            seen[v] = true;
            bits.touch(v, ways);
        }
        assert!(seen.iter().all(|&s| s), "seen = {seen:?}");
    }

    #[test]
    fn lru_picks_oldest_touch() {
        let mut p = VictimPicker::new(ReplacementPolicy::Lru);
        let meta = [(5, 0), (2, 1), (9, 2)];
        assert_eq!(p.pick(&meta, &PlruBits::default()), 1);
    }

    #[test]
    fn fifo_picks_oldest_fill() {
        let mut p = VictimPicker::new(ReplacementPolicy::Fifo);
        let meta = [(5, 7), (2, 3), (9, 1)];
        assert_eq!(p.pick(&meta, &PlruBits::default()), 2);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let meta = [(0, 0); 6];
        let picks1: Vec<usize> = {
            let mut p = VictimPicker::new(ReplacementPolicy::Random(42));
            (0..20)
                .map(|_| p.pick(&meta, &PlruBits::default()))
                .collect()
        };
        let picks2: Vec<usize> = {
            let mut p = VictimPicker::new(ReplacementPolicy::Random(42));
            (0..20)
                .map(|_| p.pick(&meta, &PlruBits::default()))
                .collect()
        };
        assert_eq!(picks1, picks2);
        assert!(picks1.iter().all(|&w| w < 6));
        assert!(
            picks1
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn plru_policy_falls_back_to_lru_for_non_power_of_two() {
        let mut p = VictimPicker::new(ReplacementPolicy::Plru);
        let meta = [(5, 0), (1, 1), (9, 2)];
        assert_eq!(p.pick(&meta, &PlruBits::default()), 1);
    }
}
