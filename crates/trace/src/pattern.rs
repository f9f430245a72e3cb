//! Low-level synthetic access-pattern generators.
//!
//! These are the building blocks the workload kernels compose, and they
//! are independently useful for testing cache behaviour: sequential and
//! strided sweeps (spatial locality), uniform random accesses (none),
//! pointer chases (neither spatial nor predictable), and Zipf-distributed
//! hot/cold accesses (temporal locality with a heavy tail, the shape of
//! hash-table codes like Compress).
//!
//! Every pattern is a [`Workload`]: deterministic and replayable. Random
//! patterns take an explicit seed.

use crate::record::MemRef;
use crate::sink::TraceSink;
use crate::uop::Uop;
use crate::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Repeats an inner workload a fixed number of times.
#[derive(Debug, Clone)]
pub struct Repeat<W> {
    inner: W,
    times: u32,
}

impl<W: Workload> Repeat<W> {
    /// Repeat `inner` `times` times.
    pub fn new(inner: W, times: u32) -> Self {
        Self { inner, times }
    }
}

impl<W: Workload> Workload for Repeat<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        for _ in 0..self.times {
            self.inner.generate(sink);
        }
    }
}

/// Strided sweep over a region: `count` accesses of `size` bytes, `stride`
/// bytes apart, starting at `base`.
///
/// # Example
///
/// ```
/// use membw_trace::{pattern::Strided, Workload};
///
/// let refs = Strided::reads(0, 8, 4).collect_mem_refs();
/// assert_eq!(refs[1].addr, 8);
/// assert_eq!(refs.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Strided {
    base: u64,
    stride: u64,
    count: u64,
    size: u16,
    write_every: Option<u64>,
}

impl Strided {
    /// A read-only strided sweep of 4-byte accesses.
    pub fn reads(base: u64, stride: u64, count: u64) -> Self {
        Self {
            base,
            stride,
            count,
            size: 4,
            write_every: None,
        }
    }

    /// A strided sweep where every `n`-th access (1-based) is a write.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_write_every(mut self, n: u64) -> Self {
        assert!(n > 0, "write_every interval must be positive");
        self.write_every = Some(n);
        self
    }

    /// Repeat the sweep `times` times.
    pub fn repeat(self, times: u32) -> Repeat<Self> {
        Repeat::new(self, times)
    }
}

impl Workload for Strided {
    fn name(&self) -> &str {
        "strided"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        for i in 0..self.count {
            let addr = self.base + i * self.stride;
            let write = self.write_every.is_some_and(|n| (i + 1) % n == 0);
            let r = if write {
                MemRef::write(addr, self.size)
            } else {
                MemRef::read(addr, self.size)
            };
            sink.uop(Uop::from_mem_ref(r));
        }
    }
}

/// Uniform random 4-byte accesses within `[base, base + extent)`.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    base: u64,
    extent: u64,
    count: u64,
    write_fraction: f64,
    seed: u64,
}

impl UniformRandom {
    /// `count` random word accesses over `extent` bytes starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `extent < 4`.
    pub fn new(base: u64, extent: u64, count: u64, seed: u64) -> Self {
        assert!(extent >= 4, "extent must cover at least one word");
        Self {
            base,
            extent,
            count,
            write_fraction: 0.0,
            seed,
        }
    }

    /// Make a fraction of the accesses writes.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not within `0.0..=1.0`.
    pub fn with_write_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        self.write_fraction = f;
        self
    }
}

impl Workload for UniformRandom {
    fn name(&self) -> &str {
        "uniform-random"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let words = self.extent / 4;
        for _ in 0..self.count {
            let w = rng.gen_range(0..words);
            let addr = self.base + w * 4;
            let r = if rng.gen_bool(self.write_fraction) {
                MemRef::write(addr, 4)
            } else {
                MemRef::read(addr, 4)
            };
            sink.uop(Uop::from_mem_ref(r));
        }
    }
}

/// A pointer chase: a fixed random permutation cycle over `nodes` nodes of
/// `node_bytes` each, followed for `count` hops.
///
/// Each hop reads the "next" field of the current node — no spatial
/// locality between consecutive accesses, and temporal reuse only after a
/// full cycle.
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    nodes: u64,
    node_bytes: u64,
    count: u64,
    seed: u64,
}

impl PointerChase {
    /// A chase over `nodes` nodes for `count` hops.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(base: u64, nodes: u64, node_bytes: u64, count: u64, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self {
            base,
            nodes,
            node_bytes,
            count,
            seed,
        }
    }

    /// The permutation order visited, for testing.
    fn permutation(&self) -> Vec<u64> {
        let mut order: Vec<u64> = (0..self.nodes).collect();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Fisher–Yates over positions 1.. keeps a single cycle through 0.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(1..=i);
            order.swap(i, j);
        }
        order
    }
}

impl Workload for PointerChase {
    fn name(&self) -> &str {
        "pointer-chase"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        let order = self.permutation();
        let mut pos = 0usize;
        for _ in 0..self.count {
            let node = order[pos];
            let addr = self.base + node * self.node_bytes;
            sink.uop(Uop::from_mem_ref(MemRef::read(addr, 4)));
            pos = (pos + 1) % order.len();
        }
    }
}

/// Zipf-distributed accesses over `items` items: item `i` (rank starting
/// at 1) is chosen with probability proportional to `1 / i^theta`.
///
/// `theta ≈ 0.8–1.0` mimics hash-table hot spots; `theta = 0` degenerates
/// to uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    base: u64,
    items: u64,
    item_bytes: u64,
    count: u64,
    theta: f64,
    write_fraction: f64,
    seed: u64,
}

impl Zipf {
    /// `count` accesses over `items` items of `item_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `theta < 0`.
    pub fn new(base: u64, items: u64, item_bytes: u64, count: u64, theta: f64, seed: u64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(theta >= 0.0, "theta must be non-negative");
        Self {
            base,
            items,
            item_bytes,
            count,
            theta,
            write_fraction: 0.0,
            seed,
        }
    }

    /// Make a fraction of the accesses writes.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not within `0.0..=1.0`.
    pub fn with_write_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        self.write_fraction = f;
        self
    }

    /// Draw one rank in `1..=items` by inverse-CDF on a precomputed table.
    fn cdf(&self) -> Vec<f64> {
        let mut weights: Vec<f64> = (1..=self.items)
            .map(|i| 1.0 / (i as f64).powf(self.theta))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        weights
    }
}

impl Workload for Zipf {
    fn name(&self) -> &str {
        "zipf"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        // Scramble item ranks across the address space so hot items are not
        // spatially adjacent (as in a real hash table).
        let mut placement: Vec<u64> = (0..self.items).collect();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        for i in (1..placement.len()).rev() {
            let j = rng.gen_range(0..=i);
            placement.swap(i, j);
        }
        let cdf = self.cdf();
        for _ in 0..self.count {
            let u: f64 = rng.gen();
            let rank = cdf.partition_point(|&c| c < u).min(self.items as usize - 1);
            let addr = self.base + placement[rank] * self.item_bytes;
            let r = if rng.gen_bool(self.write_fraction) {
                MemRef::write(addr, 4)
            } else {
                MemRef::read(addr, 4)
            };
            sink.uop(Uop::from_mem_ref(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;
    use std::collections::HashMap;

    #[test]
    fn strided_addresses_and_writes() {
        let refs = Strided::reads(100, 8, 5)
            .with_write_every(2)
            .collect_mem_refs();
        assert_eq!(refs.len(), 5);
        assert_eq!(refs[0].addr, 100);
        assert_eq!(refs[4].addr, 132);
        assert!(refs[0].kind.is_read());
        assert!(refs[1].kind.is_write());
        assert!(refs[3].kind.is_write());
    }

    #[test]
    fn repeat_multiplies_length() {
        let w = Strided::reads(0, 4, 10).repeat(3);
        assert_eq!(w.collect_mem_refs().len(), 30);
    }

    #[test]
    fn uniform_random_is_deterministic_and_bounded() {
        let a = UniformRandom::new(0x1000, 256, 100, 7).collect_mem_refs();
        let b = UniformRandom::new(0x1000, 256, 100, 7).collect_mem_refs();
        assert_eq!(a, b);
        for r in &a {
            assert!(r.addr >= 0x1000 && r.addr < 0x1000 + 256);
            assert_eq!(r.addr % 4, 0);
        }
        let c = UniformRandom::new(0x1000, 256, 100, 8).collect_mem_refs();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn uniform_random_write_fraction_respected() {
        let refs = UniformRandom::new(0, 1024, 2000, 1)
            .with_write_fraction(0.5)
            .collect_mem_refs();
        let writes = refs.iter().filter(|r| r.kind.is_write()).count();
        assert!((800..1200).contains(&writes), "writes = {writes}");
    }

    #[test]
    fn pointer_chase_visits_every_node_per_cycle() {
        let chase = PointerChase::new(0, 16, 64, 16, 3);
        let refs = chase.collect_mem_refs();
        let mut nodes: Vec<u64> = refs.iter().map(|r| r.addr / 64).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 16, "one full cycle touches every node");
    }

    #[test]
    fn pointer_chase_cycles() {
        let chase = PointerChase::new(0, 8, 32, 24, 3);
        let refs = chase.collect_mem_refs();
        assert_eq!(refs[0].addr, refs[8].addr);
        assert_eq!(refs[3].addr, refs[19].addr);
    }

    #[test]
    fn zipf_concentrates_on_hot_items() {
        let z = Zipf::new(0, 1024, 16, 20_000, 1.0, 5);
        let refs = z.collect_mem_refs();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &refs {
            *counts.entry(r.addr).or_insert(0) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top16: u64 = freq.iter().take(16).sum();
        // With theta=1, the hottest 16 of 1024 items draw well over 30 %.
        assert!(
            top16 as f64 / refs.len() as f64 > 0.3,
            "top16 fraction = {}",
            top16 as f64 / refs.len() as f64
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let z = Zipf::new(0, 64, 4, 32_000, 0.0, 9);
        let s = TraceStats::of(&z);
        assert_eq!(s.unique_words, 64, "uniform draw covers all items");
    }
}
