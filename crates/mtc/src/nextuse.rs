//! Future-reference (next-use) indexing for two-pass **min** simulation.

use membw_trace::{FastHashMap, MemRef, Workload};

/// Sentinel meaning "never referenced again".
pub const NEVER: u64 = u64::MAX;

/// [`NEVER`] as stored in the index's 4-byte links.
const LINK_NEVER: u32 = u32::MAX;

/// For each position in a reference stream, the position of the *next*
/// reference to the same block.
///
/// Built with one forward pass (the first of the classic two passes of
/// Belady **min** [Belady 1966; Sugumar & Abraham 1993]): each reference
/// closes the chain of the previous reference to its block. Only the
/// `next` links are stored, 4 bytes per reference; consumers recompute
/// block numbers from the references they replay. The forward order is
/// what lets [`NextUseIndex::from_stream`] index a stream that is
/// generated rather than held in memory.
///
/// A link is a `u32` position, so one index covers fewer than
/// `u32::MAX` references (about 4.29 G; the paper's longest trace,
/// Table 3's 1,281 M, fits). A longer stream panics rather than wrap.
///
/// # Example
///
/// ```
/// use membw_mtc::nextuse::{NextUseIndex, NEVER};
/// use membw_trace::MemRef;
///
/// let refs = [MemRef::read(0, 4), MemRef::read(8, 4), MemRef::read(0, 4)];
/// let idx = NextUseIndex::build(&refs, 4);
/// assert_eq!(idx.next_use(0), 2);      // word 0 referenced again at 2
/// assert_eq!(idx.next_use(1), NEVER);  // word 2 never again
/// assert_eq!(idx.next_use(2), NEVER);
/// ```
#[derive(Debug, Clone)]
pub struct NextUseIndex {
    next: Vec<u32>,
    block_size: u64,
}

impl NextUseIndex {
    /// Build the index over `refs` at `block_size` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two, or if `refs` holds
    /// `u32::MAX` or more references.
    pub fn build(refs: &[MemRef], block_size: u64) -> Self {
        Self::from_stream(block_size, |f| refs.iter().for_each(|&r| f(r)))
    }

    /// Build the index over the references `stream` feeds to its
    /// callback, at `block_size` granularity, without materializing them.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two, or if the stream
    /// feeds `u32::MAX` or more references.
    pub fn from_stream(block_size: u64, stream: impl FnOnce(&mut dyn FnMut(MemRef))) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        let mut next: Vec<u32> = Vec::new();
        let mut last_seen: FastHashMap<u64, u32> = FastHashMap::default();
        stream(&mut |r: MemRef| {
            let i = link(next.len());
            if let Some(prev) = last_seen.insert(r.block(block_size), i) {
                next[prev as usize] = i;
            }
            next.push(LINK_NEVER);
        });
        Self { next, block_size }
    }

    /// Generate `workload` again (the stream this index was built over)
    /// and call `f(reference, block, next_use)` for each reference in
    /// order, polling the ambient cancel token: the second of the two
    /// **min** passes.
    ///
    /// # Panics
    ///
    /// Panics if the workload emits a different number of references
    /// than the index covers (a [`Workload`] must emit the identical
    /// stream every time).
    pub(crate) fn replay<W: Workload + ?Sized>(
        &self,
        workload: &W,
        mut f: impl FnMut(MemRef, u64, u64),
    ) {
        let ctx = membw_runner::RunContext::current();
        let cancel = &ctx.cancel;
        let mut i = 0usize;
        workload.for_each_mem_ref(&mut |r| {
            assert!(
                i < self.next.len(),
                "workload {:?} emitted more references on its second pass",
                workload.name()
            );
            if i.is_multiple_of(8192) {
                cancel.check();
            }
            f(r, r.block(self.block_size), self.next_use(i));
            i += 1;
        });
        assert_eq!(
            i,
            self.next.len(),
            "workload {:?} emitted fewer references on its second pass",
            workload.name()
        );
    }

    /// The block granularity this index was built at.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of references indexed.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Bytes the links occupy, 4 per reference: what the index costs
    /// the memory governor.
    pub fn bytes(&self) -> u64 {
        (self.next.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Position of the next reference to the block accessed at `i`
    /// ([`NEVER`] if none).
    #[inline]
    pub fn next_use(&self, i: usize) -> u64 {
        match self.next[i] {
            LINK_NEVER => NEVER,
            at => u64::from(at),
        }
    }
}

/// Position `i` as a link. Positions stay below `LINK_NEVER - 1`, so
/// the index's length is below `u32::MAX` and no link reads as
/// [`LINK_NEVER`].
#[inline]
fn link(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&at| at < LINK_NEVER - 1)
        .unwrap_or_else(|| {
            panic!("a next-use index holds fewer than u32::MAX (4294967295) references")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reads(words: &[u64]) -> Vec<MemRef> {
        words.iter().map(|&w| MemRef::read(w * 4, 4)).collect()
    }

    #[test]
    fn chains_point_forward() {
        // words: a b a b a
        let refs = reads(&[0, 1, 0, 1, 0]);
        let idx = NextUseIndex::build(&refs, 4);
        assert_eq!(idx.next_use(0), 2);
        assert_eq!(idx.next_use(1), 3);
        assert_eq!(idx.next_use(2), 4);
        assert_eq!(idx.next_use(3), NEVER);
        assert_eq!(idx.next_use(4), NEVER);
    }

    #[test]
    fn block_granularity_groups_words() {
        // Addresses 0 and 4 share a 32-byte block.
        let refs = vec![MemRef::read(0, 4), MemRef::read(4, 4)];
        let idx = NextUseIndex::build(&refs, 32);
        assert_eq!(idx.next_use(0), 1);
        let idx4 = NextUseIndex::build(&refs, 4);
        assert_eq!(idx4.next_use(0), NEVER);
    }

    #[test]
    fn empty_trace() {
        let idx = NextUseIndex::build(&[], 4);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn writes_count_as_uses() {
        let refs = vec![MemRef::read(0, 4), MemRef::write(0, 4)];
        let idx = NextUseIndex::build(&refs, 4);
        assert_eq!(idx.next_use(0), 1);
    }

    #[test]
    fn bytes_are_four_per_reference() {
        let refs = reads(&[0, 1, 0, 2, 1]);
        let idx = NextUseIndex::build(&refs, 4);
        assert_eq!(idx.bytes(), 5 * 4);
        assert_eq!(NextUseIndex::build(&[], 4).bytes(), 0);
    }

    #[test]
    fn the_last_position_below_the_limit_is_a_link() {
        assert_eq!(link(0), 0);
        assert_eq!(link(u32::MAX as usize - 2), u32::MAX - 2);
    }

    #[test]
    #[should_panic(expected = "fewer than u32::MAX")]
    fn a_stream_of_u32_max_references_panics_instead_of_wrapping() {
        // Position u32::MAX - 1 would make the length u32::MAX.
        link(u32::MAX as usize - 1);
    }

    /// Next use of each position by a quadratic scan.
    fn brute_force(refs: &[MemRef], block_size: u64) -> Vec<u64> {
        (0..refs.len())
            .map(|i| {
                let block = refs[i].block(block_size);
                (i + 1..refs.len())
                    .find(|&j| refs[j].block(block_size) == block)
                    .map_or(NEVER, |j| j as u64)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn from_stream_matches_a_quadratic_scan(
            accesses in prop::collection::vec((0u64..96, prop::bool::ANY), 0..300),
        ) {
            let refs: Vec<MemRef> = accesses
                .iter()
                .map(|&(w, write)| {
                    if write {
                        MemRef::write(w * 4, 4)
                    } else {
                        MemRef::read(w * 4, 4)
                    }
                })
                .collect();
            for block_size in [4, 32] {
                let idx =
                    NextUseIndex::from_stream(block_size, |f| refs.iter().for_each(|&r| f(r)));
                let want = brute_force(&refs, block_size);
                prop_assert_eq!(idx.len(), refs.len());
                let got: Vec<u64> = (0..idx.len()).map(|i| idx.next_use(i)).collect();
                prop_assert_eq!(&got, &want);
                // Each block's last use, and only it, is NEVER.
                let mut last: FastHashMap<u64, usize> = FastHashMap::default();
                for (i, r) in refs.iter().enumerate() {
                    last.insert(r.block(block_size), i);
                }
                for (i, r) in refs.iter().enumerate() {
                    prop_assert_eq!(got[i] == NEVER, last[&r.block(block_size)] == i);
                }
            }
        }
    }
}
