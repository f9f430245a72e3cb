//! Future-reference (next-use) indexing for two-pass **min** simulation.

use membw_trace::{FastHashMap, MemRef, Workload};

/// Sentinel meaning "never referenced again".
pub const NEVER: u64 = u64::MAX;

/// For each position in a reference stream, the position of the *next*
/// reference to the same block.
///
/// Built with one forward pass (the first of the classic two passes of
/// Belady **min** [Belady 1966; Sugumar & Abraham 1993]): each reference
/// closes the chain of the previous reference to its block. Only the
/// `next` links are stored, 8 bytes per reference; consumers recompute
/// block numbers from the references they replay. The forward order is
/// what lets [`NextUseIndex::from_stream`] index a stream that is
/// generated rather than held in memory.
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
    next: Vec<u64>,
    block_size: u64,
}

impl NextUseIndex {
    /// Build the index over `refs` at `block_size` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn build(refs: &[MemRef], block_size: u64) -> Self {
        Self::from_stream(block_size, |f| refs.iter().for_each(|&r| f(r)))
    }

    /// Build the index over the references `stream` feeds to its
    /// callback, at `block_size` granularity, without materializing them.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn from_stream(block_size: u64, stream: impl FnOnce(&mut dyn FnMut(MemRef))) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        let mut next: Vec<u64> = Vec::new();
        let mut last_seen: FastHashMap<u64, u64> = FastHashMap::default();
        stream(&mut |r: MemRef| {
            let i = next.len() as u64;
            if let Some(prev) = last_seen.insert(r.block(block_size), i) {
                next[prev as usize] = i;
            }
            next.push(NEVER);
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
            f(r, r.block(self.block_size), self.next[i]);
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

    /// Position of the next reference to the block accessed at `i`
    /// ([`NEVER`] if none).
    pub fn next_use(&self, i: usize) -> u64 {
        self.next[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
