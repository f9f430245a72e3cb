//! Data-memory reference records.

use serde::{Deserialize, Serialize};

/// Whether a memory reference reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load from memory.
    Read,
    /// A store to memory.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Read`].
    pub fn is_read(self) -> bool {
        self == AccessKind::Read
    }

    /// `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        self == AccessKind::Write
    }
}

/// A single data-memory reference: address, size in bytes, and direction.
///
/// Sizes are small powers of two (1–8 bytes in practice). Following the
/// paper's tracing methodology (QPT splits double-word accesses into two
/// single-word accesses), workload generators emit mostly 4-byte
/// references; the cache simulators accept any size that does not straddle
/// a cache block.
///
/// # Example
///
/// ```
/// use membw_trace::MemRef;
///
/// let r = MemRef::read(0x1008, 4);
/// assert_eq!(r.block(32), 0x1000 / 32);
/// assert_eq!(r.word(), 0x1008 / 4);
/// assert!(r.kind.is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// Byte address of the access.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u16,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemRef {
    /// A read of `size` bytes at `addr`.
    pub fn read(addr: u64, size: u16) -> Self {
        Self {
            addr,
            size,
            kind: AccessKind::Read,
        }
    }

    /// A write of `size` bytes at `addr`.
    pub fn write(addr: u64, size: u16) -> Self {
        Self {
            addr,
            size,
            kind: AccessKind::Write,
        }
    }

    /// The block index this reference falls in, for `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_size` is not a power of two.
    pub fn block(&self, block_size: u64) -> u64 {
        debug_assert!(block_size.is_power_of_two());
        self.addr >> block_size.trailing_zeros()
    }

    /// The 4-byte word index of this reference (the paper's MTC request
    /// granularity, §5.2).
    pub fn word(&self) -> u64 {
        self.addr / 4
    }

    /// `true` if the access lies entirely within one `block_size` block.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_size` is not a power of two.
    #[inline]
    pub fn fits_in_block(&self, block_size: u64) -> bool {
        self.block(block_size) == self.last_byte() >> block_size.trailing_zeros()
    }

    /// Address of the access's last byte, computed without overflow for
    /// an access that ends at the top of the address space.
    #[inline]
    pub fn last_byte(&self) -> u64 {
        self.addr.wrapping_add(u64::from(self.size)).wrapping_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(MemRef::read(8, 4).kind, AccessKind::Read);
        assert_eq!(MemRef::write(8, 4).kind, AccessKind::Write);
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
    }

    #[test]
    fn block_and_word_indices() {
        let r = MemRef::read(100, 4);
        assert_eq!(r.block(32), 3);
        assert_eq!(r.block(64), 1);
        assert_eq!(r.word(), 25);
    }

    #[test]
    fn fits_in_block_detects_straddles() {
        assert!(MemRef::read(28, 4).fits_in_block(32));
        assert!(!MemRef::read(30, 4).fits_in_block(32));
        assert!(MemRef::read(0, 8).fits_in_block(8));
        assert!(!MemRef::read(4, 8).fits_in_block(8));
        assert!(MemRef::read(u64::MAX - 3, 4).fits_in_block(4));
    }
}
