//! Remote addresses in the disaggregated memory pool.

use crate::error::{DmError, DmResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A location in the memory pool: a memory-node id plus a byte offset.
///
/// The address packs into a single `u64` (16-bit node id, 48-bit offset),
/// matching the 6-byte pointers stored in Ditto's hash-table slots.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct RemoteAddr {
    /// Identifier of the memory node that owns the bytes.
    pub mn_id: u16,
    /// Byte offset within the memory node's arena.
    pub offset: u64,
}

/// Number of bits reserved for the offset when packing a [`RemoteAddr`].
pub const OFFSET_BITS: u32 = 48;

/// Maximum representable offset (exclusive).
pub const MAX_OFFSET: u64 = 1 << OFFSET_BITS;

impl RemoteAddr {
    /// Creates a new remote address.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit into 48 bits; the fallible variant is
    /// [`RemoteAddr::try_new`].
    pub fn new(mn_id: u16, offset: u64) -> Self {
        assert!(offset < MAX_OFFSET, "offset {offset} exceeds 48 bits");
        RemoteAddr { mn_id, offset }
    }

    /// Creates a new remote address, returning a typed
    /// [`DmError::AddressOverflow`] instead of panicking when `offset` does
    /// not fit the 48-bit packed encoding.
    pub fn try_new(mn_id: u16, offset: u64) -> DmResult<Self> {
        if offset < MAX_OFFSET {
            Ok(RemoteAddr { mn_id, offset })
        } else {
            Err(DmError::AddressOverflow { mn_id, offset })
        }
    }

    /// Packs the address into a `u64` (node id in the top 16 bits).
    pub fn pack(&self) -> u64 {
        ((self.mn_id as u64) << OFFSET_BITS) | (self.offset & (MAX_OFFSET - 1))
    }

    /// Unpacks an address previously produced by [`RemoteAddr::pack`].
    pub fn unpack(raw: u64) -> Self {
        RemoteAddr {
            mn_id: (raw >> OFFSET_BITS) as u16,
            offset: raw & (MAX_OFFSET - 1),
        }
    }

    /// Returns the address `delta` bytes past this one on the same node.
    pub fn add(&self, delta: u64) -> Self {
        RemoteAddr::new(self.mn_id, self.offset + delta)
    }
}

impl fmt::Display for RemoteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mn{}+0x{:x}", self.mn_id, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let a = RemoteAddr::new(3, 0x1234_5678_9abc);
        assert_eq!(RemoteAddr::unpack(a.pack()), a);
    }

    #[test]
    fn pack_roundtrip_extremes() {
        let a = RemoteAddr::new(u16::MAX, MAX_OFFSET - 1);
        assert_eq!(RemoteAddr::unpack(a.pack()), a);
        let b = RemoteAddr::new(0, 0);
        assert_eq!(RemoteAddr::unpack(b.pack()), b);
    }

    #[test]
    fn add_advances_offset() {
        let a = RemoteAddr::new(2, 100);
        let b = a.add(28);
        assert_eq!(b.mn_id, 2);
        assert_eq!(b.offset, 128);
    }

    #[test]
    #[should_panic]
    fn offset_too_large_panics() {
        let _ = RemoteAddr::new(0, MAX_OFFSET);
    }

    #[test]
    fn try_new_reports_overflow_as_typed_error() {
        assert_eq!(
            RemoteAddr::try_new(3, MAX_OFFSET),
            Err(crate::error::DmError::AddressOverflow {
                mn_id: 3,
                offset: MAX_OFFSET
            })
        );
        assert_eq!(
            RemoteAddr::try_new(3, MAX_OFFSET - 1),
            Ok(RemoteAddr::new(3, MAX_OFFSET - 1))
        );
    }

    #[test]
    fn display_format() {
        let a = RemoteAddr::new(1, 0x40);
        assert_eq!(a.to_string(), "mn1+0x40");
    }
}
