//! Slot layout of the sample-friendly hash table (§4.2.1, Figure 7) and of
//! embedded history entries (§4.3.1, Figure 9).
//!
//! Each 40-byte slot holds an 8-byte *atomic field* — modified only with
//! `RDMA_CAS` — followed by 32 bytes of access metadata:
//!
//! ```text
//!  byte 0        1        2..7     8..15   16..23      24..31    32..39
//!  +--------+--------+----------+--------+-----------+---------+--------+
//!  |   fp   |  size  | pointer  |  hash  | insert_ts | last_ts |  freq  |
//!  +--------+--------+----------+--------+-----------+---------+--------+
//!  '--------- atomic field -----'
//! ```
//!
//! A `size` byte of `0xFF` tags the slot as a history entry: the pointer
//! field then stores the 48-bit history id and `insert_ts` stores the
//! eviction's history word — the expert bitmap of the decision in bits 0..48
//! and the probability that its victim was drawn in bits 48..64
//! ([`crate::history::expert_bitmap`]), which a regret on it divides by.

use crate::error::{CacheError, CacheResult};
use ditto_algorithms::Metadata;
use ditto_dm::RemoteAddr;

/// Size of one slot in bytes.
pub const SLOT_SIZE: usize = 40;
/// Slots per bucket; one bucket is fetched with a single `RDMA_READ`.
pub const SLOTS_PER_BUCKET: usize = 8;
/// Size of one bucket in bytes.
pub const BUCKET_SIZE: usize = SLOT_SIZE * SLOTS_PER_BUCKET;

/// `size` value that tags a slot as a history entry.
pub const HISTORY_SIZE_TAG: u8 = 0xFF;
/// Granularity of the `size` field (64-byte memory blocks).
pub const SIZE_BLOCK: u32 = 64;

/// Byte offset of the hash field within a slot.
pub const OFF_HASH: u64 = 8;
/// Byte offset of the insert-timestamp field within a slot.
pub const OFF_INSERT_TS: u64 = 16;
/// Byte offset of the last-access-timestamp field within a slot.
pub const OFF_LAST_TS: u64 = 24;
/// Byte offset of the frequency field within a slot.
pub const OFF_FREQ: u64 = 32;

const PTR_BITS: u32 = 48;
const PTR_MASK: u64 = (1 << PTR_BITS) - 1;
const PTR_OFFSET_BITS: u32 = 40;
const PTR_OFFSET_MASK: u64 = (1 << PTR_OFFSET_BITS) - 1;

/// The decoded 8-byte atomic field of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicField {
    /// 1-byte key fingerprint.
    pub fp: u8,
    /// Object size in 64-byte blocks, or [`HISTORY_SIZE_TAG`] for history
    /// entries.
    pub size_class: u8,
    /// 48-bit pointer: the packed object address, or the history id.
    pub ptr: u64,
}

impl AtomicField {
    /// The empty slot (all zeros).
    pub const EMPTY: AtomicField = AtomicField {
        fp: 0,
        size_class: 0,
        ptr: 0,
    };

    /// Builds the atomic field of a live object slot, returning a typed
    /// [`CacheError::PointerOverflow`] when the address does not fit the
    /// 48-bit pointer encoding (node id ≥ 256 or offset ≥ 2^40).
    ///
    /// # Panics
    ///
    /// Panics if `size_class` is the history tag (a caller bug, not a
    /// run-time condition).
    pub fn try_for_object(fp: u8, size_class: u8, addr: RemoteAddr) -> CacheResult<Self> {
        assert!(
            size_class != HISTORY_SIZE_TAG,
            "size class clashes with history tag"
        );
        if addr.mn_id >= 256 || addr.offset >= (1 << PTR_OFFSET_BITS) {
            return Err(CacheError::PointerOverflow {
                mn_id: addr.mn_id,
                offset: addr.offset,
            });
        }
        let ptr = ((addr.mn_id as u64) << PTR_OFFSET_BITS) | addr.offset;
        Ok(AtomicField {
            fp,
            size_class,
            ptr,
        })
    }

    /// Builds the atomic field of a live object slot.
    ///
    /// # Panics
    ///
    /// Panics if the address does not fit the 48-bit pointer encoding
    /// (node id ≥ 256 or offset ≥ 2^40) or if `size_class` is the history
    /// tag; the fallible variant is [`AtomicField::try_for_object`].
    pub fn for_object(fp: u8, size_class: u8, addr: RemoteAddr) -> Self {
        Self::try_for_object(fp, size_class, addr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the atomic field of a history entry.
    pub fn for_history(fp: u8, history_id: u64) -> Self {
        // `fp = 0xFF, id = 2^48 - 1` would encode to the migration
        // reconcile poison (`u64::MAX`), which decodes as empty; real
        // history ids are dense counters and never get near 2^48.
        debug_assert!(
            fp != 0xFF || history_id & PTR_MASK != PTR_MASK,
            "history entry would collide with RECONCILE_POISON"
        );
        AtomicField {
            fp,
            size_class: HISTORY_SIZE_TAG,
            ptr: history_id & PTR_MASK,
        }
    }

    /// Encodes to the 8-byte wire representation.
    pub fn encode(&self) -> u64 {
        ((self.fp as u64) << 56) | ((self.size_class as u64) << 48) | (self.ptr & PTR_MASK)
    }

    /// Decodes from the 8-byte wire representation.
    pub fn decode(raw: u64) -> Self {
        AtomicField {
            fp: (raw >> 56) as u8,
            size_class: (raw >> 48) as u8,
            ptr: raw & PTR_MASK,
        }
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.encode() == 0
    }

    /// Whether the slot holds a history entry.
    pub fn is_history(&self) -> bool {
        !self.is_empty() && self.size_class == HISTORY_SIZE_TAG
    }

    /// Whether the slot points at a live cached object.
    pub fn is_object(&self) -> bool {
        !self.is_empty() && self.size_class != HISTORY_SIZE_TAG
    }

    /// The object address referenced by a live slot.
    pub fn object_addr(&self) -> RemoteAddr {
        RemoteAddr::new(
            (self.ptr >> PTR_OFFSET_BITS) as u16,
            self.ptr & PTR_OFFSET_MASK,
        )
    }

    /// The object size in bytes implied by the size class.
    pub fn object_bytes(&self) -> u32 {
        self.size_class as u32 * SIZE_BLOCK
    }

    /// The history id stored in a history entry.
    pub fn history_id(&self) -> u64 {
        self.ptr
    }
}

/// A fully decoded slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The atomic field.
    pub atomic: AtomicField,
    /// 64-bit hash of the cached key (kept by history entries as well).
    pub hash: u64,
    /// Insert timestamp, or the history word (expert bitmap and draw odds)
    /// for history entries.
    pub insert_ts: u64,
    /// Last-access timestamp.
    pub last_ts: u64,
    /// Access frequency.
    pub freq: u64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot::empty()
    }
}

impl Default for AtomicField {
    fn default() -> Self {
        AtomicField::EMPTY
    }
}

impl Slot {
    /// An empty slot.
    pub fn empty() -> Self {
        Slot {
            atomic: AtomicField::EMPTY,
            hash: 0,
            insert_ts: 0,
            last_ts: 0,
            freq: 0,
        }
    }

    /// Decodes a slot from its 40-byte representation.
    ///
    /// A raw atomic field equal to [`ditto_dm::RECONCILE_POISON`] decodes
    /// as an **empty** slot: the word was read off a stripe copy mid- or
    /// post-cutover (the reconcile pass plants the poison as it carries
    /// each word), so there is nothing valid to see there.  Decoding it as
    /// empty keeps the value out of every CAS `expected` — an operation
    /// that targets the "empty" slot CASes against 0, fails on the
    /// poisoned word, re-translates through the directory and retries.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`SLOT_SIZE`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= SLOT_SIZE, "slot needs {SLOT_SIZE} bytes");
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte field"))
        };
        let raw_atomic = word(0);
        Slot {
            atomic: if raw_atomic == ditto_dm::RECONCILE_POISON {
                AtomicField::EMPTY
            } else {
                AtomicField::decode(raw_atomic)
            },
            hash: word(1),
            insert_ts: word(2),
            last_ts: word(3),
            freq: word(4),
        }
    }

    /// Encodes the slot to its 40-byte representation.
    pub fn to_bytes(&self) -> [u8; SLOT_SIZE] {
        let mut out = [0u8; SLOT_SIZE];
        out[0..8].copy_from_slice(&self.atomic.encode().to_le_bytes());
        out[8..16].copy_from_slice(&self.hash.to_le_bytes());
        out[16..24].copy_from_slice(&self.insert_ts.to_le_bytes());
        out[24..32].copy_from_slice(&self.last_ts.to_le_bytes());
        out[32..40].copy_from_slice(&self.freq.to_le_bytes());
        out
    }

    /// The history word of a history entry: its expert bitmap and the
    /// probability that its victim was drawn
    /// ([`crate::history::expert_bitmap`]).
    pub fn history_word(&self) -> u64 {
        self.insert_ts
    }

    /// Converts the slot's access information into algorithm [`Metadata`].
    pub fn metadata(&self) -> Metadata {
        Metadata {
            size: self.atomic.object_bytes(),
            insert_ts: self.insert_ts,
            last_ts: self.last_ts,
            freq: self.freq,
            latency_ns: 0,
            cost: 1.0,
            ext: [0; ditto_algorithms::EXT_WORDS],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_field_roundtrip_for_objects() {
        let addr = RemoteAddr::new(3, 0x12_3456_7890);
        let f = AtomicField::for_object(0xAB, 4, addr);
        let decoded = AtomicField::decode(f.encode());
        assert_eq!(decoded, f);
        assert!(decoded.is_object());
        assert!(!decoded.is_history());
        assert!(!decoded.is_empty());
        assert_eq!(decoded.object_addr(), addr);
        assert_eq!(decoded.object_bytes(), 256);
    }

    #[test]
    fn atomic_field_roundtrip_for_history() {
        let f = AtomicField::for_history(0x55, 123_456_789);
        let decoded = AtomicField::decode(f.encode());
        assert!(decoded.is_history());
        assert!(!decoded.is_object());
        assert_eq!(decoded.history_id(), 123_456_789);
        assert_eq!(decoded.fp, 0x55);
    }

    #[test]
    fn empty_slot_is_zero() {
        assert_eq!(AtomicField::EMPTY.encode(), 0);
        assert!(AtomicField::decode(0).is_empty());
        assert!(!AtomicField::decode(0).is_object());
        assert!(!AtomicField::decode(0).is_history());
    }

    #[test]
    fn reconcile_poison_decodes_as_empty_slot() {
        // A slot whose atomic word is the migration reconcile poison must
        // read back as empty: no operation may ever use the poison as a CAS
        // `expected` (it would decode as a history entry with a 2^48-1 id
        // otherwise and could be "claimed" by an insert).
        let mut bytes = [0u8; SLOT_SIZE];
        bytes[0..8].copy_from_slice(&ditto_dm::RECONCILE_POISON.to_le_bytes());
        let slot = Slot::from_bytes(&bytes);
        assert!(slot.atomic.is_empty());
        assert!(!slot.atomic.is_object());
        assert!(!slot.atomic.is_history());
    }

    #[test]
    #[should_panic]
    fn oversized_offset_is_rejected() {
        let _ = AtomicField::for_object(1, 1, RemoteAddr::new(0, 1 << 40));
    }

    #[test]
    fn pointer_overflow_is_a_typed_error() {
        // Offset overflow.
        assert_eq!(
            AtomicField::try_for_object(1, 1, RemoteAddr::new(0, 1 << 40)),
            Err(CacheError::PointerOverflow {
                mn_id: 0,
                offset: 1 << 40
            })
        );
        // Node-id overflow: the 48-bit pointer keeps only 8 bits of mn_id.
        assert_eq!(
            AtomicField::try_for_object(1, 1, RemoteAddr::new(256, 64)),
            Err(CacheError::PointerOverflow {
                mn_id: 256,
                offset: 64
            })
        );
        // The largest admissible address round-trips.
        let max = RemoteAddr::new(255, (1 << PTR_OFFSET_BITS) - 1);
        let f = AtomicField::try_for_object(1, 1, max).unwrap();
        assert_eq!(AtomicField::decode(f.encode()).object_addr(), max);
    }

    #[test]
    #[should_panic]
    fn history_tag_cannot_be_used_as_size() {
        let _ = AtomicField::for_object(1, HISTORY_SIZE_TAG, RemoteAddr::new(0, 64));
    }

    #[test]
    fn slot_bytes_roundtrip() {
        let slot = Slot {
            atomic: AtomicField::for_object(9, 5, RemoteAddr::new(0, 640)),
            hash: 0xdead_beef,
            insert_ts: 111,
            last_ts: 222,
            freq: 7,
        };
        let bytes = slot.to_bytes();
        assert_eq!(Slot::from_bytes(&bytes), slot);
        assert_eq!(bytes.len(), SLOT_SIZE);
        // Every metadata word lands at its field offset.
        let word = |off: u64| u64::from_le_bytes(bytes[off as usize..][..8].try_into().unwrap());
        let words = [OFF_HASH, OFF_INSERT_TS, OFF_LAST_TS, OFF_FREQ].map(word);
        assert_eq!(words, [0xdead_beef, 111, 222, 7]);
    }

    #[test]
    fn slot_metadata_projection() {
        let slot = Slot {
            atomic: AtomicField::for_object(9, 4, RemoteAddr::new(0, 640)),
            hash: 1,
            insert_ts: 100,
            last_ts: 500,
            freq: 3,
        };
        let m = slot.metadata();
        assert_eq!(m.size, 256);
        assert_eq!(m.insert_ts, 100);
        assert_eq!(m.last_ts, 500);
        assert_eq!(m.freq, 3);
    }

    #[test]
    fn bucket_constants_are_consistent() {
        assert_eq!(BUCKET_SIZE, 320);
        assert_eq!(SLOT_SIZE % 8, 0);
    }
}
