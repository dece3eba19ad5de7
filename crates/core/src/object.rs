//! On-memory-pool object layout.
//!
//! A cached object occupies a whole number of 64-byte blocks:
//!
//! ```text
//! [ key_len: u16 | val_len: u32 | flags: u16 ]  -- 8-byte length header
//! [ checksum: u64                            ]  -- lane mix over header + key + value
//! [ extension metadata: EXT_WORDS × 8 bytes  ]  -- only when an expert needs it (§4.4)
//! [ key bytes ][ value bytes ][ padding to 64 ]
//! ```
//!
//! # Why a checksum
//!
//! Clients read objects with one-sided READs and *no* locks, so a reader
//! can race an eviction (or a same-key update) that frees the blocks and
//! reuses them for a new object while the READ is in flight.  The embedded
//! key catches reuse for a *different* key, but reuse for the *same* key
//! can hand the reader a torn mix of old and new bytes.  The checksum —
//! computed over the length header and the key/value bytes at encode time
//! and verified by [`view`] — makes any torn read fail validation so the
//! Get path retries from the bucket, exactly like a raced eviction.  The
//! extension-metadata words are deliberately *excluded*: experts update
//! them in place on every hit (racy by design), which must not invalidate
//! the object.

use ditto_algorithms::EXT_WORDS;

/// Size of the fixed object header in bytes (length header + checksum).
pub const OBJECT_HEADER: usize = 16;
/// Size of the optional extension-metadata header in bytes.
pub const EXT_HEADER: usize = EXT_WORDS * 8;
/// Flag bit recorded when the extension header is present.
const FLAG_HAS_EXT: u16 = 1;

/// Total encoded length (before block rounding) of an object.
pub fn encoded_len(key_len: usize, value_len: usize, with_ext: bool) -> usize {
    OBJECT_HEADER + if with_ext { EXT_HEADER } else { 0 } + key_len + value_len
}

/// Number of 64-byte blocks the object occupies.
pub fn size_class(key_len: usize, value_len: usize, with_ext: bool) -> usize {
    encoded_len(key_len, value_len, with_ext).div_ceil(64)
}

/// Encodes an object into its block representation.
///
/// Allocates a fresh buffer; the allocation-free data path uses
/// [`encode_into`] with a per-client scratch buffer instead.
///
/// # Panics
///
/// Panics if the key exceeds `u16::MAX` bytes or the value `u32::MAX` bytes.
pub fn encode(key: &[u8], value: &[u8], with_ext: bool, ext: &[u64; EXT_WORDS]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(key, value, with_ext, ext, &mut out);
    out
}

/// Encodes an object into `out`, reusing its capacity (`out` is cleared
/// first).  In steady state a client-owned `out` never reallocates.
///
/// # Panics
///
/// Panics if the key exceeds `u16::MAX` bytes or the value `u32::MAX` bytes.
pub fn encode_into(
    key: &[u8],
    value: &[u8],
    with_ext: bool,
    ext: &[u64; EXT_WORDS],
    out: &mut Vec<u8>,
) {
    assert!(key.len() <= u16::MAX as usize, "key too long");
    assert!(value.len() <= u32::MAX as usize, "value too long");
    let len = encoded_len(key.len(), value.len(), with_ext);
    let padded = len.div_ceil(64) * 64;
    out.clear();
    out.resize(padded, 0);
    out[0..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    out[2..6].copy_from_slice(&(value.len() as u32).to_le_bytes());
    let flags: u16 = if with_ext { FLAG_HAS_EXT } else { 0 };
    out[6..8].copy_from_slice(&flags.to_le_bytes());
    let sum = integrity_checksum(&out[0..8], key, value);
    out[8..16].copy_from_slice(&sum.to_le_bytes());
    let mut cursor = OBJECT_HEADER;
    if with_ext {
        for (i, word) in ext.iter().enumerate() {
            out[cursor + i * 8..cursor + i * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        cursor += EXT_HEADER;
    }
    out[cursor..cursor + key.len()].copy_from_slice(key);
    cursor += key.len();
    out[cursor..cursor + value.len()].copy_from_slice(value);
}

/// A decoded object view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedObject {
    /// The stored key.
    pub key: Vec<u8>,
    /// The stored value.
    pub value: Vec<u8>,
    /// The extension metadata words (zero when absent).
    pub ext: [u64; EXT_WORDS],
    /// Whether an extension header was present.
    pub has_ext: bool,
}

/// A zero-copy view of an encoded object, borrowing the underlying bytes.
///
/// The allocation-free data path decodes objects through this view so a
/// `Get` can validate the key and copy the value straight out of the
/// client's scratch buffer without intermediate `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectView<'a> {
    /// The stored key.
    pub key: &'a [u8],
    /// The stored value.
    pub value: &'a [u8],
    /// The extension metadata words (zero when absent).
    pub ext: [u64; EXT_WORDS],
    /// Whether an extension header was present.
    pub has_ext: bool,
}

/// Decodes a borrowed view of an object from the bytes read out of the
/// memory pool, without allocating.
///
/// Returns `None` if the header is inconsistent with the available bytes
/// or the integrity checksum does not match (e.g. the slot raced with an
/// eviction — or a same-key update — and the blocks were reused while the
/// READ was in flight; see the module docs).
pub fn view(bytes: &[u8]) -> Option<ObjectView<'_>> {
    if bytes.len() < OBJECT_HEADER {
        return None;
    }
    let key_len = u16::from_le_bytes(bytes[0..2].try_into().ok()?) as usize;
    let val_len = u32::from_le_bytes(bytes[2..6].try_into().ok()?) as usize;
    let flags = u16::from_le_bytes(bytes[6..8].try_into().ok()?);
    let stored_sum = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let has_ext = flags & FLAG_HAS_EXT != 0;
    let mut cursor = OBJECT_HEADER;
    let mut ext = [0u64; EXT_WORDS];
    if has_ext {
        if bytes.len() < cursor + EXT_HEADER {
            return None;
        }
        for (i, word) in ext.iter_mut().enumerate() {
            *word = u64::from_le_bytes(bytes[cursor + i * 8..cursor + i * 8 + 8].try_into().ok()?);
        }
        cursor += EXT_HEADER;
    }
    let needed = cursor.checked_add(key_len)?.checked_add(val_len)?;
    if bytes.len() < needed {
        return None;
    }
    let key = &bytes[cursor..cursor + key_len];
    cursor += key_len;
    let value = &bytes[cursor..cursor + val_len];
    if integrity_checksum(&bytes[0..8], key, value) != stored_sum {
        return None;
    }
    Some(ObjectView {
        key,
        value,
        ext,
        has_ext,
    })
}

/// A multiply-xorshift mix over the 8-byte length header and the key/value
/// bytes, eight bytes to a step: each part's length, then its 8-byte lanes,
/// then its zero-padded byte tail.
///
/// Every step is a bijection of the state for a fixed word and of the word
/// for a fixed state, so two inputs that differ in one word — any single
/// corrupted byte — always checksum differently, at an eighth of a
/// byte-at-a-time hash's dependent multiplies.
///
/// The checksum word itself and the extension-metadata words are excluded:
/// experts rewrite the ext words in place on every hit, which must not
/// invalidate the object (the words are advisory metadata, racy by design).
fn integrity_checksum(header: &[u8], key: &[u8], value: &[u8]) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 29)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in [header, key, value] {
        h = mix(h, part.len() as u64);
        let lanes = part.chunks_exact(8);
        let tail = lanes.remainder();
        for lane in lanes {
            h = mix(h, u64::from_le_bytes(lane.try_into().expect("8-byte lane")));
        }
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            h = mix(h, u64::from_le_bytes(word));
        }
    }
    h
}

/// Decodes an object from the bytes read out of the memory pool, copying the
/// key and value into owned buffers (convenience wrapper over [`view`]).
pub fn decode(bytes: &[u8]) -> Option<DecodedObject> {
    let v = view(bytes)?;
    Some(DecodedObject {
        key: v.key.to_vec(),
        value: v.value.to_vec(),
        ext: v.ext,
        has_ext: v.has_ext,
    })
}

/// Byte offset of the extension metadata inside an encoded object.
pub fn ext_offset() -> u64 {
    OBJECT_HEADER as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_without_extension() {
        let bytes = encode(b"user1", b"hello world", false, &[0; EXT_WORDS]);
        assert_eq!(bytes.len() % 64, 0);
        let d = decode(&bytes).unwrap();
        assert_eq!(d.key, b"user1");
        assert_eq!(d.value, b"hello world");
        assert!(!d.has_ext);
    }

    #[test]
    fn roundtrip_with_extension() {
        let ext = [1, 2, 3, 4];
        let bytes = encode(b"k", &vec![7u8; 300], true, &ext);
        let d = decode(&bytes).unwrap();
        assert_eq!(d.ext, ext);
        assert!(d.has_ext);
        assert_eq!(d.value.len(), 300);
    }

    #[test]
    fn size_class_matches_encoded_length() {
        for (k, v, e) in [(5usize, 256usize, false), (20, 256, true), (1, 1, false)] {
            let bytes = encode(&vec![b'k'; k], &vec![b'v'; v], e, &[0; EXT_WORDS]);
            assert_eq!(bytes.len(), size_class(k, v, e) * 64);
        }
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = encode(b"user1", &[1u8; 100], false, &[0; EXT_WORDS]);
        assert!(decode(&bytes[..4]).is_none());
        assert!(decode(&bytes[..16]).is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn garbage_header_is_rejected() {
        // A header claiming a huge value length must not panic.
        let mut bytes = vec![0u8; 64];
        bytes[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn view_borrows_without_copying() {
        let bytes = encode(b"user1", b"hello world", false, &[0; EXT_WORDS]);
        let v = view(&bytes).unwrap();
        assert_eq!(v.key, b"user1");
        assert_eq!(v.value, b"hello world");
        assert!(!v.has_ext);
        // The view points into the original buffer.
        assert_eq!(v.key.as_ptr(), bytes[OBJECT_HEADER..].as_ptr());
    }

    #[test]
    fn encode_into_reuses_capacity() {
        let mut buf = Vec::new();
        encode_into(b"key", &[1u8; 200], false, &[0; EXT_WORDS], &mut buf);
        let first = buf.len();
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        encode_into(b"key", &[2u8; 100], false, &[0; EXT_WORDS], &mut buf);
        assert!(buf.len() <= first);
        assert_eq!(
            buf.capacity(),
            cap,
            "re-encoding a smaller object must not reallocate"
        );
        assert_eq!(buf.as_ptr(), ptr);
        let d = decode(&buf).unwrap();
        assert_eq!(d.value, vec![2u8; 100]);
    }

    #[test]
    fn torn_value_bytes_fail_the_checksum() {
        // A reader racing a block reuse for the *same* key sees a mix of old
        // and new bytes: same key, corrupted value.  The checksum must catch
        // it (the key check alone cannot).
        let mut bytes = encode(b"user1", &[7u8; 100], false, &[0; EXT_WORDS]);
        let val_start = OBJECT_HEADER + 5;
        bytes[val_start + 50] ^= 0xFF;
        assert!(view(&bytes).is_none(), "torn value must fail validation");
        bytes[val_start + 50] ^= 0xFF;
        assert!(view(&bytes).is_some(), "restored bytes validate again");
    }

    #[test]
    fn a_one_byte_flip_anywhere_in_header_key_or_value_is_caught() {
        // Lengths that leave a byte tail in the key and in the value, with
        // and without extension words (which sit outside the checksum).
        for with_ext in [false, true] {
            let key = b"user:0001234";
            let value: Vec<u8> = (0..203u32).map(|i| (i * 37 % 251) as u8).collect();
            let bytes = encode(key, &value, with_ext, &[5, 6, 7, 8]);
            let body = OBJECT_HEADER + if with_ext { EXT_HEADER } else { 0 };
            let covered = (0..8).chain(body..body + key.len() + value.len());
            for at in covered {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut torn = bytes.clone();
                    torn[at] ^= mask;
                    assert!(
                        view(&torn).is_none(),
                        "flip {mask:#04x} at byte {at} (ext {with_ext}) went unnoticed"
                    );
                }
            }
        }
    }

    #[test]
    fn in_place_ext_updates_keep_the_checksum_valid() {
        // Experts rewrite the ext words in place on every hit; the checksum
        // deliberately excludes them.
        let mut bytes = encode(b"k", &[3u8; 40], true, &[1, 2, 3, 4]);
        let off = ext_offset() as usize;
        bytes[off..off + 8].copy_from_slice(&99u64.to_le_bytes());
        let v = view(&bytes).expect("ext rewrite must not invalidate the object");
        assert_eq!(v.ext[0], 99);
        assert_eq!(v.value, &[3u8; 40][..]);
    }

    #[test]
    fn empty_key_and_value_are_supported() {
        let bytes = encode(b"", b"", false, &[0; EXT_WORDS]);
        let d = decode(&bytes).unwrap();
        assert!(d.key.is_empty());
        assert!(d.value.is_empty());
    }
}
