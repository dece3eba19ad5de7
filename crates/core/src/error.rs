//! Error type of the Ditto cache.

use ditto_dm::DmError;
use std::fmt;

/// Result alias for cache operations.
pub type CacheResult<T> = Result<T, CacheError>;

/// Errors reported while building or operating a Ditto cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// An expert algorithm name could not be resolved.
    UnknownAlgorithm(String),
    /// The underlying DM substrate reported an error.
    Dm(DmError),
    /// An object exceeds the maximum representable size class.
    ObjectTooLarge {
        /// Requested object size in bytes (key + value + headers).
        bytes: usize,
        /// Maximum supported size in bytes.
        max: usize,
    },
    /// A remote address does not fit the 48-bit slot pointer encoding
    /// (memory-node id ≥ 256 or offset ≥ 2^40).
    PointerOverflow {
        /// Offending memory-node id.
        mn_id: u16,
        /// Offending byte offset.
        offset: u64,
    },
    /// A `Set` gave up after its retries: it neither published its value
    /// nor invalidated the key.  A publish CAS judged lost may still have
    /// landed, so the write counts as issued but not completed.
    SetDropped {
        /// Whether the give-up found the key absent from the table; `false`
        /// means an older value may still be installed (or the table could
        /// not be read).
        key_absent: bool,
    },
    /// A `Set` found no memory for its object even after evicting.  On a
    /// pool sized for the cache's capacity this is a sizing bug rather than
    /// a run-time condition: the object is larger than the room eviction can
    /// free.  Nothing was written.
    OutOfMemory {
        /// The object's encoded size in bytes.
        bytes: usize,
        /// Allocation attempts made before giving up.
        attempts: usize,
        /// How many of the evictions those attempts ran took a victim out.
        evictions_won: u64,
        /// Blocks on the client's local free ranges when it gave up.
        free_blocks: u64,
        /// Blocks the client had allocated and not freed.
        live_blocks: u64,
        /// Segments the client had fetched from the memory nodes.
        segments_fetched: u64,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            CacheError::UnknownAlgorithm(name) => write!(f, "unknown caching algorithm: {name}"),
            CacheError::Dm(e) => write!(f, "disaggregated-memory error: {e}"),
            CacheError::ObjectTooLarge { bytes, max } => {
                write!(
                    f,
                    "object of {bytes} bytes exceeds the maximum of {max} bytes"
                )
            }
            CacheError::PointerOverflow { mn_id, offset } => write!(
                f,
                "address mn{mn_id}+0x{offset:x} does not fit the 48-bit slot pointer"
            ),
            CacheError::SetDropped { key_absent } => write!(
                f,
                "set dropped: neither published nor invalidated ({})",
                if *key_absent {
                    "key absent"
                } else {
                    "an older value may remain"
                }
            ),
            CacheError::OutOfMemory {
                bytes,
                attempts,
                evictions_won,
                free_blocks,
                live_blocks,
                segments_fetched,
            } => write!(
                f,
                "unable to free memory for a {bytes}-byte object after {attempts} attempts \
                 ({evictions_won} evictions won; local free blocks {free_blocks}, live blocks \
                 {live_blocks}, segments fetched {segments_fetched})"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<DmError> for CacheError {
    fn from(e: DmError) -> Self {
        CacheError::Dm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CacheError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(CacheError::UnknownAlgorithm("zap".into())
            .to_string()
            .contains("zap"));
        assert!(CacheError::ObjectTooLarge { bytes: 10, max: 5 }
            .to_string()
            .contains("10"));
        assert!(CacheError::SetDropped { key_absent: true }
            .to_string()
            .contains("key absent"));
        let oom = CacheError::OutOfMemory {
            bytes: 640,
            attempts: 256,
            evictions_won: 3,
            free_blocks: 1,
            live_blocks: 2,
            segments_fetched: 4,
        };
        assert_eq!(
            oom.to_string(),
            "unable to free memory for a 640-byte object after 256 attempts (3 evictions \
             won; local free blocks 1, live blocks 2, segments fetched 4)"
        );
    }

    #[test]
    fn dm_errors_convert() {
        let e: CacheError = DmError::NoSuchNode { mn_id: 3 }.into();
        assert!(matches!(
            e,
            CacheError::Dm(DmError::NoSuchNode { mn_id: 3 })
        ));
    }
}
