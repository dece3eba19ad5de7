//! Error types for the DM substrate.

use std::fmt;

/// Result alias used across the DM substrate.
pub type DmResult<T> = Result<T, DmError>;

/// Errors returned by memory-pool and verb operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmError {
    /// The requested remote address range falls outside the memory node.
    OutOfBounds {
        /// Offending memory-node id.
        mn_id: u16,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Capacity of the memory node in bytes.
        capacity: u64,
    },
    /// An atomic verb targeted an address that is not 8-byte aligned.
    Unaligned {
        /// Requested offset.
        offset: u64,
    },
    /// The memory node has no free memory for the requested allocation.
    OutOfMemory {
        /// Requested size in bytes.
        requested: u64,
        /// Bytes still available on the node.
        available: u64,
    },
    /// The referenced memory node does not exist in the pool.
    NoSuchNode {
        /// Offending memory-node id.
        mn_id: u16,
    },
    /// An RPC targeted a service id with no registered handler.
    NoSuchService {
        /// Offending service id.
        service: u8,
    },
    /// An RPC handler rejected the request.
    RpcFailed {
        /// Human-readable reason propagated from the handler.
        reason: String,
    },
    /// An allocation request exceeded the configured segment size.
    AllocationTooLarge {
        /// Requested size in bytes.
        requested: u64,
        /// Maximum size a single allocation may have.
        max: u64,
    },
    /// A remote address does not fit the packed 16/48-bit encoding.
    AddressOverflow {
        /// Offending memory-node id.
        mn_id: u16,
        /// Offending byte offset.
        offset: u64,
    },
    /// A pool-topology change was rejected (duplicate add, draining the
    /// last node, node limit, ...).
    Topology {
        /// Human-readable reason.
        reason: String,
    },
    /// The referenced memory node was decommissioned with
    /// [`crate::MemoryPool::remove_node`] after draining to empty.
    NodeRemoved {
        /// Offending memory-node id.
        mn_id: u16,
    },
    /// A verb completed in error (injected by the configured
    /// [`crate::FaultPlan`], or the target NIC NAK'd the request).
    ///
    /// Transient: the verb may be retried, typically after a backoff.
    VerbFailed {
        /// Memory node the verb targeted.
        mn_id: u16,
    },
    /// A verb timed out: no completion arrived within the retransmission
    /// window.  Injected by the configured [`crate::FaultPlan`], either as
    /// a transient timeout or because the target node fail-stopped (check
    /// [`crate::DmClient::node_failed`] to tell the two apart — a verb to a
    /// fail-stopped node is not worth retrying).
    VerbTimeout {
        /// Memory node the verb targeted.
        mn_id: u16,
    },
}

impl fmt::Display for DmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmError::OutOfBounds {
                mn_id,
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of bounds on MN {mn_id} (capacity {capacity})"
            ),
            DmError::Unaligned { offset } => {
                write!(f, "atomic verb on unaligned offset {offset}")
            }
            DmError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of memory: requested {requested} bytes, {available} available"
            ),
            DmError::NoSuchNode { mn_id } => write!(f, "memory node {mn_id} does not exist"),
            DmError::NoSuchService { service } => {
                write!(f, "no RPC handler registered for service {service}")
            }
            DmError::RpcFailed { reason } => write!(f, "rpc failed: {reason}"),
            DmError::AllocationTooLarge { requested, max } => {
                write!(f, "allocation of {requested} bytes exceeds maximum {max}")
            }
            DmError::AddressOverflow { mn_id, offset } => {
                write!(f, "address mn{mn_id}+0x{offset:x} does not fit the packed encoding")
            }
            DmError::Topology { reason } => write!(f, "topology change rejected: {reason}"),
            DmError::NodeRemoved { mn_id } => {
                write!(f, "memory node {mn_id} was removed from the pool")
            }
            DmError::VerbFailed { mn_id } => {
                write!(f, "verb to memory node {mn_id} completed in error")
            }
            DmError::VerbTimeout { mn_id } => {
                write!(f, "verb to memory node {mn_id} timed out")
            }
        }
    }
}

impl std::error::Error for DmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_bounds() {
        let e = DmError::OutOfBounds {
            mn_id: 0,
            offset: 100,
            len: 8,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("out of bounds"));
        assert!(s.contains("MN 0"));
    }

    #[test]
    fn display_unaligned() {
        assert!(DmError::Unaligned { offset: 3 }.to_string().contains("3"));
    }

    #[test]
    fn display_oom() {
        let e = DmError::OutOfMemory {
            requested: 1024,
            available: 512,
        };
        assert!(e.to_string().contains("1024"));
        assert!(e.to_string().contains("512"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&DmError::NoSuchNode { mn_id: 7 });
    }
}
