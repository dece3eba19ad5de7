//! RPC services executed by the memory-node controller.
//!
//! Memory nodes on DM have only a weak controller (1–2 cores) that is kept
//! off the data path.  Ditto uses it for memory management (`ALLOC`/`FREE`)
//! and for the lazy expert-weight update; the CliqueMap baseline additionally
//! uses it for `Set` operations and access-information merging, which is
//! exactly what makes CliqueMap CPU-bound in §5.3.
//!
//! A service is identified by a `u8` id and implements [`RpcHandler`].  One
//! shape serves every layer: the caller owns both buffers, the handler
//! writes its reply into the front of the caller's `reply` buffer and
//! reports the reply length plus the controller CPU time the call consumed,
//! which [`crate::PoolStats`] charges against the node's CPU budget.  A
//! caller sizes `reply` for the service's largest reply (the allocator's is
//! [`crate::alloc::AllocService::REPLY_LEN`], 17 bytes); a reply that does
//! not fit fails with [`crate::DmError::RpcFailed`] before the handler changes any
//! state ([`wire::reply`]).

use crate::error::DmResult;
use crate::memnode::MemoryNode;

/// Well-known service id of the built-in segment allocator.
pub const ALLOC_SERVICE: u8 = 0;
/// Service id conventionally used by Ditto's global expert-weight service.
pub const WEIGHT_SERVICE: u8 = 1;
/// Service id conventionally used by the CliqueMap baseline server.
pub const CLIQUEMAP_SERVICE: u8 = 2;

/// An RPC posted and not waited for ([`crate::DmClient::post_rpc`]): the
/// reply's length in the caller's buffer and when it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostedRpc {
    /// Bytes of the reply at the front of the caller's `reply` buffer.
    pub len: usize,
    /// Simulated time at which the reply reaches the client.
    pub arrival_ns: u64,
}

/// A service running on the memory-node controller.
///
/// Handlers execute synchronously in the calling client's thread (the
/// substrate is in-process) but their cost is charged to the *memory node's*
/// CPU budget, so a saturated controller stretches the simulated run time.
pub trait RpcHandler: Send + Sync {
    /// Handles one request against the owning memory node, writing the
    /// reply into the front of `reply`; returns the reply length and the
    /// controller CPU nanoseconds.  A reply longer than `reply` fails with
    /// [`crate::DmError::RpcFailed`] and leaves the node's state as it was.
    fn handle(&self, node: &MemoryNode, request: &[u8], reply: &mut [u8])
        -> DmResult<(usize, u64)>;
}

impl<F> RpcHandler for F
where
    F: Fn(&MemoryNode, &[u8], &mut [u8]) -> DmResult<(usize, u64)> + Send + Sync,
{
    fn handle(
        &self,
        node: &MemoryNode,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<(usize, u64)> {
        self(node, request, reply)
    }
}

/// Helpers for the simple wire formats of the built-in services.
pub mod wire {
    use crate::error::{DmError, DmResult};

    /// The front `len` bytes of the caller's `reply` buffer, for a service
    /// to write a `len`-byte reply into — or [`DmError::RpcFailed`] when
    /// the reply does not fit.  Services call it before they change state.
    pub fn reply(reply: &mut [u8], len: usize) -> DmResult<&mut [u8]> {
        let cap = reply.len();
        reply.get_mut(..len).ok_or_else(|| DmError::RpcFailed {
            reason: format!("{len}-byte reply exceeds the caller's {cap}-byte buffer"),
        })
    }

    /// Reads a `u64` at `offset`, returning `None` if out of range.
    pub fn get_u64(buf: &[u8], offset: usize) -> Option<u64> {
        let bytes = buf.get(offset..offset + 8)?;
        Some(u64::from_le_bytes(
            bytes.try_into().expect("slice is 8 bytes"),
        ))
    }

    /// Reads an `f64` at `offset`, returning `None` if out of range.
    pub fn get_f64(buf: &[u8], offset: usize) -> Option<f64> {
        let bytes = buf.get(offset..offset + 8)?;
        Some(f64::from_le_bytes(
            bytes.try_into().expect("slice is 8 bytes"),
        ))
    }

    /// Reads a `u32` at `offset`, returning `None` if out of range.
    pub fn get_u32(buf: &[u8], offset: usize) -> Option<u32> {
        let bytes = buf.get(offset..offset + 4)?;
        Some(u32::from_le_bytes(
            bytes.try_into().expect("slice is 4 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_u64_roundtrip() {
        let buf = 0xdead_beef_cafe_f00du64.to_le_bytes();
        assert_eq!(wire::get_u64(&buf, 0), Some(0xdead_beef_cafe_f00d));
        assert_eq!(wire::get_u64(&buf, 1), None);
    }

    #[test]
    fn wire_f64_roundtrip() {
        let buf = (-1.25f64).to_le_bytes();
        assert_eq!(wire::get_f64(&buf, 0), Some(-1.25));
    }

    #[test]
    fn wire_u32_roundtrip() {
        let buf = 77u32.to_le_bytes();
        assert_eq!(wire::get_u32(&buf, 0), Some(77));
        assert_eq!(wire::get_u32(&buf, 2), None);
    }

    #[test]
    fn closure_implements_handler() {
        let handler = |_node: &MemoryNode, req: &[u8], reply: &mut [u8]| {
            wire::reply(reply, req.len())?.copy_from_slice(req);
            Ok((req.len(), 100))
        };
        // Only checks that the blanket impl applies; execution is covered by
        // pool-level tests.
        fn assert_handler<H: RpcHandler>(_: &H) {}
        assert_handler(&handler);
    }

    #[test]
    fn service_ids_are_distinct() {
        let ids = [ALLOC_SERVICE, WEIGHT_SERVICE, CLIQUEMAP_SERVICE];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
