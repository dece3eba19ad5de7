//! RPC services executed by the memory-node controller.
//!
//! Memory nodes on DM have only a weak controller (1–2 cores) that is kept
//! off the data path.  Ditto uses it for memory management (`ALLOC`/`FREE`)
//! and for the lazy expert-weight update; the CliqueMap baseline additionally
//! uses it for `Set` operations and access-information merging, which is
//! exactly what makes CliqueMap CPU-bound in §5.3.
//!
//! A service is identified by a `u8` id and implements [`RpcHandler`].  The
//! handler returns the response bytes plus the controller CPU time the call
//! consumed, which [`crate::PoolStats`] charges against the node's CPU
//! budget.

use crate::error::{DmError, DmResult};
use crate::memnode::MemoryNode;

/// Well-known service id of the built-in segment allocator.
pub const ALLOC_SERVICE: u8 = 0;
/// Service id conventionally used by Ditto's global expert-weight service.
pub const WEIGHT_SERVICE: u8 = 1;
/// Service id conventionally used by the CliqueMap baseline server.
pub const CLIQUEMAP_SERVICE: u8 = 2;
/// Service id conventionally used by the monolithic (Redis-like) baseline.
pub const MONOLITHIC_SERVICE: u8 = 3;
/// First service id free for user extensions.
pub const USER_SERVICE_BASE: u8 = 16;

/// Result of a handled RPC: the reply payload plus the controller CPU cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcOutcome {
    /// Serialized reply returned to the client.
    pub response: Vec<u8>,
    /// Controller CPU nanoseconds consumed while handling the request.
    pub cpu_ns: u64,
}

impl RpcOutcome {
    /// Convenience constructor.
    pub fn new(response: Vec<u8>, cpu_ns: u64) -> Self {
        RpcOutcome { response, cpu_ns }
    }
}

/// A service running on the memory-node controller.
///
/// Handlers execute synchronously in the calling client's thread (the
/// substrate is in-process) but their cost is charged to the *memory node's*
/// CPU budget, so a saturated controller stretches the simulated run time.
pub trait RpcHandler: Send + Sync {
    /// Handles one request against the owning memory node.
    fn handle(&self, node: &MemoryNode, request: &[u8]) -> DmResult<RpcOutcome>;

    /// Handles one request, writing the reply into the caller's `response`
    /// buffer; returns the reply length and the controller CPU nanoseconds.
    /// The default goes through [`RpcHandler::handle`]; services on an
    /// allocation-free client path override it to skip the reply `Vec`.
    fn handle_into(
        &self,
        node: &MemoryNode,
        request: &[u8],
        response: &mut [u8],
    ) -> DmResult<(usize, u64)> {
        let outcome = self.handle(node, request)?;
        let len = outcome.response.len();
        response
            .get_mut(..len)
            .ok_or_else(|| DmError::RpcFailed {
                reason: format!("{len}-byte reply exceeds the caller's buffer"),
            })?
            .copy_from_slice(&outcome.response);
        Ok((len, outcome.cpu_ns))
    }
}

impl<F> RpcHandler for F
where
    F: Fn(&MemoryNode, &[u8]) -> DmResult<RpcOutcome> + Send + Sync,
{
    fn handle(&self, node: &MemoryNode, request: &[u8]) -> DmResult<RpcOutcome> {
        self(node, request)
    }
}

/// Helpers for encoding simple wire formats used by the built-in services.
pub mod wire {
    /// Appends a `u64` in little-endian order.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at `offset`, returning `None` if out of range.
    pub fn get_u64(buf: &[u8], offset: usize) -> Option<u64> {
        let bytes = buf.get(offset..offset + 8)?;
        Some(u64::from_le_bytes(
            bytes.try_into().expect("slice is 8 bytes"),
        ))
    }

    /// Appends an `f64` in little-endian order.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Reads an `f64` at `offset`, returning `None` if out of range.
    pub fn get_f64(buf: &[u8], offset: usize) -> Option<f64> {
        let bytes = buf.get(offset..offset + 8)?;
        Some(f64::from_le_bytes(
            bytes.try_into().expect("slice is 8 bytes"),
        ))
    }

    /// Appends a `u32` in little-endian order.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
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
        let mut buf = Vec::new();
        wire::put_u64(&mut buf, 0xdead_beef_cafe_f00d);
        assert_eq!(wire::get_u64(&buf, 0), Some(0xdead_beef_cafe_f00d));
        assert_eq!(wire::get_u64(&buf, 1), None);
    }

    #[test]
    fn wire_f64_roundtrip() {
        let mut buf = Vec::new();
        wire::put_f64(&mut buf, -1.25);
        assert_eq!(wire::get_f64(&buf, 0), Some(-1.25));
    }

    #[test]
    fn wire_u32_roundtrip() {
        let mut buf = Vec::new();
        wire::put_u32(&mut buf, 77);
        assert_eq!(wire::get_u32(&buf, 0), Some(77));
        assert_eq!(wire::get_u32(&buf, 2), None);
    }

    #[test]
    fn closure_implements_handler() {
        let handler = |_node: &MemoryNode, req: &[u8]| Ok(RpcOutcome::new(req.to_vec(), 100));
        // Only checks that the blanket impl applies; execution is covered by
        // pool-level tests.
        fn assert_handler<H: RpcHandler>(_: &H) {}
        assert_handler(&handler);
    }

    #[test]
    fn service_ids_are_distinct() {
        let ids = [
            ALLOC_SERVICE,
            WEIGHT_SERVICE,
            CLIQUEMAP_SERVICE,
            MONOLITHIC_SERVICE,
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
        const { assert!(USER_SERVICE_BASE > MONOLITHIC_SERVICE) }
    }
}
