//! Two-level memory management (FUSEE-style) used by Ditto.
//!
//! The memory-node controller hands out coarse *segments* through the
//! `ALLOC`/`FREE` RPC interface; clients carve fixed 64-byte blocks out of
//! their current segment and recycle freed blocks locally.  After the cache
//! warms up, evictions keep refilling the local free lists, so steady-state
//! `Set` operations allocate without any extra round trip — matching the
//! paper's assumption that memory management stays off the data path.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::{DmError, DmResult};
use crate::memnode::MemoryNode;
use crate::rpc::{wire, RpcHandler, ALLOC_SERVICE};
use std::collections::BTreeMap;

/// Granularity of client-side block allocation, matching the 64-byte memory
/// blocks of the sample-friendly hash table's `size` field.
pub const BLOCK_SIZE: u64 = 64;

/// Default size of a segment requested from the memory node.
pub const DEFAULT_SEGMENT_SIZE: u64 = 1 << 20;

/// Opcode for segment allocation.
const OP_ALLOC: u8 = 0;
/// Opcode for segment release.
const OP_FREE: u8 = 1;
/// Response status for success.
const STATUS_OK: u8 = 0;
/// Response status for an out-of-memory condition.
const STATUS_OOM: u8 = 1;

/// Controller CPU cost of one allocation RPC (nanoseconds).
const ALLOC_CPU_NS: u64 = 600;

/// The controller-side segment allocation service (service id
/// [`ALLOC_SERVICE`]).
#[derive(Default)]
pub struct AllocService {}

impl AllocService {
    /// Length of the service's longest reply, an `ALLOC` that ran out of
    /// memory (`[status, requested: u64, available: u64]`): the reply buffer
    /// every caller of the service passes.  A grant's reply is 9 bytes and
    /// a `FREE`'s 1.
    pub const REPLY_LEN: usize = 17;

    /// Creates the service.
    pub fn new() -> Self {
        AllocService {}
    }

    /// Encodes an `ALLOC` request for `size` bytes on behalf of client
    /// `owner`.
    ///
    /// The request wire is `[opcode, size: u32, owner: u32]` — the owner id
    /// rides in the four bytes a u64 size would have wasted, so recording
    /// the grantee for crash recovery costs no extra wire bytes (segment
    /// grants are far below the 4 GiB a u32 carries).
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds `u32::MAX` bytes.
    pub fn encode_alloc(size: u64, owner: u32) -> [u8; 9] {
        let size = u32::try_from(size)
            .unwrap_or_else(|_| panic!("segment grants are limited to 4 GiB, asked for {size}"));
        let mut req = [OP_ALLOC; 9];
        req[1..5].copy_from_slice(&size.to_le_bytes());
        req[5..].copy_from_slice(&owner.to_le_bytes());
        req
    }

    /// Encodes a `FREE` request (`[opcode, offset: u64, size: u64]`).
    pub fn encode_free(offset: u64, size: u64) -> [u8; 17] {
        let mut req = [OP_FREE; 17];
        req[1..9].copy_from_slice(&offset.to_le_bytes());
        req[9..].copy_from_slice(&size.to_le_bytes());
        req
    }

    /// Decodes an `ALLOC` response into the segment offset.
    pub fn decode_alloc(resp: &[u8]) -> DmResult<u64> {
        match resp.first() {
            Some(&STATUS_OK) => wire::get_u64(resp, 1).ok_or_else(|| DmError::RpcFailed {
                reason: "short ALLOC response".to_string(),
            }),
            Some(&STATUS_OOM) => Err(DmError::OutOfMemory {
                requested: wire::get_u64(resp, 1).unwrap_or(0),
                available: wire::get_u64(resp, 9).unwrap_or(0),
            }),
            _ => Err(DmError::RpcFailed {
                reason: "malformed ALLOC response".to_string(),
            }),
        }
    }

    /// One `ALLOC` round trip: asks node `mn_id`'s controller for `size`
    /// bytes on behalf of `client`; returns the granted offset.
    pub fn alloc(client: &DmClient, mn_id: u16, size: u64) -> DmResult<u64> {
        let request = Self::encode_alloc(size, client.client_id());
        let mut reply = [0; Self::REPLY_LEN];
        let len = client.rpc(mn_id, ALLOC_SERVICE, &request, &mut reply)?;
        Self::decode_alloc(&reply[..len])
    }

    /// One `FREE` round trip: returns `size` bytes at `offset` to node
    /// `mn_id`'s controller.
    pub fn free(client: &DmClient, mn_id: u16, offset: u64, size: u64) -> DmResult<()> {
        let request = Self::encode_free(offset, size);
        let mut reply = [0; Self::REPLY_LEN];
        client
            .rpc(mn_id, ALLOC_SERVICE, &request, &mut reply)
            .map(drop)
    }
}

impl RpcHandler for AllocService {
    fn handle(
        &self,
        node: &MemoryNode,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<(usize, u64)> {
        let short = |op| DmError::RpcFailed {
            reason: format!("short {op} request"),
        };
        match request.first() {
            Some(&OP_ALLOC) => {
                let size = wire::get_u32(request, 1).ok_or_else(|| short("ALLOC"))? as u64;
                let owner = wire::get_u32(request, 5).ok_or_else(|| short("ALLOC"))?;
                // Room for the longer, out-of-memory reply before granting.
                let reply = wire::reply(reply, Self::REPLY_LEN)?;
                let len = match node.alloc_segment_for(size, owner) {
                    Ok(offset) => {
                        reply[0] = STATUS_OK;
                        reply[1..9].copy_from_slice(&offset.to_le_bytes());
                        9
                    }
                    Err(DmError::OutOfMemory {
                        requested,
                        available,
                    }) => {
                        reply[0] = STATUS_OOM;
                        reply[1..9].copy_from_slice(&requested.to_le_bytes());
                        reply[9..17].copy_from_slice(&available.to_le_bytes());
                        17
                    }
                    Err(e) => return Err(e),
                };
                Ok((len, ALLOC_CPU_NS))
            }
            Some(&OP_FREE) => {
                let offset = wire::get_u64(request, 1).ok_or_else(|| short("FREE"))?;
                let size = wire::get_u64(request, 9).ok_or_else(|| short("FREE"))?;
                wire::reply(reply, 1)?[0] = STATUS_OK;
                node.free_segment(offset, size);
                Ok((1, ALLOC_CPU_NS))
            }
            Some(other) => Err(DmError::RpcFailed {
                reason: format!("unknown allocation opcode {other}"),
            }),
            None => Err(DmError::RpcFailed {
                reason: "empty allocation request".to_string(),
            }),
        }
    }
}

/// Client-side block allocator (the second level of the scheme).
///
/// One instance is owned by each cache client.  Freed blocks are recycled
/// locally; new segments are fetched with an `ALLOC` RPC only when the local
/// free ranges and the current segment are exhausted.
///
/// Freed space is kept as *coalescing ranges* (offset → block count,
/// adjacent ranges merged) rather than exact-size lists.  With many clients
/// sharing a full pool this matters: eviction victims are picked by cache
/// priority, not size, so a client recycling small victims must be able to
/// merge and split them — exact-size lists starve large allocations while
/// plenty of free blocks sit fragmented.
pub struct ClientAllocator {
    mn_id: u16,
    segment_size: u64,
    current_offset: u64,
    current_remaining: u64,
    /// Free ranges: start offset → length in blocks (adjacent ranges merged).
    free_ranges: BTreeMap<u64, u64>,
    allocated_blocks: u64,
    segments_fetched: u64,
}

impl ClientAllocator {
    /// Creates an allocator that requests segments from memory node `mn_id`.
    pub fn new(mn_id: u16) -> Self {
        Self::with_segment_size(mn_id, DEFAULT_SEGMENT_SIZE)
    }

    /// Creates an allocator with a custom segment size.
    pub fn with_segment_size(mn_id: u16, segment_size: u64) -> Self {
        ClientAllocator {
            mn_id,
            segment_size: segment_size.max(BLOCK_SIZE),
            current_offset: 0,
            current_remaining: 0,
            free_ranges: BTreeMap::new(),
            allocated_blocks: 0,
            segments_fetched: 0,
        }
    }

    /// Rounds `size` up to a whole number of blocks.
    pub fn blocks_for(size: usize) -> u64 {
        ((size as u64).max(1)).div_ceil(BLOCK_SIZE)
    }

    /// Number of segments fetched from the memory node so far.
    pub fn segments_fetched(&self) -> u64 {
        self.segments_fetched
    }

    /// Number of blocks currently handed out (allocated minus freed).
    pub fn live_blocks(&self) -> u64 {
        self.allocated_blocks
    }

    /// Number of blocks parked on the local free ranges.
    pub fn free_blocks(&self) -> u64 {
        self.free_ranges.values().sum()
    }

    /// Allocates space for `size` bytes.
    ///
    /// Returns [`DmError::OutOfMemory`] when the memory node cannot provide a
    /// new segment; the caller is expected to evict and retry.
    pub fn alloc(&mut self, client: &DmClient, size: usize) -> DmResult<RemoteAddr> {
        let blocks = Self::blocks_for(size);
        let bytes = blocks * BLOCK_SIZE;
        if bytes > self.segment_size {
            return Err(DmError::AllocationTooLarge {
                requested: bytes,
                max: self.segment_size,
            });
        }
        if let Some(addr) = self.alloc_local(size) {
            return Ok(addr);
        }
        self.fetch_segment(client)?;
        let offset = self.current_offset;
        self.current_offset += bytes;
        self.current_remaining -= bytes;
        self.allocated_blocks += blocks;
        Ok(RemoteAddr::new(self.mn_id, offset))
    }

    /// Allocates from the local free ranges or the current segment only,
    /// without ever talking to the memory node.
    ///
    /// Returns `None` when local resources cannot serve the request.  The
    /// cache client uses this under memory pressure: once the pool is full a
    /// segment `ALLOC` RPC is doomed to fail, so recycling via eviction
    /// first keeps the doomed RPC (and its round trip) off the data path.
    pub fn alloc_local(&mut self, size: usize) -> Option<RemoteAddr> {
        let blocks = Self::blocks_for(size);
        let bytes = blocks * BLOCK_SIZE;
        if bytes > self.segment_size {
            return None;
        }
        // Best-fit over the free ranges: the smallest range that holds the
        // request.  An exact fit avoids a split; otherwise the remainder
        // stays free (and re-merges with later frees).
        let best = self
            .free_ranges
            .iter()
            .filter(|&(_, &len)| len >= blocks)
            .min_by_key(|&(_, &len)| len)
            .map(|(&off, &len)| (off, len));
        if let Some((off, len)) = best {
            self.free_ranges.remove(&off);
            if len > blocks {
                self.free_ranges.insert(off + bytes, len - blocks);
            }
            self.allocated_blocks += blocks;
            return Some(RemoteAddr::new(self.mn_id, off));
        }
        if self.current_remaining >= bytes {
            let offset = self.current_offset;
            self.current_offset += bytes;
            self.current_remaining -= bytes;
            self.allocated_blocks += blocks;
            return Some(RemoteAddr::new(self.mn_id, offset));
        }
        None
    }

    /// Whether [`ClientAllocator::alloc_local`] would serve `size` bytes
    /// right now (a probe: nothing is handed out).
    pub fn can_alloc_local(&self, size: usize) -> bool {
        let blocks = Self::blocks_for(size);
        let bytes = blocks * BLOCK_SIZE;
        bytes <= self.segment_size
            && (self.current_remaining >= bytes
                || self.free_ranges.values().any(|&len| len >= blocks))
    }

    /// Returns a previously allocated range to the local free ranges,
    /// merging with adjacent free neighbours so recycled fragments grow
    /// back into spans that can serve any size class.
    pub fn free(&mut self, addr: RemoteAddr, size: usize) {
        let freed = Self::blocks_for(size);
        let mut offset = addr.offset;
        let mut blocks = freed;
        // Merge with the successor range, if adjacent.
        if let Some(&next_len) = self.free_ranges.get(&(offset + blocks * BLOCK_SIZE)) {
            self.free_ranges.remove(&(offset + blocks * BLOCK_SIZE));
            blocks += next_len;
        }
        // Merge with the predecessor range, if adjacent.
        if let Some((&prev_off, &prev_len)) = self.free_ranges.range(..offset).next_back() {
            if prev_off + prev_len * BLOCK_SIZE == offset {
                self.free_ranges.remove(&prev_off);
                offset = prev_off;
                blocks += prev_len;
            }
        }
        self.free_ranges.insert(offset, blocks);
        self.allocated_blocks = self.allocated_blocks.saturating_sub(freed);
    }

    /// Allocates exactly `size` bytes (rounded up to blocks) straight from
    /// the memory node, bypassing the local segment.
    ///
    /// This is the memory-pressure backstop: once the pool is full, a whole
    /// segment ask is doomed even though ranges released by *other* clients
    /// sit on the node's free store — the node serves those back out
    /// best-fit at any size.  One RPC per call, so the cache client only
    /// reaches for this after local recycling has failed.
    pub fn alloc_exact(&mut self, client: &DmClient, size: usize) -> DmResult<RemoteAddr> {
        let blocks = Self::blocks_for(size);
        let offset = AllocService::alloc(client, self.mn_id, blocks * BLOCK_SIZE)?;
        self.allocated_blocks += blocks;
        Ok(RemoteAddr::new(self.mn_id, offset))
    }

    /// Releases local free ranges back to the memory node (largest first)
    /// until at most `keep_blocks` blocks stay parked.  Returns the number
    /// of blocks released.
    ///
    /// With many clients sharing one full pool this is what keeps eviction
    /// churn globally usable: ranges hoarded on one client's free list are
    /// invisible to every other client, but once returned, the node merges
    /// them across clients and serves them back out to whoever asks.
    pub fn release_excess(&mut self, client: &DmClient, keep_blocks: u64) -> u64 {
        let mut released = 0;
        while self.free_blocks() > keep_blocks {
            let Some((&off, &len)) = self.free_ranges.iter().max_by_key(|&(_, &len)| len) else {
                break;
            };
            self.free_ranges.remove(&off);
            if AllocService::free(client, self.mn_id, off, len * BLOCK_SIZE).is_err() {
                // Node unreachable (e.g. decommissioned): park the range
                // again and stop — nothing else will get through either.
                self.free_ranges.insert(off, len);
                break;
            }
            released += len;
        }
        released
    }

    fn fetch_segment(&mut self, client: &DmClient) -> DmResult<()> {
        self.current_offset = AllocService::alloc(client, self.mn_id, self.segment_size)?;
        self.current_remaining = self.segment_size;
        self.segments_fetched += 1;
        Ok(())
    }
}

/// A topology-aware client allocator: one [`ClientAllocator`] per memory
/// node, with a *preferred* (stripe-local) node per allocation.
///
/// The cache passes the node that owns an object's hash-table bucket as the
/// preference, so an object's slot and value land on the same memory node
/// when possible — the slot READ and the object READ/WRITE of one operation
/// then share a NIC, and the per-node load follows the bucket striping.
/// When the preferred node cannot serve the request the allocator falls
/// back to the other *active* nodes (locals first, then segment RPCs), so
/// a striped pool only reports out-of-memory when every active node is
/// genuinely full — matching the single-node behaviour with the same total
/// capacity.
///
/// `free` routes by the address's node id, so blocks recycled from
/// evictions return to the allocator of the node they live on.  Blocks on
/// *drained* nodes are accepted back but never handed out again: draining
/// stops all new placements, so eviction churn progressively empties the
/// node until it can be removed.
pub struct StripedAllocator {
    /// Per-node allocators, indexed by `mn_id` (created lazily).
    per_node: Vec<Option<ClientAllocator>>,
    /// Active node ids in fallback order (refreshed on resize epochs).
    active: Vec<u16>,
    segment_size: u64,
}

impl StripedAllocator {
    /// Creates an allocator over the given active nodes.
    pub fn new(active: &[u16], segment_size: u64) -> Self {
        let mut this = StripedAllocator {
            per_node: Vec::new(),
            active: Vec::new(),
            segment_size,
        };
        this.set_active(active);
        this
    }

    /// Replaces the active-node set (called when the client observes a new
    /// resize epoch).  Allocators for nodes that left stay alive so their
    /// free lists keep recycling resident blocks.
    pub fn set_active(&mut self, active: &[u16]) {
        self.active.clear();
        self.active.extend_from_slice(active);
        for &mn in active {
            self.ensure_node(mn);
        }
    }

    fn ensure_node(&mut self, mn_id: u16) {
        let idx = mn_id as usize;
        if self.per_node.len() <= idx {
            self.per_node.resize_with(idx + 1, || None);
        }
        if self.per_node[idx].is_none() {
            self.per_node[idx] = Some(ClientAllocator::with_segment_size(mn_id, self.segment_size));
        }
    }

    fn node_mut(&mut self, mn_id: u16) -> &mut ClientAllocator {
        self.ensure_node(mn_id);
        self.per_node[mn_id as usize].as_mut().expect("ensured")
    }

    /// Allocates `size` bytes, preferring `preferred` and falling back to
    /// the other active nodes; local resources (free lists, open segments)
    /// are tried everywhere before any segment RPC is paid.
    ///
    /// Returns [`DmError::OutOfMemory`] only when every active node fails.
    pub fn alloc_on(
        &mut self,
        client: &DmClient,
        preferred: u16,
        size: usize,
    ) -> DmResult<RemoteAddr> {
        let mut last_err = None;
        for i in 0..=self.active.len() {
            let Some(mn) = self.fallback_node(preferred, i) else {
                continue;
            };
            // Per node: local resources first, then a segment RPC — so the
            // stripe-local preference wins whenever the preferred node has
            // any room at all.
            match self.node_mut(mn).alloc(client, size) {
                Ok(addr) => return Ok(addr),
                Err(e @ DmError::OutOfMemory { .. }) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(DmError::OutOfMemory {
            requested: size as u64,
            available: 0,
        }))
    }

    /// Allocates `size` bytes on `node` alone — local resources, then a
    /// segment RPC — for a placement worth nothing on any other node.
    pub fn alloc_at(&mut self, client: &DmClient, node: u16, size: usize) -> DmResult<RemoteAddr> {
        self.node_mut(node).alloc(client, size)
    }

    /// Allocates from local resources only (no RPC), preferring `preferred`
    /// — the memory-pressure path that recycles evicted blocks wherever
    /// they live.
    pub fn alloc_local_on(&mut self, preferred: u16, size: usize) -> Option<RemoteAddr> {
        for i in 0..=self.active.len() {
            let Some(mn) = self.fallback_node(preferred, i) else {
                continue;
            };
            if let Some(addr) = self.node_mut(mn).alloc_local(size) {
                return Some(addr);
            }
        }
        None
    }

    /// Whether [`StripedAllocator::alloc_local_on`] would serve `size`
    /// bytes right now — i.e. whether an evicting client still holds a
    /// spare for its next allocation.
    pub fn can_alloc_local(&self, size: usize) -> bool {
        self.active.iter().any(|&mn| {
            self.per_node
                .get(mn as usize)
                .and_then(Option::as_ref)
                .is_some_and(|alloc| alloc.can_alloc_local(size))
        })
    }

    /// Pressure-path backstop: asks the active nodes for an exact-size
    /// range (preferred node first, one RPC each).  Succeeds when ranges
    /// released by other clients can serve this request even though no node
    /// can spare a whole segment.
    pub fn alloc_exact_on(
        &mut self,
        client: &DmClient,
        preferred: u16,
        size: usize,
    ) -> Option<RemoteAddr> {
        for i in 0..=self.active.len() {
            let Some(mn) = self.fallback_node(preferred, i) else {
                continue;
            };
            if let Ok(addr) = self.node_mut(mn).alloc_exact(client, size) {
                return Some(addr);
            }
        }
        None
    }

    /// Releases each node's excess parked blocks back to its memory node
    /// (see [`ClientAllocator::release_excess`]); `keep_blocks` applies per
    /// node.  Returns the total number of blocks released.
    pub fn release_excess(&mut self, client: &DmClient, keep_blocks: u64) -> u64 {
        self.per_node
            .iter_mut()
            .flatten()
            .map(|alloc| alloc.release_excess(client, keep_blocks))
            .sum()
    }

    /// Adaptive hoard cap, called by the cache client after frees: each
    /// node keeps at most as many blocks parked as it has live (but at
    /// least 4, and at least `min_keep` — the caller's in-flight
    /// allocation, so an evicting client does not hand the blocks it just
    /// freed straight back to the node while it still needs them), and
    /// releases the rest.
    ///
    /// Scaling the cap with the live set makes the policy self-balancing: a
    /// client recycling into its own allocations (free stays a fraction of
    /// live) never pays a release RPC, while a *net evictor* — frees
    /// greatly outpacing its own allocations, live shrinking towards zero —
    /// steadily returns memory for the other clients to claim.
    pub fn release_excess_adaptive(&mut self, client: &DmClient, min_keep: u64) -> u64 {
        self.per_node
            .iter_mut()
            .flatten()
            .map(|alloc| {
                let keep = alloc.live_blocks().max(4).max(min_keep);
                alloc.release_excess(client, keep)
            })
            .sum()
    }

    /// The `i`-th node of the fallback order: the preferred node first (when
    /// active), then the remaining active nodes in id order.  Returns `None`
    /// for holes in the order (skipped entries); allocation-free.
    fn fallback_node(&self, preferred: u16, i: usize) -> Option<u16> {
        let preferred_active = self.active.contains(&preferred);
        if i == 0 {
            return preferred_active.then_some(preferred);
        }
        let mn = *self.active.get(i - 1)?;
        if preferred_active && mn == preferred {
            None
        } else {
            Some(mn)
        }
    }

    /// Returns a previously allocated range to the free lists of the node
    /// it lives on.
    pub fn free(&mut self, addr: RemoteAddr, size: usize) {
        self.node_mut(addr.mn_id).free(addr, size);
    }

    /// Total segments fetched across all nodes.
    pub fn segments_fetched(&self) -> u64 {
        self.per_node
            .iter()
            .flatten()
            .map(ClientAllocator::segments_fetched)
            .sum()
    }

    /// Total blocks currently handed out across all nodes.
    pub fn live_blocks(&self) -> u64 {
        self.per_node
            .iter()
            .flatten()
            .map(ClientAllocator::live_blocks)
            .sum()
    }

    /// Total blocks parked on the free lists across all nodes.
    pub fn free_blocks(&self) -> u64 {
        self.per_node
            .iter()
            .flatten()
            .map(ClientAllocator::free_blocks)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;
    use crate::pool::MemoryPool;

    fn setup() -> (MemoryPool, DmClient) {
        let pool = MemoryPool::new(DmConfig::small());
        let client = pool.connect();
        (pool, client)
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(ClientAllocator::blocks_for(1), 1);
        assert_eq!(ClientAllocator::blocks_for(64), 1);
        assert_eq!(ClientAllocator::blocks_for(65), 2);
        assert_eq!(ClientAllocator::blocks_for(256), 4);
        assert_eq!(ClientAllocator::blocks_for(0), 1);
    }

    #[test]
    fn alloc_returns_disjoint_block_aligned_addresses() {
        let (_pool, client) = setup();
        let mut alloc = ClientAllocator::new(0);
        let a = alloc.alloc(&client, 256).unwrap();
        let b = alloc.alloc(&client, 256).unwrap();
        assert_eq!(a.offset % BLOCK_SIZE, 0);
        assert_eq!(b.offset % BLOCK_SIZE, 0);
        assert!(b.offset >= a.offset + 256 || a.offset >= b.offset + 256);
        assert_eq!(alloc.segments_fetched(), 1);
    }

    #[test]
    fn freed_blocks_are_recycled_without_rpc() {
        let (_pool, client) = setup();
        let mut alloc = ClientAllocator::new(0);
        let a = alloc.alloc(&client, 256).unwrap();
        alloc.free(a, 256);
        let fetched = alloc.segments_fetched();
        let b = alloc.alloc(&client, 256).unwrap();
        assert_eq!(a, b);
        assert_eq!(alloc.segments_fetched(), fetched);
    }

    #[test]
    fn local_probe_agrees_with_local_allocation() {
        let (pool, client) = setup();
        let mut alloc = StripedAllocator::new(pool.topology().active(), 4096);
        assert!(!alloc.can_alloc_local(256), "nothing fetched yet");
        let a = alloc.alloc_on(&client, 0, 4096).unwrap();
        assert!(!alloc.can_alloc_local(64), "the segment is used up");
        alloc.free(a, 256);
        assert!(alloc.can_alloc_local(256));
        assert!(!alloc.can_alloc_local(320), "the parked range is too small");
        assert!(alloc.alloc_local_on(0, 256).is_some());
        assert!(!alloc.can_alloc_local(64), "a probe hands nothing out");
    }

    #[test]
    fn adjacent_frees_coalesce_into_larger_ranges() {
        let (_pool, client) = setup();
        let mut alloc = ClientAllocator::with_segment_size(0, 4096);
        // Three adjacent 1-block carves, freed in scrambled order.
        let a = alloc.alloc(&client, 64).unwrap();
        let b = alloc.alloc(&client, 64).unwrap();
        let c = alloc.alloc(&client, 64).unwrap();
        // Burn the rest of the segment so the merged range is the only way
        // to serve a 3-block request.
        while alloc.alloc_local(64).is_some() {}
        alloc.free(b, 64);
        alloc.free(a, 64);
        alloc.free(c, 64);
        assert_eq!(alloc.free_blocks(), 3);
        let merged = alloc
            .alloc_local(192)
            .expect("coalesced range serves 3 blocks");
        assert_eq!(merged, a, "merged range starts at the lowest freed offset");
        assert_eq!(alloc.free_blocks(), 0);
    }

    #[test]
    fn larger_free_blocks_are_split_to_serve_smaller_requests() {
        // Fill the node completely with one 4-block object, free it, and
        // allocate 1-block objects: the free block must be split locally —
        // no RPC can succeed (the node is a single segment), and eviction
        // recycling must not depend on exact size-class matches.
        let pool = MemoryPool::new(DmConfig::small().with_capacity(8192));
        let client = pool.connect();
        let mut alloc = ClientAllocator::with_segment_size(0, 4096);
        let a = alloc.alloc(&client, 4096).unwrap();
        alloc.free(a, 4096);
        let first = alloc
            .alloc_local(64)
            .expect("split serves the small request");
        assert_eq!(first, a, "the split hands out the front of the free block");
        // The remainder keeps serving further requests, splitting down.
        for _ in 0..63 {
            assert!(
                alloc.alloc_local(64).is_some(),
                "remainder must keep serving"
            );
        }
        assert!(alloc.alloc_local(64).is_none(), "all 64 blocks handed out");
        assert_eq!(alloc.live_blocks(), 64);
    }

    #[test]
    fn excess_free_blocks_are_released_and_reused_by_other_clients() {
        // Client A's eviction churn fills its local free ranges; once
        // released, client B's segment ask is served from them even though
        // the node's bump cursor is exhausted.
        let pool = MemoryPool::new(DmConfig::small().with_capacity(8192));
        let client = pool.connect();
        let mut a = ClientAllocator::with_segment_size(0, 4096);
        let addr = a.alloc(&client, 4096).unwrap();
        // Burn the remaining fresh memory so only released ranges can serve.
        while a.alloc(&client, 4096).is_ok() {}
        a.free(addr, 4096);
        assert_eq!(a.release_excess(&client, 0), 64);
        assert_eq!(a.free_blocks(), 0);
        let mut b = ClientAllocator::with_segment_size(0, 4096);
        let got = b.alloc(&client, 4096).unwrap();
        assert_eq!(got, addr, "B's segment is carved from A's released range");
    }

    #[test]
    fn exact_size_asks_are_served_when_whole_segments_are_not() {
        // The node holds only a small released range: a whole-segment ask
        // fails, the exact-size pressure backstop succeeds.
        let pool = MemoryPool::new(DmConfig::small().with_capacity(8192));
        let client = pool.connect();
        let mut a = ClientAllocator::with_segment_size(0, 4096);
        let addr = a.alloc(&client, 4096).unwrap();
        while a.alloc(&client, 4096).is_ok() {}
        a.free(addr, 256);
        assert_eq!(a.release_excess(&client, 0), 4);
        let mut b = ClientAllocator::with_segment_size(0, 4096);
        assert!(matches!(
            b.alloc(&client, 64),
            Err(DmError::OutOfMemory { .. })
        ));
        let got = b.alloc_exact(&client, 256).unwrap();
        assert_eq!(got, addr);
        assert_eq!(b.live_blocks(), 4);
    }

    #[test]
    fn release_excess_keeps_the_requested_working_set() {
        let (_pool, client) = setup();
        let mut alloc = ClientAllocator::with_segment_size(0, 4096);
        let a = alloc.alloc(&client, 1024).unwrap();
        let b = alloc.alloc(&client, 1024).unwrap();
        alloc.free(a, 1024);
        // One 16-block range parked; keep_blocks=16 means nothing to do.
        assert_eq!(alloc.release_excess(&client, 16), 0);
        alloc.free(b, 1024);
        // 32 parked (coalesced), keep 8: the merged range is released whole.
        assert_eq!(alloc.release_excess(&client, 8), 32);
        assert_eq!(alloc.free_blocks(), 0);
    }

    #[test]
    fn allocation_larger_than_segment_is_rejected() {
        let (_pool, client) = setup();
        let mut alloc = ClientAllocator::with_segment_size(0, 1024);
        assert!(matches!(
            alloc.alloc(&client, 4096),
            Err(DmError::AllocationTooLarge { .. })
        ));
    }

    #[test]
    fn exhausting_the_node_reports_oom() {
        let pool = MemoryPool::new(DmConfig::small().with_capacity(256 * 1024));
        let client = pool.connect();
        let mut alloc = ClientAllocator::with_segment_size(0, 64 * 1024);
        let mut failures = 0;
        for _ in 0..1024 {
            if matches!(
                alloc.alloc(&client, 60 * 1024),
                Err(DmError::OutOfMemory { .. })
            ) {
                failures += 1;
                break;
            }
        }
        assert_eq!(failures, 1, "allocator should eventually hit OOM");
    }

    #[test]
    fn live_block_accounting() {
        let (_pool, client) = setup();
        let mut alloc = ClientAllocator::new(0);
        let a = alloc.alloc(&client, 128).unwrap();
        assert_eq!(alloc.live_blocks(), 2);
        alloc.free(a, 128);
        assert_eq!(alloc.live_blocks(), 0);
    }

    #[test]
    fn segments_are_returned_via_rpc() {
        let (pool, client) = setup();
        let offset = AllocService::alloc(&client, 0, 4096).unwrap();
        let free = AllocService::encode_free(offset, 4096);
        let mut reply = [0; AllocService::REPLY_LEN];
        assert_eq!(client.rpc(0, ALLOC_SERVICE, &free, &mut reply), Ok(1));
        assert_eq!(reply[0], STATUS_OK);
        // The same segment comes back on the next allocation.
        assert_eq!(AllocService::alloc(&client, 0, 4096), Ok(offset));
        let _ = pool;
    }

    /// The allocator's wire, which `wire_bytes_per_op` and the simulated
    /// clock price: an `ALLOC` request is 9 bytes and a `FREE` 17 (the
    /// CliqueMap baseline pins its 8-byte CPU charge beside its service),
    /// and one `ALLOC` round trip costs exactly one 9-byte RPC's latency.
    #[test]
    fn rpc_requests_keep_their_wire_lengths() {
        let (pool, client) = setup();
        let offset = AllocService::alloc(&client, 0, 4096).unwrap();
        assert_eq!(
            client.now_ns(),
            DmConfig::verb_latency_ns(crate::stats::VerbKind::Rpc, 9)
        );
        let node = &pool.stats().node_snapshots()[0];
        assert_eq!((node.rpcs, node.bytes), (1, 9));
        AllocService::free(&client, 0, offset, 4096).unwrap();
        let node = &pool.stats().node_snapshots()[0];
        assert_eq!((node.rpcs, node.bytes), (2, 9 + 17));
    }

    /// A reply buffer shorter than the allocator's longest reply fails the
    /// call before the controller grants or frees anything.
    #[test]
    fn a_short_reply_buffer_fails_and_changes_nothing() {
        let (pool, client) = setup();
        let node = pool.node(0).unwrap();
        let request = AllocService::encode_alloc(4096, client.client_id());
        let mut short = [0; AllocService::REPLY_LEN - 1];
        assert!(matches!(
            client.rpc(0, ALLOC_SERVICE, &request, &mut short),
            Err(DmError::RpcFailed { .. })
        ));
        assert!(node.owned_segments(client.client_id()).is_empty());
        let offset = AllocService::alloc(&client, 0, 4096).unwrap();
        let free = AllocService::encode_free(offset, 4096);
        assert!(matches!(
            client.rpc(0, ALLOC_SERVICE, &free, &mut []),
            Err(DmError::RpcFailed { .. })
        ));
        assert_eq!(
            node.owned_segments(client.client_id()),
            vec![(offset, 4096)]
        );
    }

    #[test]
    fn segment_grants_are_attributed_to_the_requesting_client() {
        let (pool, client) = setup();
        let node = pool.node(0).unwrap();
        let me = client.client_id();
        assert!(node.owned_segments(me).is_empty());

        let mut alloc = ClientAllocator::with_segment_size(0, 4096);
        let a = alloc.alloc(&client, 128).unwrap();
        let grants = node.owned_segments(me);
        assert_eq!(grants.len(), 1, "one segment fetched");
        let (seg_off, seg_len) = grants[0];
        assert_eq!(seg_len, 4096);
        assert!(a.offset >= seg_off && a.offset < seg_off + seg_len);
        // Another client's view is empty.
        let other = pool.connect();
        assert!(node.owned_segments(other.client_id()).is_empty());

        // Returning a sub-range trims the registry; returning the rest
        // clears it.
        AllocService::free(&client, 0, seg_off, 1024).unwrap();
        let grants = node.owned_segments(me);
        assert_eq!(grants, vec![(seg_off + 1024, 3072)]);
        AllocService::free(&client, 0, seg_off + 1024, 3072).unwrap();
        assert!(node.owned_segments(me).is_empty());
    }

    #[test]
    fn striped_allocator_prefers_the_stripe_local_node() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(4));
        let client = pool.connect();
        let mut alloc = StripedAllocator::new(pool.topology().active(), 4096);
        for preferred in [2u16, 0, 3, 1] {
            let addr = alloc.alloc_on(&client, preferred, 256).unwrap();
            assert_eq!(addr.mn_id, preferred);
        }
    }

    #[test]
    fn striped_allocator_falls_back_when_preferred_is_full() {
        // Node 0 is too small for even one segment; node 1 has room.
        let pool =
            MemoryPool::with_capacities(DmConfig::small().with_memory_nodes(2), &[4096, 1 << 20]);
        let client = pool.connect();
        let mut alloc = StripedAllocator::new(pool.topology().active(), 64 * 1024);
        let addr = alloc.alloc_on(&client, 0, 256).unwrap();
        assert_eq!(
            addr.mn_id, 1,
            "allocation must fall back to the node with room"
        );
    }

    #[test]
    fn striped_allocator_reports_oom_only_when_every_node_is_full() {
        let pool =
            MemoryPool::with_capacities(DmConfig::small().with_memory_nodes(2), &[4096, 4096]);
        let client = pool.connect();
        let mut alloc = StripedAllocator::new(pool.topology().active(), 64 * 1024);
        assert!(matches!(
            alloc.alloc_on(&client, 0, 256),
            Err(DmError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn striped_free_routes_blocks_back_to_their_node() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let mut alloc = StripedAllocator::new(pool.topology().active(), 4096);
        let a = alloc.alloc_on(&client, 1, 256).unwrap();
        assert_eq!(a.mn_id, 1);
        alloc.free(a, 256);
        // Preferring node 1 again recycles the freed block without an RPC.
        let fetched = alloc.segments_fetched();
        let b = alloc.alloc_on(&client, 1, 256).unwrap();
        assert_eq!(b, a);
        assert_eq!(alloc.segments_fetched(), fetched);
        assert_eq!(alloc.live_blocks(), 4);
    }

    #[test]
    fn striped_allocator_skips_drained_nodes_for_new_segments() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let mut alloc = StripedAllocator::new(pool.topology().active(), 4096);
        let resident = alloc.alloc_on(&client, 1, 256).unwrap();
        assert_eq!(resident.mn_id, 1);
        pool.drain_node(1).unwrap();
        alloc.set_active(pool.topology().active());
        // Even freed blocks on the drained node are not handed out again —
        // draining progressively empties the node.
        alloc.free(resident, 256);
        for _ in 0..4 {
            let fresh = alloc.alloc_on(&client, 1, 256).unwrap();
            assert_eq!(
                fresh.mn_id, 0,
                "drained node must receive no new placements"
            );
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let (_pool, client) = setup();
        let mut reply = [0; AllocService::REPLY_LEN];
        for request in [&[][..], &[OP_ALLOC, 1, 2], &[42]] {
            assert!(client.rpc(0, ALLOC_SERVICE, request, &mut reply).is_err());
        }
    }
}
